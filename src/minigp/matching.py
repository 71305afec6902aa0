"""Injective root-preserving morphisms and root-driven match enumeration.

`compile_plan` turns a left-hand side into a search plan once: a flat
sequence of steps that seed node slots at host roots and follow the
per-root edge enumerations out of filled slots.  `match_all` runs the plan
over small tuples of node and edge images, and each complete match stays
such a pair of tuples, indexed by the plan's slots, all the way to the
rewrite.  For rules whose nodes are all root-reachable the work done is
independent of host size.  A brute-force enumerator over all injective
mappings, which builds `PartialMorphism`s keyed by left-side id, serves as
the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product
from typing import NamedTuple, Optional

from .graphs import Graph, Label


class NotFastRule(Exception):
    """Some left-hand-side node is unreachable from every root."""

    def __init__(self, node: int):
        super().__init__(f"node {node} is not reachable from any root")
        self.node = node


@dataclass
class PartialMorphism:
    """Injective structure-preserving partial map between two graphs."""

    node_map: dict[int, int] = field(default_factory=dict)
    edge_map: dict[int, int] = field(default_factory=dict)

    def key(self) -> tuple:
        return (tuple(sorted(self.node_map.items())),
                tuple(sorted(self.edge_map.items())))


def check_morphism(h: PartialMorphism, L: Graph, G: Graph) -> bool:
    """True iff h is an injective partial morphism L -> G that preserves
    sources, targets and labels and both preserves and reflects roots."""
    if len(set(h.node_map.values())) != len(h.node_map):
        return False
    if len(set(h.edge_map.values())) != len(h.edge_map):
        return False
    for v, w in h.node_map.items():
        if v not in L.nodes or w not in G.nodes:
            return False
        if L.nodes[v] != G.nodes[w]:
            return False
        if (v in L.roots) != (w in G.roots):
            return False
    for e, f in h.edge_map.items():
        if e not in L.edges or f not in G.edges:
            return False
        ls, lt, llab = L.edges[e]
        gs, gt, glab = G.edges[f]
        if llab != glab:
            return False
        if h.node_map.get(ls) != gs or h.node_map.get(lt) != gt:
            return False
    return True


def edge_enumerations(L: Graph) -> dict[int, list[int]]:
    """Per-root edge orderings that jointly cover every edge of L.

    Each root's list is a breadth-first expansion: an edge appears only after
    its source node has been introduced by the root or an earlier edge.
    Raises NotFastRule if some node is unreachable from every root."""
    enums: dict[int, list[int]] = {}
    claimed: set[int] = set()
    covered: set[int] = set()
    for root in sorted(L.roots):
        order: list[int] = []
        seen = {root}
        queue = [root]
        while queue:
            u = queue.pop(0)
            for e in L.out_edges(u):
                if e in claimed:
                    continue
                claimed.add(e)
                order.append(e)
                t = L.edges[e][1]
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        enums[root] = order
        covered |= seen
    missing = set(L.nodes) - covered
    if missing:
        raise NotFastRule(min(missing))
    return enums


# Compiled pieces are immutable, and a generated library repeats a few of
# them thousands of times (the filler machine's 2,656 rules hold 132
# distinct search steps), so each distinct piece is stored once.
_SHARED: dict = {}


def share(piece):
    """The first compiled piece equal to this one, stored once for all
    rules that need it."""
    return _SHARED.setdefault(piece, piece)


class SearchPlan(NamedTuple):
    """A left-hand side compiled into a fixed sequence of search steps.

    Each step is (src, edge_label, tgt, node_label, root).  With src < 0
    it seeds a new node slot at a host root labelled node_label.  With
    src >= 0 it follows an out-edge labelled edge_label from the image of
    node slot src: tgt >= 0 names the node slot the edge must reach, and
    tgt < 0 opens a new node slot for a node labelled node_label whose root
    flag is root.  Every edge step fills the next edge slot.  nodes and
    edges give the left-side id held by each slot.
    """

    steps: tuple[tuple[int, Optional[Label], int, Optional[Label], bool], ...]
    nodes: tuple[int, ...]
    edges: tuple[int, ...]


def compile_plan(L: Graph) -> SearchPlan:
    """The search plan that seeds each root of L in ascending id order and
    follows its edge enumeration.  Raises NotFastRule like
    edge_enumerations."""
    enums = edge_enumerations(L)
    slot: dict[int, int] = {}
    steps = []
    edges = []
    for root in sorted(L.roots):
        # A root already reached through an earlier enumeration is not seeded.
        if root not in slot:
            slot[root] = len(slot)
            steps.append(share((-1, None, -1, L.nodes[root], True)))
        for e in enums[root]:
            s, t, lab = L.edges[e]
            if t in slot:
                steps.append(share((slot[s], lab, slot[t], None, False)))
            else:
                slot[t] = len(slot)
                steps.append(share((slot[s], lab, -1, L.nodes[t],
                                    t in L.roots)))
            edges.append(e)
    return SearchPlan(tuple(steps), share(tuple(slot)), share(tuple(edges)))


Match = tuple[tuple[int, ...], tuple[int, ...]]


class MatchResult(NamedTuple):
    """The complete matches of a plan, in search order, and the number of
    single-item extensions tried.  A match is a pair (node images, edge
    images): slot i of the plan's nodes (edges) maps to the i-th host id."""

    matches: list[Match]
    extensions: int


def match_all(plan: SearchPlan, G: Graph) -> MatchResult:
    """All total injective root-preserving/reflecting morphisms from the
    plan's left side into G.

    Runs the plan breadth first over tuples of node and edge images.  Also
    reports how many single-item extensions were tried: one per host root
    at a seed step and one per followed out-edge."""
    nodes, edges, roots, out = G.nodes, G.edges, G.roots, G.out_edges
    partials = [((), ())]
    count = 0
    for src, elab, tgt, nlab, root in plan.steps:
        grown = []
        if src < 0:
            host_roots = sorted(roots)
            count += len(partials) * len(host_roots)
            for nimg, eimg in partials:
                for w in host_roots:
                    if nodes[w] == nlab and w not in nimg:
                        grown.append((nimg + (w,), eimg))
        else:
            for nimg, eimg in partials:
                cands = out(nimg[src])
                count += len(cands)
                for f in cands:
                    _, t, lab = edges[f]
                    if lab != elab or f in eimg:
                        continue
                    if tgt >= 0:
                        if nimg[tgt] == t:
                            grown.append((nimg, eimg + (f,)))
                    elif (t not in nimg and nodes[t] == nlab
                          and (t in roots) == root):
                        grown.append((nimg + (t,), eimg + (f,)))
        partials = grown
        if not partials:
            break
    return MatchResult(partials, count)


def match_bruteforce(L: Graph, G: Graph) -> list[PartialMorphism]:
    """Oracle enumerator: every injective node mapping crossed with every
    compatible edge mapping, filtered through check_morphism."""
    lnodes = sorted(L.nodes)
    ledges = sorted(L.edges)
    results = []
    for images in permutations(sorted(G.nodes), len(lnodes)):
        nm = dict(zip(lnodes, images))
        cands = []
        for e in ledges:
            s, t, lab = L.edges[e]
            want = (nm[s], nm[t], lab)
            cands.append([f for f in sorted(G.edges) if G.edges[f] == want])
        for combo in product(*cands):
            if len(set(combo)) != len(combo):
                continue
            h = PartialMorphism(dict(nm), dict(zip(ledges, combo)))
            if check_morphism(h, L, G):
                results.append(h)
    results.sort(key=PartialMorphism.key)
    return results
