"""Injective root-preserving morphisms and root-driven match enumeration.

`compile_plan` turns a left-hand side into a search plan once: a flat
sequence of steps that seed node slots at host roots and follow the
per-root edge enumerations out of filled slots.  `match_all` runs the plan
over small tuples of node and edge images, and each complete match stays
such a pair of tuples, indexed by the plan's slots, all the way to the
rewrite.  For rules whose nodes are all root-reachable the work done is
independent of host size.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import InputError
from .graphs import Graph, Label


class NotFastRule(InputError):
    """Some left-hand-side node is unreachable from every root."""

    def __init__(self, node: int):
        super().__init__(f"node {node} is not reachable from any root")
        self.node = node


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
