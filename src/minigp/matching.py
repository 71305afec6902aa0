"""Injective root-preserving morphisms and root-driven match enumeration.

`compile_plan` turns a left-hand side into a search plan once, in one
breadth-first walk from its roots: a flat sequence of steps that seed
node slots at host roots and follow edges out of filled slots.  The walk
also checks that the rule is fast, with every node reachable from a
root.  `search_tree` merges the plans of several rules on their
equal step prefixes, and `match_all` walks such a tree once over small
tuples of node and edge images: each shared step runs once for all the
plans below it, and a subtree is dropped as soon as its prefix has no
partial match.  A single plan is searched as a one-leaf tree.  Each
complete match stays a pair of tuples, indexed by its plan's slots, all
the way to the rewrite.  For fast rules the work done is independent of
host size.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import InputError
from .graphs import Graph, Label


class NotFastRule(InputError):
    """Some left-hand-side node is unreachable from every root."""

    def __init__(self, node: int):
        super().__init__(f"node {node} is not reachable from any root")
        self.node = node


# Compiled pieces are immutable, and a generated library repeats a few of
# them thousands of times (the filler machine's 2,656 rules hold 132
# distinct search steps), so each distinct piece is stored once.
_SHARED: dict = {}


def share(piece):
    """The first compiled piece equal to this one, stored once for all
    rules that need it."""
    return _SHARED.setdefault(piece, piece)


Step = tuple[int, Optional[Label], int, Optional[Label], bool]


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

    steps: tuple[Step, ...]
    nodes: tuple[int, ...]
    edges: tuple[int, ...]


def compile_plan(L: Graph) -> SearchPlan:
    """The search plan of L: a breadth-first walk from each root of L in
    ascending id order that emits a step for every edge it reaches.  A
    root reached from an earlier root is not seeded, and its edges are
    already in the plan.  Raises NotFastRule if some node is unreachable
    from every root."""
    slot: dict[int, int] = {}
    steps = []
    edges = []
    for root in sorted(L.roots):
        if root in slot:
            continue
        slot[root] = len(slot)
        steps.append(share((-1, None, -1, L.nodes[root], True)))
        # Each node is walked once, when it gets its slot, so each edge is
        # emitted once, as the out-edge of its source.
        queue = [root]
        for u in queue:
            for e in L.out_edges(u):
                s, t, lab = L.edges[e]
                if t in slot:
                    steps.append(share((slot[s], lab, slot[t], None, False)))
                else:
                    slot[t] = len(slot)
                    steps.append(share((slot[s], lab, -1, L.nodes[t],
                                        t in L.roots)))
                    queue.append(t)
                edges.append(e)
    missing = L.nodes.keys() - slot.keys()
    if missing:
        raise NotFastRule(min(missing))
    return SearchPlan(tuple(steps), share(tuple(slot)), share(tuple(edges)))


# A search tree node is a pair (leaves, branches): the numbers of the plans
# that end at this node, and one (step, subtree) pair per distinct next
# step, in order of first use.
Tree = tuple[tuple[int, ...], tuple[tuple[Step, "Tree"], ...]]


def search_tree(plans: Sequence[SearchPlan]) -> Tree:
    """The plans merged on equal step prefixes into one tree whose leaf i
    ends plan i.  Steps are equal only when all five fields are, so the
    partial matches at a tree node are exactly those of every plan
    through it after that many steps.  Equal subtrees are stored once."""
    return _merge([(i, plan.steps) for i, plan in enumerate(plans)], 0)


def _merge(entries: list[tuple[int, tuple[Step, ...]]], depth: int) -> Tree:
    leaves = []
    branches: dict[Step, list] = {}
    for i, steps in entries:
        if len(steps) == depth:
            leaves.append(i)
        else:
            branches.setdefault(steps[depth], []).append((i, steps))
    return share((tuple(leaves), tuple([(step, _merge(sub, depth + 1))
                                        for step, sub in branches.items()])))


Match = tuple[tuple[int, ...], tuple[int, ...]]


class MatchResult(NamedTuple):
    """The complete matches of each plan of a tree that has any, keyed by
    leaf number, each list in search order, and the number of single-item
    extensions tried.  A match is a pair (node images, edge images): slot
    i of the plan's nodes (edges) maps to the i-th host id."""

    matches: dict[int, list[Match]]
    extensions: int


def match_all(tree: Tree, G: Graph) -> MatchResult:
    """All total injective root-preserving/reflecting morphisms from the
    left side of each plan in the tree into G.

    Walks the tree depth first, running each step breadth first over the
    partial matches of its prefix.  Also reports how many single-item
    extensions were tried: one per host root at a seed step and one per
    followed out-edge, each counted once however many plans share it."""
    nodes, edges, roots, out = G.nodes, G.edges, G.roots, G.out_edges
    host_roots = sorted(roots)
    found: dict[int, list[Match]] = {}
    count = 0
    todo: list[tuple[Tree, list[Match]]] = [(tree, [((), ())])]
    while todo:
        (leaves, branches), partials = todo.pop()
        for i in leaves:
            found[i] = partials
        for (src, elab, tgt, nlab, root), sub in branches:
            grown = []
            if src < 0:
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
            if grown:
                todo.append((sub, grown))
    return MatchResult(found, count)
