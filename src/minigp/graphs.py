"""Labelled rooted directed graphs with parallel edges and loops, and
`to_text`, the one serialization (the CLI writes graphs; nothing in the
package reads them back).  A graph indexes only its out-edges, so an edge
update touches just its source's out-list; `in_edges` scans every edge,
and only node deletion reads it."""

from __future__ import annotations

from bisect import insort
from typing import NamedTuple, Optional, Union

from .errors import InputError

Atom = Union[int, str, None]


class Label(NamedTuple):
    """An atom (int, one of L/R/I, or None for the empty atom) plus an optional mark."""

    atom: Atom
    mark: Optional[str] = None


EMPTY = Label(None)


# Opcodes of the journal's undo records.  A record is (opcode, id, old):
# the node or edge id, and the removed edge's triple or the node's former
# label (None for an addition).
_ADDED_NODE, _ADDED_EDGE, _REMOVED_EDGE, _REMOVED_NODE, _RELABELLED = range(5)


class Mark(NamedTuple):
    """A point to roll a graph back to: the journal length, both id
    counters and a copy of the roots, which `rules.apply` edits directly.
    The outermost window's mark also holds a copy of the graph (`saved`),
    and its journal length is 0."""

    at: int
    next_node_id: int
    next_edge_id: int
    roots: set[int]
    saved: Optional[Graph] = None


class Graph:
    """Mutable graph value.  Node and edge ids are opaque ints, allocated
    monotonically and never reused, so iteration in ascending id order is
    stable across mutations.

    `mark` opens a window that `rollback` can undo and `release` ends.
    Windows nest, and their depth decides how each is kept: the outermost
    copies the graph, and a nested one uses an undo journal, so the
    journal never spans more than one outermost window.  While a nested
    window is open, each primitive mutation (adding or removing a node or
    an edge, relabelling a node) appends one record, and `rollback` pops
    them in reverse; the journal closes with the last nested window, so a
    graph outside them records nothing.  `_out`, each node's out-edge ids,
    is the only adjacency index."""

    __slots__ = ("nodes", "edges", "roots", "_out", "next_node_id", "next_edge_id",
                 "_log", "_windows")

    def __init__(self) -> None:
        self.nodes: dict[int, Optional[Label]] = {}
        self.edges: dict[int, tuple[int, int, Label]] = {}
        self.roots: set[int] = set()
        self._out: dict[int, list[int]] = {}
        self.next_node_id = 0
        self.next_edge_id = 0
        self._log: Optional[list[tuple]] = None
        self._windows = 0

    def add_node(self, label: Optional[Label] = EMPTY, *, root: bool = False,
                 nid: Optional[int] = None) -> int:
        if nid is None:
            nid = self.next_node_id
        if nid in self.nodes:
            raise InputError(f"node id {nid} already present")
        self.nodes[nid] = label
        self._out[nid] = []
        if root:
            self.roots.add(nid)
        self.next_node_id = max(self.next_node_id, nid + 1)
        if self._log is not None:
            self._log.append((_ADDED_NODE, nid, None))
        return nid

    def add_edge(self, src: int, tgt: int, label: Label = EMPTY, *,
                 eid: Optional[int] = None) -> int:
        if src not in self.nodes or tgt not in self.nodes:
            raise InputError(f"edge {src}->{tgt} references a missing node")
        if eid is None:
            eid = self.next_edge_id
        if eid in self.edges:
            raise InputError(f"edge id {eid} already present")
        self.edges[eid] = (src, tgt, label)
        insort(self._out[src], eid)
        self.next_edge_id = max(self.next_edge_id, eid + 1)
        if self._log is not None:
            self._log.append((_ADDED_EDGE, eid, None))
        return eid

    def remove_edge(self, eid: int) -> None:
        edge = self.edges.pop(eid)
        self._out[edge[0]].remove(eid)
        if self._log is not None:
            self._log.append((_REMOVED_EDGE, eid, edge))

    def remove_node(self, nid: int) -> None:
        if self._out[nid] or self.in_edges(nid):
            raise InputError(f"node {nid} still has incident edges")
        label = self.nodes.pop(nid)
        del self._out[nid]
        self.roots.discard(nid)
        if self._log is not None:
            self._log.append((_REMOVED_NODE, nid, label))

    def relabel_node(self, nid: int, label: Optional[Label]) -> None:
        if nid not in self.nodes:
            raise InputError(f"no node {nid}")
        if self._log is not None:
            self._log.append((_RELABELLED, nid, self.nodes[nid]))
        self.nodes[nid] = label

    def set_root(self, nid: int, flag: bool = True) -> None:
        if nid not in self.nodes:
            raise InputError(f"no node {nid}")
        if flag:
            self.roots.add(nid)
        else:
            self.roots.discard(nid)

    def out_edges(self, nid: int) -> list[int]:
        """Outgoing edge ids of a node, ascending.  Callers must not mutate."""
        return self._out[nid]

    def in_edges(self, nid: int) -> list[int]:
        """Incoming edge ids of a node, ascending: a scan of every edge,
        sorted because a rolled-back edge re-enters `edges` at its end."""
        return sorted(e for e, (_, tgt, _) in self.edges.items() if tgt == nid)

    def copy(self) -> Graph:
        g = Graph.__new__(Graph)
        g.nodes = dict(self.nodes)
        g.edges = dict(self.edges)
        g.roots = set(self.roots)
        g._out = {v: list(es) for v, es in self._out.items()}
        g.next_node_id = self.next_node_id
        g.next_edge_id = self.next_edge_id
        g._log = None
        g._windows = 0
        return g

    def mark(self) -> Mark:
        """Open a window; end it with `release`, after a `rollback` to this
        mark or not.  The outermost window copies the graph; a nested one
        opens the journal if none is open."""
        self._windows += 1
        if self._windows == 1:
            saved = self.copy()
            return Mark(0, saved.next_node_id, saved.next_edge_id, saved.roots, saved)
        if self._log is None:
            self._log = []
        return Mark(len(self._log), self.next_node_id, self.next_edge_id,
                    set(self.roots))

    def rollback(self, mark: Mark) -> None:
        """Undo every change since mark, adopting its copy in O(1) or popping
        the journal in reverse, and restore the id counters and the roots;
        mark's copy and roots are adopted, so roll back to a mark at most
        once."""
        self._check(mark)
        saved = mark.saved
        if saved is not None:
            self.nodes, self.edges = saved.nodes, saved.edges
            self._out = saved._out
        else:
            log = self._log
            nodes, edges, out = self.nodes, self.edges, self._out
            for op, item, old in reversed(log[mark.at:]):
                if op == _REMOVED_EDGE:
                    edges[item] = old
                    insort(out[old[0]], item)
                elif op == _ADDED_EDGE:
                    out[edges.pop(item)[0]].remove(item)
                elif op == _RELABELLED:
                    nodes[item] = old
                elif op == _REMOVED_NODE:
                    nodes[item] = old
                    out[item] = []
                else:
                    del nodes[item], out[item]
            del log[mark.at:]
        self.next_node_id = mark.next_node_id
        self.next_edge_id = mark.next_edge_id
        self.roots = mark.roots

    def release(self, mark: Mark) -> None:
        """End the window mark opened, keeping its changes; the journal
        closes with the last nested window."""
        self._check(mark)
        self._windows -= 1
        if self._windows < 2:
            self._log = None

    def _check(self, mark: Mark) -> None:
        if not self._windows or mark.saved is None and (
                self._log is None or not 0 <= mark.at <= len(self._log)):
            raise InputError(f"no open window reaches back to {mark.at}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.nodes == other.nodes and self.edges == other.edges
                and self.roots == other.roots)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"Graph({len(self.nodes)} nodes, {len(self.edges)} edges, "
                f"{len(self.roots)} roots)")


def graph_space(g: Graph) -> int:
    """Number of nodes plus number of edges."""
    return len(g.nodes) + len(g.edges)


def atom_to_text(atom: Atom) -> str:
    if atom is None:
        return "_"
    return str(atom)


def to_text(g: Graph) -> str:
    """Serialize, one item per line, nodes then edges in ascending id order."""
    lines = []
    for nid in sorted(g.nodes):
        lab = g.nodes[nid]
        if lab is None:
            raise InputError(f"node {nid} is unlabelled; only labelled graphs serialize")
        parts = ["node", str(nid), atom_to_text(lab.atom)]
        if lab.mark is not None:
            parts.append(lab.mark)
        if nid in g.roots:
            parts.append("root")
        lines.append(" ".join(parts))
    for eid in sorted(g.edges):
        src, tgt, lab = g.edges[eid]
        parts = ["edge", str(eid), str(src), str(tgt), atom_to_text(lab.atom)]
        if lab.mark is not None:
            parts.append(lab.mark)
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
