"""Labelled rooted directed graphs with parallel edges and loops."""

from __future__ import annotations

from bisect import insort
from typing import NamedTuple, Optional, Union

from .errors import InputError, ParseError

Atom = Union[int, str, None]

NODE_MARKS = frozenset({None, "red", "green", "blue", "grey"})
EDGE_MARKS = frozenset({None, "red", "green", "blue", "dashed"})
CHAR_ATOMS = frozenset({"L", "R", "I"})


class Label(NamedTuple):
    """An atom (int, one of L/R/I, or None for the empty atom) plus an optional mark."""

    atom: Atom
    mark: Optional[str] = None


EMPTY = Label(None)


class Graph:
    """Mutable graph value.  Node and edge ids are opaque ints, allocated
    monotonically and never reused, so iteration in ascending id order is
    stable across mutations."""

    __slots__ = ("nodes", "edges", "roots", "_out", "_in", "next_node_id", "next_edge_id")

    def __init__(self) -> None:
        self.nodes: dict[int, Optional[Label]] = {}
        self.edges: dict[int, tuple[int, int, Label]] = {}
        self.roots: set[int] = set()
        self._out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}
        self.next_node_id = 0
        self.next_edge_id = 0

    def add_node(self, label: Optional[Label] = EMPTY, *, root: bool = False,
                 nid: Optional[int] = None) -> int:
        if nid is None:
            nid = self.next_node_id
        if nid in self.nodes:
            raise InputError(f"node id {nid} already present")
        self.nodes[nid] = label
        self._out[nid] = []
        self._in[nid] = []
        if root:
            self.roots.add(nid)
        self.next_node_id = max(self.next_node_id, nid + 1)
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
        insort(self._in[tgt], eid)
        self.next_edge_id = max(self.next_edge_id, eid + 1)
        return eid

    def remove_edge(self, eid: int) -> None:
        src, tgt, _ = self.edges.pop(eid)
        self._out[src].remove(eid)
        self._in[tgt].remove(eid)

    def remove_node(self, nid: int) -> None:
        if self._out[nid] or self._in[nid]:
            raise InputError(f"node {nid} still has incident edges")
        del self.nodes[nid]
        del self._out[nid]
        del self._in[nid]
        self.roots.discard(nid)

    def relabel_node(self, nid: int, label: Optional[Label]) -> None:
        if nid not in self.nodes:
            raise InputError(f"no node {nid}")
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
        return self._in[nid]

    def copy(self) -> Graph:
        g = Graph.__new__(Graph)
        g.nodes = dict(self.nodes)
        g.edges = dict(self.edges)
        g.roots = set(self.roots)
        g._out = {v: list(es) for v, es in self._out.items()}
        g._in = {v: list(es) for v, es in self._in.items()}
        g.next_node_id = self.next_node_id
        g.next_edge_id = self.next_edge_id
        return g

    def restore(self, saved: Graph) -> None:
        """Become saved, a copy taken earlier, in O(1) by adopting its
        dicts, roots and id counters; saved must not be used afterwards."""
        self.nodes = saved.nodes
        self.edges = saved.edges
        self.roots = saved.roots
        self._out = saved._out
        self._in = saved._in
        self.next_node_id = saved.next_node_id
        self.next_edge_id = saved.next_edge_id

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


def validate_host_graph(g: Graph) -> list[str]:
    """Every violated host-graph invariant, as `code:id` strings; [] means valid."""
    bad = []
    for nid in sorted(g.nodes):
        lab = g.nodes[nid]
        if lab is None:
            bad.append(f"node-not-labelled:{nid}")
            continue
        if not (lab.atom is None or isinstance(lab.atom, int) or lab.atom in CHAR_ATOMS):
            bad.append(f"unknown-atom:{nid}")
        if lab.mark == "dashed":
            bad.append(f"dashed-on-node:{nid}")
        elif lab.mark not in NODE_MARKS:
            bad.append(f"unknown-mark:{nid}")
    for eid in sorted(g.edges):
        src, tgt, lab = g.edges[eid]
        if src not in g.nodes:
            bad.append(f"dangling-src:{eid}")
        if tgt not in g.nodes:
            bad.append(f"dangling-tgt:{eid}")
        if not (lab.atom is None or isinstance(lab.atom, int) or lab.atom in CHAR_ATOMS):
            bad.append(f"unknown-atom:{eid}")
        if lab.mark == "grey":
            bad.append(f"grey-on-edge:{eid}")
        elif lab.mark not in EDGE_MARKS:
            bad.append(f"unknown-mark:{eid}")
    for nid in sorted(g.roots):
        if nid not in g.nodes:
            bad.append(f"root-not-node:{nid}")
    return bad


def check_boundedness(g: Graph, max_outdegree: int, max_roots: int) -> bool:
    """True iff every outdegree is at most max_outdegree and |roots| <= max_roots."""
    if len(g.roots) > max_roots:
        return False
    return all(len(es) <= max_outdegree for es in g._out.values())


def atom_to_text(atom: Atom) -> str:
    if atom is None:
        return "_"
    return str(atom)


def atom_from_text(tok: str) -> Atom:
    if tok == "_":
        return None
    if tok in CHAR_ATOMS:
        return tok
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad atom {tok!r}") from None


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


_MARKS = NODE_MARKS | EDGE_MARKS


def from_text(text: str) -> Graph:
    """Parse the serialization produced by to_text; `#` comments and blanks ignored."""
    g = Graph()
    pending = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] == "node":
                nid = int(toks[1])
                atom = atom_from_text(toks[2])
                mark = None
                root = False
                rest = toks[3:]
                if rest and rest[0] in _MARKS:
                    mark = rest.pop(0)
                if rest and rest[0] == "root":
                    root = True
                    rest.pop(0)
                if rest:
                    raise ParseError(f"trailing tokens {rest}")
                g.add_node(Label(atom, mark), root=root, nid=nid)
            elif toks[0] == "edge":
                eid, src, tgt = int(toks[1]), int(toks[2]), int(toks[3])
                atom = atom_from_text(toks[4])
                mark = None
                rest = toks[5:]
                if rest and rest[0] in _MARKS:
                    mark = rest.pop(0)
                if rest:
                    raise ParseError(f"trailing tokens {rest}")
                pending.append((lineno, eid, src, tgt, Label(atom, mark)))
            else:
                raise ParseError(f"unknown item {toks[0]!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, InputError):
                raise ParseError(f"line {lineno}: {exc}") from None
            raise ParseError(f"line {lineno}: cannot parse {line!r}") from None
    for lineno, eid, src, tgt, lab in pending:
        try:
            g.add_edge(src, tgt, lab, eid=eid)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return g
