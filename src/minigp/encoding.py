"""Configuration graphs: the enc_k embedding of machine configurations and
its validating inverse.

A configuration graph has a central root labelled with the state, a doubly
linked INPUT list (red = right neighbor, blue = left), a BLOCKSET of b =
3^(k+2) empty nodes whose dashed edges store block contents as indices, and
a CACHE of c = k+2 ternary digits holding the active block.  A block's
content is the ternary value of its c digits, the leftmost most
significant, and `content_digits` turns a value back into digits.  The central
node carries six out-edges: green "I" to the leftmost input node, green to
the input head, blue to the leftmost block, dashed to the active block, red
to the rightmost cache node, and an unmarked edge to the cache head.

The layout is written once, in `layout(s, k)`, and `layout_graph` builds
its graphs.  `enc` is the graph of the whole layout; `dec`, after extracting
a configuration from the graph, checks the whole graph against the layout
of that configuration; and the compiler's `initial_graph` and `setup` rule
are the level-0 layout of the initial configuration, split at INPUT.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError, RunError
from .graphs import EMPTY, Graph, Label
from .turing import BLANK, TMConfiguration

GREEN_I = Label("I", "green")
GREEN = Label(None, "green")
BLUE = Label(None, "blue")
DASHED = Label(None, "dashed")
RED = Label(None, "red")
# The central node's out-edges carry each of these labels exactly once;
# the unmarked one, EMPTY, targets the cache head.
_CENTRAL_LABELS = (GREEN_I, GREEN, BLUE, DASHED, RED, EMPTY)


class OutOfRange(InputError):
    pass


class CapacityExceeded(InputError):
    pass


class MalformedConfigGraph(RunError):
    """The graph breaks the configuration schema; args[0] names how.  In
    the package `dec` reads only graphs the simulator produced, so this is
    a failed run, not bad input."""


@dataclass(frozen=True)
class EncodingParams:
    """Derived sizes for encoding level k."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise OutOfRange(f"k must be nonnegative, got {self.k}")

    @property
    def c(self) -> int:
        return self.k + 2

    @property
    def b(self) -> int:
        return 3 ** self.c

    @property
    def capacity(self) -> int:
        return self.b * self.c


def content_digits(v: int, c: int) -> list[int]:
    """The c ternary digits of block content v, most significant first."""
    if not 0 <= v < 3 ** c:
        raise OutOfRange(f"value {v} not in [0, 3^{c})")
    out = []
    for _ in range(c):
        v, d = divmod(v, 3)
        out.append(d)
    return out[::-1]


def _chain(first: int, length: int) -> list[tuple[int, int, Label]]:
    """Red edges rightward and blue edges back along the nodes first,
    first+1, ..., first+length-1, in the order enc adds them."""
    out = []
    for v in range(first, first + length - 1):
        out += ((v, v + 1, RED), (v + 1, v, BLUE))
    return out


def layout(s: TMConfiguration, k: int) -> tuple[list[Label], list[tuple[int, int, Label]]]:
    """The canonical enc_k layout of s: node labels in id order and
    (src, tgt, label) edge triples in edge-id order, all triples distinct.
    Node ids run central, INPUT left to right, BLOCKSET, CACHE."""
    p = EncodingParams(k)
    if max(len(s.work), s.work_head + 1) > p.capacity:
        raise CapacityExceeded(f"{max(len(s.work), s.work_head + 1)} squares exceed {p.capacity}")
    n = len(s.input)
    if n == 0 or set(s.input) - {"0", "1"}:
        raise OutOfRange(f"input must be nonempty binary, got {s.input!r}")
    if not 0 <= s.input_head < n:
        raise OutOfRange(f"input head {s.input_head} outside [0, {n})")
    if set(s.work) - {"0", "1", "2"}:
        raise OutOfRange(f"work must be over {{0,1,2}}, got {s.work!r}")
    if s.work.endswith(str(BLANK)):
        raise OutOfRange(f"work must end at its last nonblank square, got {s.work!r}")
    if s.work_head < 0:
        raise OutOfRange(f"work head {s.work_head} is negative")

    c, b = p.c, p.b
    padded = s.work + str(BLANK) * (p.capacity - len(s.work))
    active, offset = divmod(s.work_head, c)
    first_block, first_cache = n + 1, n + 1 + b

    labels = [Label(s.state)]
    labels += [Label(int(ch)) for ch in s.input]
    labels += [EMPTY] * b
    labels += [Label(int(ch)) for ch in padded[active * c:(active + 1) * c]]

    dashed = [(first_block + i, first_block + int(padded[i * c:(i + 1) * c], 3), DASHED)
              for i in range(b)]
    dashed[active] = (first_block + active, first_block, DASHED)
    edges = [(0, 1, GREEN_I), (0, 1 + s.input_head, GREEN)]
    edges += _chain(1, n)
    edges += _chain(first_block, b)
    edges += dashed
    edges += [(0, first_block, BLUE), (0, first_block + active, DASHED)]
    edges += _chain(first_cache, c)
    edges += [(0, first_cache + c - 1, RED), (0, first_cache + offset, EMPTY)]
    return labels, edges


def layout_graph(labels: list[Label], edges: list[tuple[int, int, Label]]) -> Graph:
    """The graph of a layout or a section of one, rooted at node 0: node
    ids follow the labels and edge ids the triples."""
    g = Graph()
    for lab in labels:
        g.add_node(lab)
    g.roots.add(0)
    for src, tgt, lab in edges:
        g.add_edge(src, tgt, lab)
    return g


def enc(s: TMConfiguration, k: int) -> Graph:
    """Encode a configuration at level k as the graph of its `layout`."""
    return layout_graph(*layout(s, k))


@lru_cache(maxsize=8)
def _digit_strings(c: int) -> tuple[str, ...]:
    """The c-digit ternary string of every block content at block size c."""
    return tuple("".join(map(str, content_digits(v, c))) for v in range(3 ** c))


def _walk_right(g: Graph, start: int, bad, what: str) -> list[int]:
    """Follow red edges rightward from start, guarding against cycles."""
    edges = g.edges
    order = [start]
    seen = {start}
    while True:
        reds = [e for e in g.out_edges(order[-1]) if edges[e][2] == RED]
        if not reds:
            return order
        if len(reds) > 1:
            bad(f"{what}: node {order[-1]} has several red out-edges")
        tgt = edges[reds[0]][1]
        if tgt in seen:
            bad(f"{what}: red edges form a cycle at node {tgt}")
        order.append(tgt)
        seen.add(tgt)


def dec(g: Graph) -> tuple[TMConfiguration, int]:
    """Decode and fully validate a configuration graph.

    Walks the schema sections to extract the configuration, then requires
    the whole graph to equal its canonical encoding, the layout enc builds
    from: every node label position by position and the multiset of edges
    under the section order.  Any schema deviation ends in
    MalformedConfigGraph naming the first broken constraint.
    """
    def bad(reason: str):
        raise MalformedConfigGraph(reason)

    if len(g.roots) != 1:
        bad(f"expected exactly one root, found {len(g.roots)}")
    central = next(iter(g.roots))
    state = getattr(g.nodes[central], "atom", None)
    if not isinstance(state, int):
        bad(f"central label {g.nodes[central]} is not a state")

    targets: dict[tuple, int] = {}
    out = g.out_edges(central)
    if len(out) != 6:
        bad(f"central node has {len(out)} out-edges, expected 6")
    for e in out:
        _, tgt, lab = g.edges[e]
        if lab in targets:
            bad(f"central node has two {lab} out-edges")
        targets[lab] = tgt
    for lab in _CENTRAL_LABELS:
        if lab not in targets:
            bad(f"central node lacks a {lab} out-edge")

    inp = _walk_right(g, targets[GREEN_I], bad, "INPUT")
    blocks = _walk_right(g, targets[BLUE], bad, "BLOCKSET")
    cache_right = targets[RED]
    cache = _walk_right(g, cache_right, bad, "CACHE")
    if len(cache) != 1:
        bad("central red edge does not target the rightmost cache node")
    blues = [e for e in g.out_edges(cache_right) if g.edges[e][2] == BLUE]
    cache, seen = [cache_right], {cache_right}
    while blues:
        if len(blues) > 1:
            bad(f"CACHE: node {cache[0]} has several blue out-edges")
        tgt = g.edges[blues[0]][1]
        if tgt in seen:
            bad("CACHE: blue edges form a cycle")
        cache.insert(0, tgt)
        seen.add(tgt)
        blues = [e for e in g.out_edges(tgt) if g.edges[e][2] == BLUE]

    c, b, n = len(cache), len(blocks), len(inp)
    if c < 2:
        bad(f"cache has {c} nodes, need at least 2")
    if b != 3 ** c:
        bad(f"blockset has {b} nodes, expected 3^{c}")
    k = c - 2
    sections = [central] + inp + blocks + cache
    to_ref = dict(zip(sections, range(len(sections))))
    if len(to_ref) != len(sections):
        bad("schema sections overlap")
    if to_ref.keys() != g.nodes.keys():
        bad(f"{len(g.nodes) - len(sections)} nodes outside the schema sections")

    first_block, first_cache = n + 1, n + 1 + b
    found = [g.nodes[v] for v in sections]
    bits = [lab and lab.atom for lab in found[1:first_block]]
    if any(x not in (0, 1) for x in bits):
        bad("input node labelled outside {0,1}")
    input_head = to_ref[targets[GREEN]] - 1
    if not 0 <= input_head < n:
        bad("input head edge targets a non-input node")

    active = to_ref[targets[DASHED]] - first_block
    if not 0 <= active < b:
        bad("active block edge targets a non-block node")

    digits = [lab and lab.atom for lab in found[first_cache:]]
    if any(d not in (0, 1, 2) for d in digits):
        bad("cache node labelled outside {0,1,2}")
    offset = to_ref[targets[EMPTY]] - first_cache
    if not 0 <= offset < c:
        bad("cache head edge targets a non-cache node")

    contents = []
    block_strings = _digit_strings(c)
    for i, v in enumerate(blocks):
        if i == active:
            contents.append("".join(str(d) for d in digits))
            continue
        dashed = [e for e in g.out_edges(v) if g.edges[e][2] == DASHED]
        if len(dashed) != 1:
            bad(f"block node {v} has {len(dashed)} dashed out-edges")
        j = to_ref[g.edges[dashed[0]][1]] - first_block
        if not 0 <= j < b:
            bad(f"block node {v} points outside the blockset")
        contents.append(block_strings[j])

    work = "".join(contents).rstrip(str(BLANK))
    s = TMConfiguration(state, "".join(str(x) for x in bits), input_head,
                        work, active * c + offset)

    labels, edges = layout(s, k)
    if found != labels:
        i = next(i for i, lab in enumerate(found) if lab != labels[i])
        bad(f"node {sections[i]} labelled {found[i]}, schema wants {labels[i]}")
    srcs, tgts, labs = zip(*g.edges.values())
    mine = set(zip(map(to_ref.__getitem__, srcs), map(to_ref.__getitem__, tgts), labs))
    # The layout's triples are distinct, so equal counts and equal sets
    # mean equal multisets; Counters only name the difference.
    if len(g.edges) != len(edges) or mine != set(edges):
        mine = Counter((to_ref[s_], to_ref[t], lab) for s_, t, lab in g.edges.values())
        ref = Counter(edges)
        diff = next(iter((mine - ref) or (ref - mine)))
        bad(f"edge structure differs from the schema near {diff}")
    return s, k
