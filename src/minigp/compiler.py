"""Compile a Turing machine into a graph program that simulates it.

The generated program drives a configuration graph: transition rules fire at
the central root, cache rules do ternary arithmetic under a red traversal
root, block rules walk a blue traversal root along BLOCKSET, and the restart
rules rebuild the graph one size larger when the encoded tape runs out.
Rule counts grow linearly in the machine's transition table and state set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import BLUE, DASHED, GREEN, GREEN_I, RED, EncodingParams
from .graphs import EMPTY, Graph, Label
from .lang import Loop, Program, parse_program
from .rules import Rule
from .turing import TuringMachine, check_input

MARK_L = Label("L")
MARK_R = Label("R")

BLUE_ROOT = Label(None, "blue")

DIGITS = (0, 1, 2)


LISTING = """\
Main = setup; (Simulate!; try Flag then Restart else break)!
Simulate = Transitions; try MoveLeft; try MoveRight; try Left then PrevBlock; try Right then NextBlock
NextBlock = Encode; try Next then (HeadLeft!; Decode) else (SetFlag; break)
PrevBlock = Encode; Prev; HeadRight!; Decode
Encode = EncodeInit; Encoding!; Update
Encoding = CacheDec; try Finish then break; try next_value
CacheDec = CacheInit; Decrement!; if Unfinished then Reset!
Decrement = try Dec then (Finish; break) else (underflow; try CacheNext else break)
Reset = overflow; try CachePrev else break
Decode = DecodeInit; Decoding!; Update
Decoding = try prev_value else break; CacheInc
CacheInc = CacheInit; Increment!; if Unfinished then (Reset!; Finish)
Increment = try Inc then (Finish; break) else (overflow; try CacheNext else break)
Restart = RewindTapes; ResetCache; ResetBlockset
RewindTapes = try RewindInput; try rewind_blockset; RewindCache!
ResetCache = CInit; Erase!; end
ResetBlockset = binit; try Undirect; (copy; try Undirect)!; glue; direct!; unroot
"""


class _RB:
    """Rule under construction; kept nodes share ids on both sides."""

    def __init__(self, name: str):
        self.name = name
        self.left = Graph()
        self.right = Graph()
        self.interface: dict[int, int] = {}

    def node(self, label: Label, right_label: Label = None, *,
             root: bool = False, right_root: bool = None) -> int:
        if right_label is None:
            right_label = label
        if right_root is None:
            right_root = root
        i = self.left.add_node(label, root=root)
        self.right.add_node(right_label, root=right_root, nid=i)
        self.interface[i] = i
        return i

    def new(self, label: Label, *, root: bool = False) -> int:
        return self.right.add_node(label, root=root)

    def ledge(self, src: int, tgt: int, label: Label) -> None:
        self.left.add_edge(src, tgt, label)

    def redge(self, src: int, tgt: int, label: Label) -> None:
        self.right.add_edge(src, tgt, label)

    def build(self) -> Rule:
        return Rule(self.name, self.left, self.right, self.interface)


def initial_graph(input: str, start: int = 0) -> Graph:
    """Central root plus the INPUT list and both green edges; no tape yet."""
    check_input(input)
    g = Graph()
    central = g.add_node(Label(start), root=True)
    inp = [g.add_node(Label(int(ch))) for ch in input]
    g.add_edge(central, inp[0], GREEN_I)
    g.add_edge(central, inp[0], GREEN)
    for i in range(len(inp) - 1):
        g.add_edge(inp[i], inp[i + 1], RED)
        g.add_edge(inp[i + 1], inp[i], BLUE)
    return g


def _setup(start: int) -> Rule:
    level = EncodingParams(0)
    b, c = level.b, level.c
    r = _RB("setup")
    central = r.node(Label(start), root=True)
    blocks = [r.new(EMPTY) for _ in range(b)]
    cache = [r.new(Label(2)) for _ in range(c)]
    for i in range(b - 1):
        r.redge(blocks[i], blocks[i + 1], RED)
        r.redge(blocks[i + 1], blocks[i], BLUE)
    for i in range(b):
        r.redge(blocks[i], blocks[0] if i == 0 else blocks[b - 1], DASHED)
    r.redge(central, blocks[0], BLUE)
    r.redge(central, blocks[0], DASHED)
    for i in range(c - 1):
        r.redge(cache[i], cache[i + 1], RED)
        r.redge(cache[i + 1], cache[i], BLUE)
    r.redge(central, cache[-1], RED)
    r.redge(central, cache[0], EMPTY)
    return r.build()


def gen_transitions(m: TuringMachine) -> list[Rule]:
    """One rule per delta entry, two when the input head moves (neighbor
    symbol b is matched explicitly).  Work-tape moves only relabel the cache
    head edge to "L"/"R"; later rules resolve the movement."""
    rules = []
    for (q, a, x), (p, y, d1, d2) in sorted(m.delta.items()):
        for b in (None,) if d1 == "S" else (0, 1):
            suffix = "" if b is None else f"_{b}"
            r = _RB(f"t_{q}_{a}_{x}{suffix}")
            central = r.node(Label(q), Label(p), root=True)
            i0 = r.node(Label(a))
            k0 = r.node(Label(x), Label(y))
            r.ledge(central, i0, GREEN)
            r.ledge(central, k0, EMPTY)
            if d1 == "S":
                r.redge(central, i0, GREEN)
            else:
                i1 = r.node(Label(b))
                link = BLUE if d1 == "L" else RED
                r.ledge(i0, i1, link)
                r.redge(i0, i1, link)
                r.redge(central, i1, GREEN)
            r.redge(central, k0, {"S": EMPTY, "L": MARK_L, "R": MARK_R}[d2])
            rules.append(r.build())
    return rules


def _head_step(name: str, q: int, x: int, y: int, head: Label, link: Label) -> Rule:
    """Move the cache head edge one node along `link`, relabelling the head
    edge from `head` back to empty."""
    r = _RB(name)
    central = r.node(Label(q), root=True)
    k0 = r.node(Label(x))
    k1 = r.node(Label(y))
    r.ledge(central, k0, head)
    r.ledge(k0, k1, link)
    r.redge(k0, k1, link)
    r.redge(central, k1, EMPTY)
    return r.build()


def _clear_mark(name: str, q: int, x: int, head: Label) -> Rule:
    r = _RB(name)
    central = r.node(Label(q), root=True)
    k0 = r.node(Label(x))
    r.ledge(central, k0, head)
    r.redge(central, k0, EMPTY)
    return r.build()


def _shift_active(name: str, q: int, link: Label) -> Rule:
    """Move the central dashed edge to the active block's neighbor."""
    r = _RB(name)
    central = r.node(Label(q), root=True)
    a = r.node(EMPTY)
    nbr = r.node(EMPTY)
    r.ledge(central, a, DASHED)
    r.ledge(a, nbr, link)
    r.redge(a, nbr, link)
    r.redge(central, nbr, DASHED)
    return r.build()


def _relabel_root(name: str, before: Label, after: Label, *,
                  unroot: bool = False) -> Rule:
    r = _RB(name)
    r.node(before, after, root=True, right_root=not unroot)
    return r.build()


def _cursor_move(name: str, before: Label, after: Label, link: Label) -> Rule:
    """Hand a traversal root from one node to a link neighbor."""
    r = _RB(name)
    src_plain = Label(before.atom)
    tgt_plain = Label(after.atom)
    n = r.node(before, src_plain, root=True, right_root=False)
    m_ = r.node(tgt_plain, after, right_root=True)
    r.ledge(n, m_, link)
    r.redge(n, m_, link)
    return r.build()


def _encode_init(q: int) -> Rule:
    r = _RB(f"EncodeInit_{q}")
    central = r.node(Label(q), root=True)
    b0 = r.node(EMPTY, BLUE_ROOT, right_root=True)
    r.ledge(central, b0, BLUE)
    r.redge(central, b0, BLUE)
    return r.build()


def _decode_init(q: int) -> list[Rule]:
    out = []
    r = _RB(f"DecodeInit_{q}")
    central = r.node(Label(q), root=True)
    a = r.node(EMPTY)
    t = r.node(EMPTY, BLUE_ROOT, right_root=True)
    r.ledge(central, a, DASHED)
    r.ledge(a, t, DASHED)
    r.redge(central, a, DASHED)
    r.redge(a, t, DASHED)
    out.append(r.build())
    r = _RB(f"DecodeInit_{q}_loop")
    central = r.node(Label(q), root=True)
    a = r.node(EMPTY, BLUE_ROOT, right_root=True)
    r.ledge(central, a, DASHED)
    r.ledge(a, a, DASHED)
    r.redge(central, a, DASHED)
    r.redge(a, a, DASHED)
    out.append(r.build())
    return out


def _update(q: int) -> list[Rule]:
    """Retarget the active block's dashed edge onto the traversal root and
    clear the root; one rule per coincidence pattern of (active, old target,
    root), which injective matching keeps mutually exclusive."""
    out = []

    r = _RB(f"Update_{q}_split")
    central = r.node(Label(q), root=True)
    a = r.node(EMPTY)
    b = r.node(EMPTY)
    t = r.node(BLUE_ROOT, EMPTY, root=True, right_root=False)
    r.ledge(central, a, DASHED)
    r.ledge(a, b, DASHED)
    r.redge(central, a, DASHED)
    r.redge(a, t, DASHED)
    out.append(r.build())

    r = _RB(f"Update_{q}_self")
    central = r.node(Label(q), root=True)
    a = r.node(EMPTY)
    t = r.node(BLUE_ROOT, EMPTY, root=True, right_root=False)
    r.ledge(central, a, DASHED)
    r.ledge(a, a, DASHED)
    r.redge(central, a, DASHED)
    r.redge(a, t, DASHED)
    out.append(r.build())

    r = _RB(f"Update_{q}_stay")
    central = r.node(Label(q), root=True)
    a = r.node(EMPTY)
    t = r.node(BLUE_ROOT, EMPTY, root=True, right_root=False)
    r.ledge(central, a, DASHED)
    r.ledge(a, t, DASHED)
    r.redge(central, a, DASHED)
    r.redge(a, t, DASHED)
    out.append(r.build())

    r = _RB(f"Update_{q}_onto")
    central = r.node(Label(q), root=True)
    a = r.node(BLUE_ROOT, EMPTY, root=True, right_root=False)
    b = r.node(EMPTY)
    r.ledge(central, a, DASHED)
    r.ledge(a, b, DASHED)
    r.redge(central, a, DASHED)
    r.redge(a, a, DASHED)
    out.append(r.build())

    r = _RB(f"Update_{q}_all")
    central = r.node(Label(q), root=True)
    a = r.node(BLUE_ROOT, EMPTY, root=True, right_root=False)
    r.ledge(central, a, DASHED)
    r.ledge(a, a, DASHED)
    r.redge(central, a, DASHED)
    r.redge(a, a, DASHED)
    out.append(r.build())
    return out


def _cache_init(q: int, x: int) -> Rule:
    r = _RB(f"CacheInit_{q}_{x}")
    central = r.node(Label(q), root=True)
    n = r.node(Label(x), Label(x, "red"), right_root=True)
    r.ledge(central, n, RED)
    r.redge(central, n, RED)
    return r.build()


def _rewind_input(start: int, a: int, b: int) -> Rule:
    r = _RB(f"RewindInput_{a}_{b}")
    central = r.node(Label(start), root=True)
    first = r.node(Label(a))
    head = r.node(Label(b))
    r.ledge(central, first, GREEN_I)
    r.ledge(central, head, GREEN)
    r.redge(central, first, GREEN_I)
    r.redge(central, first, GREEN)
    return r.build()


def _rewind_blockset(start: int) -> Rule:
    r = _RB("rewind_blockset")
    central = r.node(Label(start), root=True)
    active = r.node(EMPTY)
    b0 = r.node(EMPTY)
    r.ledge(central, active, DASHED)
    r.ledge(central, b0, BLUE)
    r.redge(central, b0, BLUE)
    r.redge(central, b0, DASHED)
    return r.build()


def _cinit(start: int, x: int) -> Rule:
    r = _RB(f"CInit_{x}")
    central = r.node(Label(start), root=True)
    k0 = r.node(Label(x), Label(2, "red"), right_root=True)
    r.ledge(central, k0, EMPTY)
    r.redge(central, k0, EMPTY)
    return r.build()


def _erase(x: int) -> Rule:
    r = _RB(f"Erase_{x}")
    n = r.node(Label(2, "red"), Label(2), root=True, right_root=False)
    m_ = r.node(Label(x), Label(2, "red"), right_root=True)
    r.ledge(n, m_, RED)
    r.redge(n, m_, RED)
    return r.build()


def _end(start: int) -> Rule:
    r = _RB("end")
    central = r.node(Label(start), root=True)
    old = r.node(Label(2, "red"), Label(2), root=True, right_root=False)
    r.ledge(central, old, RED)
    new = r.new(Label(2))
    r.redge(central, new, RED)
    r.redge(old, new, RED)
    r.redge(new, old, BLUE)
    return r.build()


def _binit(start: int) -> Rule:
    r = _RB("binit")
    central = r.node(Label(start), root=True)
    b0 = r.node(EMPTY, BLUE_ROOT, right_root=True)
    r.ledge(central, b0, BLUE)
    j1 = r.new(Label(1, "blue"), root=True)
    j2 = r.new(Label(2, "blue"), root=True)
    r.redge(central, b0, BLUE)
    r.redge(j1, j2, RED)
    r.redge(j2, j1, BLUE)
    return r.build()


def _undirect() -> list[Rule]:
    out = []
    r = _RB("Undirect_split")
    u = r.node(BLUE_ROOT, root=True)
    v = r.node(EMPTY)
    r.ledge(u, v, DASHED)
    out.append(r.build())
    r = _RB("Undirect_self")
    u = r.node(BLUE_ROOT, root=True)
    r.ledge(u, u, DASHED)
    out.append(r.build())
    return out


def _copy() -> Rule:
    r = _RB("copy")
    u = r.node(BLUE_ROOT, EMPTY, root=True, right_root=False)
    v = r.node(EMPTY, BLUE_ROOT, right_root=True)
    w1 = r.node(Label(1, "blue"), EMPTY, root=True, right_root=False)
    w2 = r.node(Label(2, "blue"), EMPTY, root=True, right_root=False)
    r.ledge(u, v, RED)
    r.redge(u, v, RED)
    n1 = r.new(Label(1, "blue"), root=True)
    n2 = r.new(Label(2, "blue"), root=True)
    r.redge(n1, w1, RED)
    r.redge(w1, n1, BLUE)
    r.redge(w2, n2, RED)
    r.redge(n2, w2, BLUE)
    return r.build()


def _glue() -> Rule:
    r = _RB("glue")
    u = r.node(BLUE_ROOT, EMPTY, root=True, right_root=False)
    w1 = r.node(Label(1, "blue"), EMPTY, root=True, right_root=False)
    w2 = r.node(Label(2, "blue"), root=True)
    p = r.node(EMPTY, EMPTY, right_root=True)
    r.ledge(w2, p, BLUE)
    r.redge(w2, p, BLUE)
    r.redge(u, w1, RED)
    r.redge(w1, u, BLUE)
    r.redge(w2, w2, DASHED)
    return r.build()


def _direct() -> Rule:
    r = _RB("direct")
    m_ = r.node(EMPTY, EMPTY, root=True, right_root=False)
    l_ = r.node(EMPTY, EMPTY, right_root=True)
    f = r.node(Label(2, "blue"), root=True)
    r.ledge(m_, l_, BLUE)
    r.redge(m_, l_, BLUE)
    r.redge(m_, f, DASHED)
    return r.build()


def _unroot() -> Rule:
    r = _RB("unroot")
    m_ = r.node(EMPTY, EMPTY, root=True, right_root=False)
    r.node(Label(2, "blue"), EMPTY, root=True, right_root=False)
    r.redge(m_, m_, DASHED)
    return r.build()


@dataclass
class SimProgram:
    """A compiled simulator: parsed program, its rule library, and the two
    loops the harness hooks into."""

    program: Program
    library: dict[str, list[Rule]]
    simulate_loop: Loop
    outer_loop: Loop


def gen_sim(m: TuringMachine) -> SimProgram:
    """Build the full rule library for machine m and parse the program."""
    q0 = m.start
    states = sorted(m.states)
    lib: dict[str, list[Rule]] = {
        "setup": [_setup(q0)],
        "Transitions": gen_transitions(m),
        "MoveLeft": [_head_step(f"MoveLeft_{q}_{x}_{y}", q, x, y, MARK_L, BLUE)
                     for q in states for x in DIGITS for y in DIGITS],
        "MoveRight": [_head_step(f"MoveRight_{q}_{x}_{y}", q, x, y, MARK_R, RED)
                      for q in states for x in DIGITS for y in DIGITS],
        "Left": [_clear_mark(f"Left_{q}_{x}", q, x, MARK_L)
                 for q in states for x in DIGITS],
        "Right": [_clear_mark(f"Right_{q}_{x}", q, x, MARK_R)
                  for q in states for x in DIGITS],
        "Next": [_shift_active(f"Next_{q}", q, RED) for q in states],
        "Prev": [_shift_active(f"Prev_{q}", q, BLUE) for q in states],
        "SetFlag": [_relabel_root(f"SetFlag_{q}", Label(q), Label(q, "grey"))
                    for q in states],
        "Flag": [_relabel_root(f"Flag_{q}", Label(q, "grey"), Label(q0))
                 for q in states],
        "HeadLeft": [_head_step(f"HeadLeft_{q}_{x}_{y}", q, x, y, EMPTY, BLUE)
                     for q in states for x in DIGITS for y in DIGITS],
        "HeadRight": [_head_step(f"HeadRight_{q}_{x}_{y}", q, x, y, EMPTY, RED)
                      for q in states for x in DIGITS for y in DIGITS],
        "EncodeInit": [_encode_init(q) for q in states],
        "DecodeInit": [r for q in states for r in _decode_init(q)],
        "next_value": [_cursor_move("next_value", BLUE_ROOT, BLUE_ROOT, RED)],
        "prev_value": [_cursor_move("prev_value", BLUE_ROOT, BLUE_ROOT, BLUE)],
        "Update": [r for q in states for r in _update(q)],
        "CacheInit": [_cache_init(q, x) for q in states for x in DIGITS],
        "Dec": [_relabel_root(f"Dec_{x}", Label(x, "red"), Label(x - 1, "red"))
                for x in (1, 2)],
        "Inc": [_relabel_root(f"Inc_{x}", Label(x, "red"), Label(x + 1, "red"))
                for x in (0, 1)],
        "underflow": [_relabel_root("underflow", Label(0, "red"), Label(2, "red"))],
        "overflow": [_relabel_root("overflow", Label(2, "red"), Label(0, "red"))],
        "CacheNext": [_cursor_move(f"CacheNext_{x}_{y}", Label(x, "red"),
                                   Label(y, "red"), BLUE)
                      for x in DIGITS for y in DIGITS],
        "CachePrev": [_cursor_move(f"CachePrev_{x}_{y}", Label(x, "red"),
                                   Label(y, "red"), RED)
                      for x in DIGITS for y in DIGITS],
        "Finish": [_relabel_root(f"Finish_{x}", Label(x, "red"), Label(x),
                                 unroot=True)
                   for x in DIGITS],
        "Unfinished": [_relabel_root(f"Unfinished_{x}", Label(x, "red"),
                                     Label(x, "red"))
                       for x in DIGITS],
        "RewindInput": [_rewind_input(q0, a, b) for a in (0, 1) for b in (0, 1)],
        "rewind_blockset": [_rewind_blockset(q0)],
        "RewindCache": [_head_step(f"RewindCache_{x}_{y}", q0, x, y, EMPTY, BLUE)
                        for x in DIGITS for y in DIGITS],
        "CInit": [_cinit(q0, x) for x in DIGITS],
        "Erase": [_erase(x) for x in DIGITS],
        "end": [_end(q0)],
        "binit": [_binit(q0)],
        "Undirect": _undirect(),
        "copy": [_copy()],
        "glue": [_glue()],
        "direct": [_direct()],
        "unroot": [_unroot()],
    }
    program = parse_program(LISTING, lib)
    outer = program.main[1]
    simulate = outer.body.parts[0]
    return SimProgram(program, lib, simulate, outer)
