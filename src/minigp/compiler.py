"""Compile a Turing machine into a graph program that simulates it.

The generated program drives a configuration graph: transition rules fire at
the central root, cache rules do ternary arithmetic under a red traversal
root, block rules walk a blue traversal root along BLOCKSET, and the restart
rules rebuild the graph one size larger when the encoded tape runs out.
Rule counts grow linearly in the machine's transition table and state set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import BLUE, DASHED, GREEN, GREEN_I, RED, layout, layout_graph
from .graphs import EMPTY, Atom, Graph, Label
from .lang import Loop, Program, parse_program
from .rules import Rule
from .turing import TMConfiguration, TuringMachine, check_input

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

# The restart check sits inside the outer loop so a flagged pass retries
# the whole simulation at the next capacity; an unflagged pass ends the run.
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

    def keep(self, src: int, tgt: int, label: Label) -> None:
        """An edge the rule leaves in place, on both sides."""
        self.ledge(src, tgt, label)
        self.redge(src, tgt, label)

    def build(self) -> Rule:
        return Rule(self.name, self.left, self.right, self.interface)


def initial_graph(input: str, start: int = 0) -> Graph:
    """The central root and the INPUT section of the enc_0 layout of the
    initial configuration, with both green edges; no tape yet."""
    check_input(input)
    labels, edges = layout(TMConfiguration(start, input, 0, "", 0), 0)
    n = len(input)
    return layout_graph(labels[:n + 1],
                        [e for e in edges if e[0] <= n and e[1] <= n])


def _setup(start: int) -> Rule:
    """Add the rest of the enc_0 layout to the central root: the layout of
    a one-symbol input minus its input node 1, later ids one lower."""
    labels, edges = layout(TMConfiguration(start, "0", 0, "", 0), 0)
    r = _RB("setup")
    r.node(labels[0], root=True)
    for lab in labels[2:]:
        r.new(lab)
    for src, tgt, lab in edges:
        if 1 not in (src, tgt):
            r.redge(src - (src > 1), tgt - (tgt > 1), lab)
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
                r.keep(i0, i1, BLUE if d1 == "L" else RED)
                r.redge(central, i1, GREEN)
            r.redge(central, k0, {"S": EMPTY, "L": MARK_L, "R": MARK_R}[d2])
            rules.append(r.build())
    return rules


def _head_step(name: str, q: int, x: Atom, y: Atom, head: Label, link: Label,
               new: Label = EMPTY) -> Rule:
    """Move the central edge `head` one node along `link`, from a node
    labelled x to one labelled y, relabelling it `new`."""
    r = _RB(name)
    central = r.node(Label(q), root=True)
    k0 = r.node(Label(x))
    k1 = r.node(Label(y))
    r.ledge(central, k0, head)
    r.keep(k0, k1, link)
    r.redge(central, k1, new)
    return r.build()


def _clear_mark(name: str, q: int, x: int, head: Label) -> Rule:
    r = _RB(name)
    central = r.node(Label(q), root=True)
    k0 = r.node(Label(x))
    r.ledge(central, k0, head)
    r.redge(central, k0, EMPTY)
    return r.build()


def _relabel_root(name: str, before: Label, after: Label, *,
                  unroot: bool = False) -> Rule:
    r = _RB(name)
    r.node(before, after, root=True, right_root=not unroot)
    return r.build()


def _cursor_move(name: str, before: Label, target: Label, after: Label,
                 link: Label) -> Rule:
    """Hand a traversal root from one node to a link neighbor labelled
    `target`, which the move relabels `after`."""
    r = _RB(name)
    n = r.node(before, Label(before.atom), root=True, right_root=False)
    m_ = r.node(target, after, right_root=True)
    r.keep(n, m_, link)
    return r.build()


def _root_at(name: str, q: int, link: Label, before: Label,
             after: Label) -> Rule:
    """Put a traversal root on the `link` target of central node q,
    relabelling the target from `before` to `after`."""
    r = _RB(name)
    central = r.node(Label(q), root=True)
    r.keep(central, r.node(before, after, right_root=True), link)
    return r.build()


def _decode_init(q: int) -> list[Rule]:
    """Root the active block's dashed target t; t is a separate node or,
    in `_loop`, the active block a itself."""
    out = []
    for suffix, t_is_a in (("", False), ("_loop", True)):
        r = _RB(f"DecodeInit_{q}{suffix}")
        central = r.node(Label(q), root=True)
        a = r.node(EMPTY, BLUE_ROOT if t_is_a else EMPTY, right_root=t_is_a)
        t = a if t_is_a else r.node(EMPTY, BLUE_ROOT, right_root=True)
        r.keep(central, a, DASHED)
        r.keep(a, t, DASHED)
        out.append(r.build())
    return out


# Update's coincidence patterns: the node the old target b is (a, b or t)
# and the node the traversal root t is (a or t).
_UPDATES = (("split", "b", "t"), ("self", "a", "t"), ("stay", "t", "t"),
            ("onto", "b", "a"), ("all", "a", "a"))


def _update(q: int) -> list[Rule]:
    """Retarget the active block's dashed edge onto the traversal root and
    clear the root; one rule per coincidence pattern of (active a, old
    target b, root t), which injective matching keeps mutually exclusive.
    Nodes are created in the order central, a, b, t."""
    out = []
    for name, b_is, t_is in _UPDATES:
        r = _RB(f"Update_{q}_{name}")
        central = r.node(Label(q), root=True)

        def t_node() -> int:
            return r.node(BLUE_ROOT, EMPTY, root=True, right_root=False)

        v = {"a": t_node() if t_is == "a" else r.node(EMPTY)}
        if b_is == "b":
            v["b"] = r.node(EMPTY)
        if t_is == "t":
            v["t"] = t_node()
        r.keep(central, v["a"], DASHED)
        r.ledge(v["a"], v[b_is], DASHED)
        r.redge(v["a"], v[t_is], DASHED)
        out.append(r.build())
    return out


def _rewind_input(start: int, a: int, b: int) -> Rule:
    r = _RB(f"RewindInput_{a}_{b}")
    central = r.node(Label(start), root=True)
    first = r.node(Label(a))
    head = r.node(Label(b))
    r.keep(central, first, GREEN_I)
    r.ledge(central, head, GREEN)
    r.redge(central, first, GREEN)
    return r.build()


def _rewind_blockset(start: int) -> Rule:
    r = _RB("rewind_blockset")
    central = r.node(Label(start), root=True)
    active = r.node(EMPTY)
    b0 = r.node(EMPTY)
    r.ledge(central, active, DASHED)
    r.keep(central, b0, BLUE)
    r.redge(central, b0, DASHED)
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
    r.keep(central, b0, BLUE)
    j1 = r.new(Label(1, "blue"), root=True)
    j2 = r.new(Label(2, "blue"), root=True)
    r.redge(j1, j2, RED)
    r.redge(j2, j1, BLUE)
    return r.build()


def _undirect() -> list[Rule]:
    """Delete the root's dashed out-edge, to another node or a loop."""
    out = []
    for name in ("split", "self"):
        r = _RB(f"Undirect_{name}")
        u = r.node(BLUE_ROOT, root=True)
        r.ledge(u, u if name == "self" else r.node(EMPTY), DASHED)
        out.append(r.build())
    return out


def _copy() -> Rule:
    r = _RB("copy")
    u = r.node(BLUE_ROOT, EMPTY, root=True, right_root=False)
    v = r.node(EMPTY, BLUE_ROOT, right_root=True)
    w1 = r.node(Label(1, "blue"), EMPTY, root=True, right_root=False)
    w2 = r.node(Label(2, "blue"), EMPTY, root=True, right_root=False)
    r.keep(u, v, RED)
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
    r.keep(w2, p, BLUE)
    r.redge(u, w1, RED)
    r.redge(w1, u, BLUE)
    r.redge(w2, w2, DASHED)
    return r.build()


def _direct() -> Rule:
    r = _RB("direct")
    m_ = r.node(EMPTY, EMPTY, root=True, right_root=False)
    l_ = r.node(EMPTY, EMPTY, right_root=True)
    f = r.node(Label(2, "blue"), root=True)
    r.keep(m_, l_, BLUE)
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
        "Next": [_head_step(f"Next_{q}", q, None, None, DASHED, RED, DASHED)
                 for q in states],
        "Prev": [_head_step(f"Prev_{q}", q, None, None, DASHED, BLUE, DASHED)
                 for q in states],
        "SetFlag": [_relabel_root(f"SetFlag_{q}", Label(q), Label(q, "grey"))
                    for q in states],
        "Flag": [_relabel_root(f"Flag_{q}", Label(q, "grey"), Label(q0))
                 for q in states],
        "HeadLeft": [_head_step(f"HeadLeft_{q}_{x}_{y}", q, x, y, EMPTY, BLUE)
                     for q in states for x in DIGITS for y in DIGITS],
        "HeadRight": [_head_step(f"HeadRight_{q}_{x}_{y}", q, x, y, EMPTY, RED)
                      for q in states for x in DIGITS for y in DIGITS],
        "EncodeInit": [_root_at(f"EncodeInit_{q}", q, BLUE, EMPTY, BLUE_ROOT)
                       for q in states],
        "DecodeInit": [r for q in states for r in _decode_init(q)],
        "next_value": [_cursor_move("next_value", BLUE_ROOT, EMPTY, BLUE_ROOT, RED)],
        "prev_value": [_cursor_move("prev_value", BLUE_ROOT, EMPTY, BLUE_ROOT, BLUE)],
        "Update": [r for q in states for r in _update(q)],
        "CacheInit": [_root_at(f"CacheInit_{q}_{x}", q, RED, Label(x),
                               Label(x, "red"))
                      for q in states for x in DIGITS],
        "Dec": [_relabel_root(f"Dec_{x}", Label(x, "red"), Label(x - 1, "red"))
                for x in (1, 2)],
        "Inc": [_relabel_root(f"Inc_{x}", Label(x, "red"), Label(x + 1, "red"))
                for x in (0, 1)],
        "underflow": [_relabel_root("underflow", Label(0, "red"), Label(2, "red"))],
        "overflow": [_relabel_root("overflow", Label(2, "red"), Label(0, "red"))],
        "CacheNext": [_cursor_move(f"CacheNext_{x}_{y}", Label(x, "red"),
                                   Label(y), Label(y, "red"), BLUE)
                      for x in DIGITS for y in DIGITS],
        "CachePrev": [_cursor_move(f"CachePrev_{x}_{y}", Label(x, "red"),
                                   Label(y), Label(y, "red"), RED)
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
        "CInit": [_root_at(f"CInit_{x}", q0, EMPTY, Label(x), Label(2, "red"))
                  for x in DIGITS],
        "Erase": [_cursor_move(f"Erase_{x}", Label(2, "red"), Label(x),
                               Label(2, "red"), RED)
                  for x in DIGITS],
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
