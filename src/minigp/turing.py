"""Deterministic machines with a read-only binary input tape and one
read-write working tape over {0,1,2}, blank = 2."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

Move = str  # "L" | "R" | "S"

BLANK = 2


class TMError(Exception):
    pass


class ParseError(TMError):
    pass


class DuplicateTransition(ParseError):
    pass


class SymbolOutOfRange(ParseError):
    pass


class HeadUnderflow(TMError):
    """A head stepped left of square 0: the machine is ill-formed."""


class InputOverflow(TMError):
    """The input head stepped past the last input square."""


class BudgetExceeded(TMError):
    """A run used up its budget: machine steps in `tm_run`, rule calls in
    the graph-program interpreter (`minigp.lang` re-exports this class)."""


@dataclass(frozen=True)
class TuringMachine:
    start: int
    accept: int
    delta: dict[tuple[int, int, int], tuple[int, int, Move, Move]]

    @property
    def states(self) -> set[int]:
        out = {self.start, self.accept}
        for (q, _, _), (p, _, _, _) in self.delta.items():
            out |= {q, p}
        return out


@dataclass(frozen=True)
class TMConfiguration:
    """Full machine state; work holds the tape up to the last nonblank square."""

    state: int
    input: str
    input_head: int
    work: str
    work_head: int

    def work_symbol(self) -> int:
        if self.work_head < len(self.work):
            return int(self.work[self.work_head])
        return BLANK

    def squares_in_use(self) -> int:
        return max(self.work_head + 1, len(self.work))


def initial_configuration(m: TuringMachine, input: str) -> TMConfiguration:
    if not input or set(input) - {"0", "1"}:
        raise ValueError(f"input must be a nonempty binary string, got {input!r}")
    return TMConfiguration(m.start, input, 0, "", 0)


def _trim(work: str) -> str:
    return work.rstrip(str(BLANK))


def tm_step(m: TuringMachine, s: TMConfiguration) -> Optional[TMConfiguration]:
    """One transition, or None if delta is undefined (the machine halts)."""
    a = int(s.input[s.input_head])
    x = s.work_symbol()
    entry = m.delta.get((s.state, a, x))
    if entry is None:
        return None
    p, y, d1, d2 = entry
    ih = s.input_head + {"L": -1, "R": 1, "S": 0}[d1]
    if ih < 0:
        raise HeadUnderflow(f"input head left of 0 in state {s.state}")
    if ih >= len(s.input):
        raise InputOverflow(f"input head past square {len(s.input) - 1}")
    work = s.work
    if s.work_head >= len(work):
        work = work + str(BLANK) * (s.work_head - len(work) + 1)
    work = work[:s.work_head] + str(y) + work[s.work_head + 1:]
    wh = s.work_head + {"L": -1, "R": 1, "S": 0}[d2]
    if wh < 0:
        raise HeadUnderflow(f"work head left of 0 in state {s.state}")
    return TMConfiguration(p, s.input, ih, _trim(work), wh)


def tm_run(m: TuringMachine, input: str, max_steps: int) -> tuple[TMConfiguration, int, int]:
    """Run to halt; returns (final configuration, steps taken, squares used)."""
    s = initial_configuration(m, input)
    squares = s.squares_in_use()
    for steps in range(max_steps + 1):
        nxt = tm_step(m, s)
        if nxt is None:
            return s, steps, squares
        s = nxt
        squares = max(squares, s.squares_in_use())
    raise BudgetExceeded(f"no halt within {max_steps} steps")


def parse_tm(text: str) -> TuringMachine:
    """Parse `start:`/`accept:` headers plus `q a x -> p y D1 D2` lines."""
    start = accept = None
    delta: dict[tuple[int, int, int], tuple[int, int, Move, Move]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("start:"):
            start = int(line.split(":", 1)[1])
            continue
        if line.startswith("accept:"):
            accept = int(line.split(":", 1)[1])
            continue
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise ParseError(f"line {lineno}: expected '->' in {line!r}")
        try:
            q, a, x = (int(t) for t in lhs.split())
            p, y, d1, d2 = rhs.split()
            p, y = int(p), int(y)
        except ValueError:
            raise ParseError(f"line {lineno}: cannot parse {line!r}") from None
        if a not in (0, 1):
            raise SymbolOutOfRange(f"line {lineno}: input symbol {a} not in {{0,1}}")
        if x not in (0, 1, 2) or y not in (0, 1, 2):
            raise SymbolOutOfRange(f"line {lineno}: work symbol not in {{0,1,2}}")
        if d1 not in ("L", "R", "S") or d2 not in ("L", "R", "S"):
            raise ParseError(f"line {lineno}: bad move in {line!r}")
        if (q, a, x) in delta:
            raise DuplicateTransition(f"line {lineno}: duplicate for ({q},{a},{x})")
        delta[(q, a, x)] = (p, y, d1, d2)
    if start is None or accept is None:
        raise ParseError("missing start: or accept: header")
    return TuringMachine(start, accept, delta)


def tm_to_text(m: TuringMachine) -> str:
    lines = [f"start: {m.start}", f"accept: {m.accept}"]
    for (q, a, x), (p, y, d1, d2) in sorted(m.delta.items()):
        lines.append(f"{q} {a} {x} -> {p} {y} {d1} {d2}")
    return "\n".join(lines) + "\n"
