"""Deterministic machines with a read-only binary input tape and one
read-write working tape over {0,1,2}, blank = 2."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InputError, ParseError, RunError

Move = str  # "L" | "R" | "S"

BLANK = 2


class DuplicateTransition(ParseError):
    pass


class SymbolOutOfRange(ParseError):
    pass


class HeadUnderflow(RunError):
    """A head stepped left of square 0: the machine is ill-formed."""


class InputOverflow(RunError):
    """The input head stepped past the last input square."""


class BudgetExceeded(RunError):
    """A run used up its budget: machine steps in `tm_run`, rule calls in
    the graph-program interpreter (`minigp.lang` re-exports this class)."""


@dataclass(frozen=True)
class TuringMachine:
    """The first run of a machine stores its compiled simulator program on
    it, so a machine must not change after its first run."""

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


def check_input(input: str) -> None:
    """Reject anything but a nonempty string over 0/1."""
    if not input or set(input) - {"0", "1"}:
        raise InputError(f"input must be a nonempty string over 0/1, got {input!r}")


def initial_configuration(m: TuringMachine, input: str) -> TMConfiguration:
    check_input(input)
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
    if max_steps < 0:
        raise InputError(f"step budget must be nonnegative, got {max_steps}")
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
    states: dict[str, int] = {}
    delta: dict[tuple[int, int, int], tuple[int, int, Move, Move]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header, colon, value = line.partition(":")
        if colon and header in ("start", "accept"):
            if header in states:
                raise ParseError(f"line {lineno}: repeated {header}: header")
            try:
                states[header] = int(value)
            except ValueError:
                raise ParseError(f"line {lineno}: {header} state must be an "
                                 f"integer, got {value.strip()!r}") from None
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
    if "start" not in states or "accept" not in states:
        raise ParseError("missing start: or accept: header")
    return TuringMachine(states["start"], states["accept"], delta)

