"""Reference machines for verification runs and benchmarks.

All builders return deterministic off-line machines over input alphabet
{0,1} and work alphabet {0,1,2} with 2 as the blank.  `unary` encodes a
number the way these fixtures expect it: n-1 ones followed by a zero.
"""

from __future__ import annotations

from random import Random

from .errors import InputError, RunError
from .turing import TuringMachine, tm_run


def unary(n: int) -> str:
    if n < 1:
        raise InputError("unary arguments start at 1")
    return "1" * (n - 1) + "0"


def empty_machine() -> TuringMachine:
    """Halts immediately: the transition table is empty."""
    return TuringMachine(0, 0, {})


def stamp_machine() -> TuringMachine:
    """Writes one copy of 110 per input symbol; unary(n) yields (110)^n."""
    return TuringMachine(0, 5, {
        (0, 1, 2): (1, 1, "S", "R"),
        (1, 1, 2): (2, 1, "S", "R"),
        (2, 1, 2): (0, 0, "R", "R"),
        (0, 0, 2): (3, 1, "S", "R"),
        (3, 0, 2): (4, 1, "S", "R"),
        (4, 0, 2): (5, 0, "S", "S"),
    })


def counter_machine() -> TuringMachine:
    """Counts through all values of a binary counter seeded from the input.

    Seeds one counter bit per leading input zero and one more when it
    reads a one, where the input head then parks, so any input ending in 1
    works and "1111" degenerates to a one-bit count.  The step count is
    exponential in the seeded width, so space stays far below time.
    """
    return TuringMachine(0, 5, {
        (0, 0, 2): (1, 2, "S", "R"),
        (0, 1, 2): (1, 2, "S", "R"),
        (1, 0, 2): (1, 0, "R", "R"),
        (1, 1, 2): (2, 0, "S", "S"),
        (2, 1, 1): (2, 0, "S", "L"),
        (2, 1, 0): (3, 1, "S", "R"),
        (2, 1, 2): (5, 2, "S", "S"),
        (3, 1, 0): (3, 0, "S", "R"),
        (3, 1, 1): (3, 1, "S", "R"),
        (3, 1, 2): (2, 2, "S", "L"),
    })


def counter_input(length: int) -> str:
    """An input of the given length that seeds a full-width count."""
    if length < 1:
        raise InputError("inputs have at least one symbol")
    return "0" * (length - 1) + "1"


def filler_machine(period: int = 43) -> TuringMachine:
    """Writes `period` ones per input symbol, left to right without pause.

    On unary(m) it uses period*m work squares in as many steps, which
    drives the encoding through restarts at a steady rate.
    """
    delta = {(i, a, 2): (i + 1, 1, "S", "R")
             for i in range(period - 1) for a in (0, 1)}
    delta[(period - 1, 1, 2)] = (0, 1, "R", "R")
    delta[(period - 1, 0, 2)] = (period, 1, "S", "S")
    return TuringMachine(0, period, delta)


def random_machine_pair(rng: Random, max_states: int = 4,
                        max_steps: int = 500) -> tuple[TuringMachine, str]:
    """A well-formed (machine, input) pair that halts within max_steps.

    Draws a partial transition table and rejects anything that underflows a
    head, runs off the input, runs too long, halts in under three steps, or
    uses more than 81 work squares (keeping downstream runs affordable).
    """
    while True:
        n = rng.randint(2, max_states)
        delta = {}
        for q in range(n):
            for a in (0, 1):
                for x in (0, 1, 2):
                    if rng.random() < 0.15:
                        continue
                    delta[(q, a, x)] = (
                        rng.randrange(n),
                        rng.choice((0, 1, 2)),
                        rng.choices("SRL", weights=(6, 3, 1))[0],
                        rng.choices("SRL", weights=(3, 6, 2))[0],
                    )
        m = TuringMachine(0, n - 1, delta)
        input = "".join(rng.choice("01") for _ in range(rng.randint(3, 8)))
        try:
            _, steps, squares = tm_run(m, input, max_steps)
        except RunError:
            continue
        if steps < 3 or squares > 81:
            continue
        return m, input
