"""The two machines the benchmark names: `filler_machine` and
`counter_machine`.

Both are deterministic off-line machines over input alphabet {0,1} and
work alphabet {0,1,2} with 2 as the blank, and equal `fixtures/filler.tm`
and `fixtures/count.tm`.
"""

from __future__ import annotations

from .turing import TuringMachine


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


def filler_machine() -> TuringMachine:
    """Writes 43 ones per input symbol, left to right without pause.

    On an input of m symbols it uses 43*m work squares in as many steps,
    which drives the encoding through restarts at a steady rate.
    """
    period = 43
    delta = {(i, a, 2): (i + 1, 1, "S", "R")
             for i in range(period - 1) for a in (0, 1)}
    delta[(period - 1, 1, 2)] = (0, 1, "R", "R")
    delta[(period - 1, 0, 2)] = (period, 1, "S", "S")
    return TuringMachine(0, period, delta)
