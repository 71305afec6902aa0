"""Stepper and parser checks for the two-tape machines."""

from __future__ import annotations

import pytest

from minigp.turing import (
    BudgetExceeded,
    DuplicateTransition,
    HeadUnderflow,
    InputOverflow,
    ParseError,
    SymbolOutOfRange,
    TMConfiguration,
    TuringMachine,
    initial_configuration,
    parse_tm,
    tm_run,
    tm_step,
)


def machine(*entries, start=0, accept=99):
    delta = {}
    for q, a, x, p, y, d1, d2 in entries:
        delta[(q, a, x)] = (p, y, d1, d2)
    return TuringMachine(start, accept, delta)


class TestStep:
    def test_write_and_stay(self):
        m = machine((0, 1, 2, 1, 0, "S", "S"))
        s = initial_configuration(m, "1")
        nxt = tm_step(m, s)
        assert nxt == TMConfiguration(1, "1", 0, "0", 0)

    def test_halt_returns_none(self):
        m = machine()
        assert tm_step(m, initial_configuration(m, "0")) is None

    def test_moves_both_heads(self):
        m = machine((0, 1, 2, 0, 1, "R", "R"))
        s = tm_step(m, initial_configuration(m, "11"))
        assert (s.input_head, s.work_head) == (1, 1)
        assert s.work == "1"

    def test_blank_write_trims(self):
        m = machine((0, 1, 2, 1, 2, "S", "R"))
        s = tm_step(m, initial_configuration(m, "1"))
        assert s.work == ""
        assert s.work_head == 1
        assert s.work_symbol() == 2

    def test_interior_blank_kept(self):
        m = machine(
            (0, 1, 2, 1, 1, "S", "R"),
            (1, 1, 2, 2, 1, "S", "L"),
            (2, 1, 1, 3, 2, "S", "R"),
        )
        s = initial_configuration(m, "1")
        for _ in range(3):
            s = tm_step(m, s)
        assert s.work == "21"

    def test_work_head_underflow(self):
        m = machine((0, 0, 2, 0, 0, "S", "L"))
        with pytest.raises(HeadUnderflow):
            tm_step(m, initial_configuration(m, "0"))

    def test_input_head_underflow(self):
        m = machine((0, 0, 2, 0, 0, "L", "S"))
        with pytest.raises(HeadUnderflow):
            tm_step(m, initial_configuration(m, "0"))

    def test_input_overflow(self):
        m = machine((0, 0, 2, 0, 0, "R", "S"))
        with pytest.raises(InputOverflow):
            tm_step(m, initial_configuration(m, "0"))

    def test_rejects_nonbinary_input(self):
        m = machine()
        with pytest.raises(ValueError):
            initial_configuration(m, "012")
        with pytest.raises(ValueError):
            initial_configuration(m, "")


class TestRun:
    def test_counts_steps_and_squares(self):
        m = machine(
            (0, 1, 2, 1, 1, "S", "R"),
            (1, 1, 2, 2, 1, "S", "R"),
        )
        final, steps, squares = tm_run(m, "1", 50)
        assert final.state == 2
        assert steps == 2
        assert squares == 3

    def test_immediate_halt(self):
        m = machine()
        final, steps, squares = tm_run(m, "0", 10)
        assert (steps, squares) == (0, 1)

    def test_budget(self):
        m = machine((0, 1, 1, 0, 1, "S", "S"), (0, 1, 2, 0, 1, "S", "S"))
        with pytest.raises(BudgetExceeded):
            tm_run(m, "1", 100)

    def test_squares_track_head_not_just_writes(self):
        m = machine(
            (0, 1, 2, 1, 2, "S", "R"),
            (1, 1, 2, 2, 2, "S", "R"),
        )
        _, _, squares = tm_run(m, "1", 10)
        assert squares == 3


class TestParse:
    TEXT = """\
# two entries
start: 0
accept: 5
0 1 2 -> 1 1 S R
1 0 2 -> 5 2 R S
"""

    def test_round_trip(self):
        m = parse_tm(self.TEXT)
        assert m.start == 0
        assert m.accept == 5
        assert m.delta == {(0, 1, 2): (1, 1, "S", "R"),
                           (1, 0, 2): (5, 2, "R", "S")}

    def test_states(self):
        m = parse_tm(self.TEXT)
        assert m.states == {0, 1, 5}

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_tm("0 1 2 -> 1 1 S R")

    def test_duplicate(self):
        with pytest.raises(DuplicateTransition):
            parse_tm("start: 0\naccept: 1\n0 1 2 -> 1 1 S S\n0 1 2 -> 0 1 S S")

    def test_input_symbol_range(self):
        with pytest.raises(SymbolOutOfRange):
            parse_tm("start: 0\naccept: 1\n0 2 2 -> 1 1 S S")

    def test_work_symbol_range(self):
        with pytest.raises(SymbolOutOfRange):
            parse_tm("start: 0\naccept: 1\n0 1 3 -> 1 1 S S")

    def test_bad_move(self):
        with pytest.raises(ParseError):
            parse_tm("start: 0\naccept: 1\n0 1 2 -> 1 1 X S")

    def test_bad_shape(self):
        with pytest.raises(ParseError):
            parse_tm("start: 0\naccept: 1\n0 1 -> 1 1 S S")
        with pytest.raises(ParseError):
            parse_tm("start: 0\naccept: 1\nnot a rule")

    @pytest.mark.parametrize("text, where", [
        ("start: x\naccept: 1\n", "line 1: start"),
        ("# comment\nstart: 0\naccept: 1.5\n", "line 3: accept"),
    ], ids=["start", "accept"])
    def test_non_integer_header(self, text, where):
        with pytest.raises(ParseError, match=where):
            parse_tm(text)

    @pytest.mark.parametrize("text, where", [
        ("start: 0\nstart: 5\naccept: 1\n", "line 2: repeated start"),
        ("start: 0\naccept: 1\n0 1 2 -> 1 1 S S\naccept: 0\n",
         "line 4: repeated accept"),
    ], ids=["start", "accept"])
    def test_repeated_header(self, text, where):
        """A second header is an error, as a second transition is."""
        with pytest.raises(ParseError, match=where):
            parse_tm(text)
