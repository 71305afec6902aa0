"""Session-wide fixtures shared by the slower end-to-end checks."""

from __future__ import annotations

import time
from random import Random

import pytest

from minigp.harness import lockstep_verify, run_sim
from minigp.machines import counter_machine, filler_machine
from util import (counter_input, fixture_machine, random_machine_pair,
                  random_sweep_pair, unary)

RANDOM_SEED = 20260814


def random_sweep_cases():
    """Seeded (label, machine, input) triples around the sweep skeleton:
    three runs that end at c=3, then three that end at c=4."""
    rng = Random(RANDOM_SEED)
    return [(f"random-sweep-{i}", *random_sweep_pair(rng, c))
            for i, c in enumerate((3, 3, 3, 4, 4, 4))]


@pytest.fixture(scope="session")
def verification_cases():
    """The (label, machine, input) matrix driving the correctness checks."""
    stamp = fixture_machine("stamp")
    cases = [(f"stamp-{n}", stamp, unary(n)) for n in range(1, 7)]
    cases += [(f"count-{n}", counter_machine(), counter_input(n))
              for n in range(1, 9)]
    sweep = fixture_machine("sweep")
    cases += [(f"sweep-{n}", sweep, "0" * n + "1") for n in (20, 45)]
    rng = Random(RANDOM_SEED)
    for i in range(20):
        m, input = random_machine_pair(rng)
        cases.append((f"random-{i}", m, input))
    return cases + random_sweep_cases()


@pytest.fixture(scope="session")
def verify_reports(verification_cases):
    """Lockstep reports for every case, plus the wall time spent."""
    t0 = time.perf_counter()
    reports = {label: lockstep_verify(m, input)
               for label, m, input in verification_cases}
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def filler_metrics():
    """Measured runs of the tape-filler family, plus the wall time spent."""
    m = filler_machine()
    t0 = time.perf_counter()
    metrics = {reps: run_sim(m, unary(reps), max_steps=100_000)[0]
               for reps in (1, 7, 14, 28)}
    return metrics, time.perf_counter() - t0
