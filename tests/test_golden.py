"""Golden-metrics gate: exact run outputs on a fixed matrix of machines.

For every case the simulator's outputs are pinned in golden_metrics.json:
rule_calls, restarts, peak_graph_space, a sha256 of per_step_rule_calls
and a sha256 of the final graph's text (ids included).  Every case runs in
efficient mode; cases that take under a second in semantic mode run there
too.  Any change to matching, application or the interpreter must leave
all of them bit-identical.

The golden file is regenerated only when an output change is intended:

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from random import Random

import pytest

from conftest import RANDOM_SEED

from minigp import graphs
from minigp.harness import run_sim
from minigp.machines import counter_machine, filler_machine
from util import counter_input, fixture_machine, random_machine_pair, unary

GOLDEN = Path(__file__).with_name("golden_metrics.json")

# Cases too slow for the semantic interpreter inside the tier-1 budget.
EFFICIENT_ONLY = frozenset({"filler-7"})


def cases():
    """(label, machine, input) for every pinned case, in file order."""
    stamp = fixture_machine("stamp")
    out = [(f"stamp-{n}", stamp, unary(n)) for n in range(1, 7)]
    out += [(f"count-{n}", counter_machine(), counter_input(n))
            for n in range(1, 7)]
    out += [(f"filler-{reps}", filler_machine(), unary(reps))
            for reps in (1, 7)]
    rng = Random(RANDOM_SEED)
    for i in range(20):
        m, input = random_machine_pair(rng)
        out.append((f"random-{i}", m, input))
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def observe(m, input: str, mode: str) -> dict:
    """The pinned outputs of one simulator run."""
    mx, _, final = run_sim(m, input, mode=mode)
    return {
        "rule_calls": mx.rule_calls,
        "per_step_rule_calls_sha256":
            digest(",".join(map(str, mx.per_step_rule_calls))),
        "restarts": mx.restarts,
        "peak_graph_space": mx.peak_graph_space,
        "graph_sha256": digest(graphs.to_text(final)),
    }


def _params():
    out = []
    for label, m, input in cases():
        modes = ["efficient"] if label in EFFICIENT_ONLY else \
            ["efficient", "semantic"]
        out += [pytest.param(label, m, input, mode, id=f"{label}-{mode}")
                for mode in modes]
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label, m, input, mode", _params())
def test_golden_metrics(golden, label, m, input, mode):
    assert observe(m, input, mode) == golden[label]


def test_golden_covers_every_case(golden):
    assert list(golden) == [label for label, _, _ in cases()]


def write() -> None:
    """Regenerate the golden file from efficient-mode runs."""
    data = {label: observe(m, input, "efficient")
            for label, m, input in cases()}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    write()
