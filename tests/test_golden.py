"""Golden-metrics gate: exact run outputs on a fixed matrix of machines.

For every case the simulator's outputs are pinned in golden_metrics.json:
rule_calls, restarts, peak_graph_space, a sha256 of per_step_rule_calls,
a sha256 of the final graph's text (ids included) and a sha256 of the
decoded configuration stream: one line per completed step, replays after a
restart included.  Every case runs in efficient mode; cases that take
under a second in semantic mode run there too.  Any change to matching,
application or the interpreter must leave all of them bit-identical.

The `minigp gen` text of each random machine is pinned as well, so a
change to the compiler must leave the generated program byte-identical
on machines beyond the fixtures.

The golden file is regenerated only when an output change is intended:

    PYTHONPATH=src python3 tests/test_golden.py --write

which prints the labels it added, changed and removed against the file it
replaces.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from random import Random

import pytest

from conftest import RANDOM_SEED, random_sweep_cases

from minigp import graphs
from minigp.cli import main
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
    # The sweep machine climbs to c=3 and c=4 and then crosses blocks leftward.
    sweep = fixture_machine("sweep")
    out += [(f"sweep-{n}", sweep, "0" * n + "1") for n in (20, 45)]
    rng = Random(RANDOM_SEED)
    for i in range(20):
        m, input = random_machine_pair(rng)
        out.append((f"random-{i}", m, input))
    # Random machines around the sweep skeleton reach c=3 and c=4.
    return out + random_sweep_cases()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def observe(m, input: str, mode: str) -> dict:
    """The pinned outputs of one simulator run."""
    steps = []
    mx, _, final = run_sim(m, input, mode=mode,
                           trace=lambda i, s: steps.append(f"{i} {s!r}\n"))
    return {
        "rule_calls": mx.rule_calls,
        "per_step_rule_calls_sha256":
            digest(",".join(map(str, mx.per_step_rule_calls))),
        "restarts": mx.restarts,
        "peak_graph_space": mx.peak_graph_space,
        "graph_sha256": digest(graphs.to_text(final)),
        "decoded_sha256": digest("".join(steps)),
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


# sha256 of the `minigp gen` output for each random machine.
GEN_SHA256 = {
    "random-0": "1743b73ac5e6dd25a050108e9e823efaa0f2cbc307f5fed0a86322aa35900eaa",
    "random-1": "a7f3791905a5e4eaa729dd8d5ff05d5b007e80fd79fed4d970345cc35a00d0bf",
    "random-2": "a312f1c959f321a596f3941e0b5555b876f8dea4e57e051e610ef9eded946dbe",
    "random-3": "e552db2987054ee0953d37224285c873a49e912ddf179d47e32fe17982f3e051",
    "random-4": "be8f40cfab966f684d829f667636effa6d5145c692878d5738349462b2540943",
    "random-5": "a0819802fcf00ef79c1cf805c2f02ab9ad52e2ddf6f71f877bf5faac559801d2",
    "random-6": "f98c78dc7bbfb2f5c33423300f9e388c19a745ded174658d206d894db0f5e1ec",
    "random-7": "481f52bb24245605d3cdecf37417ef4a01ecabeab945a601ffe5bc2292c82a67",
    "random-8": "20a5c41882df04a34f8f162fc5b91692f4a8f978d6b4aa95fb51c5f90ea4beae",
    "random-9": "7addbad534c3dfd1d68ad77fc090e27603449d6b4644402c39dba55e21dc37bc",
    "random-10": "b3223aa665a576504421de8e015ed5546ebf0f55f7829097f6171b2d9a6363a8",
    "random-11": "e50ad8cab3aabaf619760ccc7587fe40ac569fd77c084a66837d9552d8fa0e83",
    "random-12": "fee8d4bf20c1d9c66dd1de86e50afb1a67b90abaca4f98cd3610fbf1f230cf83",
    "random-13": "7dfdec01480a151e6299002021ab5454b4dc61c91a0a9ec986fee4106fff52f9",
    "random-14": "68d09f8c28c56b0c763937d5b03ccea07de4985889acc1e76ee4e21107f97212",
    "random-15": "9d7f3afcdda22bde8a4db16aaca9b639aff671a8ab6ffde81e1280f63126570c",
    "random-16": "6914be37342b59dd34e4070cc2dd13374554dd003bbd1925603e58a93d215d1a",
    "random-17": "b5b4f1345e37d41a3381dbfca62cb8368d090b078febfb94f206062196bafb5e",
    "random-18": "d64b3b3953083bf53911cbd406743bad666b846ca4fe2ae23164c1d8ad37d5f2",
    "random-19": "0846d3448a3801b8cda1808110d64b8fefc0ba8f7d47f23f7d5bf4739dc17880",
    "random-sweep-0": "27baea1bdd10e80f301414ce899dd9e451e78379227a04a041dab01f8287c011",
    "random-sweep-1": "68addf7447edaad58ca1dfc5a4d920f26e9316ae9ca5ff8cdd048fd5e2376698",
    "random-sweep-2": "72100e9d1083d429428ce37c0ee4102684cf124ed16d7cc23a02d1a92f81ac64",
    "random-sweep-3": "d17934ee58affe1ef47dd9646760feccb13e9c5741252d828af0a8467ca0d0bc",
    "random-sweep-4": "e53bb76f9bced4ac9062d13c3241e85d27b9ba8a42f81f9bea9943de50aaca54",
    "random-sweep-5": "9c4420446d78db9ab98de5539f918e9bd4aa065540649d5d7b5b5a5f78feab86",
}


def tm_text(m) -> str:
    """m in the `.tm` file format `minigp` reads."""
    lines = [f"start: {m.start}", f"accept: {m.accept}"]
    lines += [f"{q} {a} {x} -> {p} {y} {d1} {d2}"
              for (q, a, x), (p, y, d1, d2) in sorted(m.delta.items())]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "label, m", [pytest.param(label, m, id=label) for label, m, _ in cases()
                 if label in GEN_SHA256])
def test_gen_pinned(tmp_path, capsys, label, m):
    path = tmp_path / f"{label}.tm"
    path.write_text(tm_text(m))
    assert main(["gen", str(path)]) == 0
    assert digest(capsys.readouterr().out) == GEN_SHA256[label]


def changes(old: dict, new: dict) -> list[str]:
    """One line each for the labels new adds to old, changes and removes."""
    groups = (("added", [k for k in new if k not in old]),
              ("changed", [k for k in new if k in old and new[k] != old[k]]),
              ("removed", [k for k in old if k not in new]))
    return [f"{verb}: {' '.join(labels) or '-'}" for verb, labels in groups]


def test_changes_names_every_label():
    old = {"a": {"x": 1}, "b": {"x": 2}, "c": {"x": 3}}
    new = {"a": {"x": 1}, "b": {"x": 5}, "d": {"x": 4}, "e": {"x": 6}}
    assert changes(old, new) == ["added: d e", "changed: b", "removed: c"]
    assert changes(old, old) == ["added: -", "changed: -", "removed: -"]


def write() -> None:
    """Regenerate the golden file from efficient-mode runs and print what
    changed against the file it replaces."""
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    data = {label: observe(m, input, "efficient")
            for label, m, input in cases()}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")
    print("\n".join(changes(old, data)))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    write()
