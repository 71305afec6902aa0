"""Tests of the benchmark itself; run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import run
from tracer import Spans, Tracer, level, summarize

run.load_minigp()

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Small versions of the three workloads, with their pinned outputs.
SMOKE = [
    run.Workload("smoke-filler-efficient", "filler_machine", "0",
                 "efficient", False,
                 {"rule_calls": 7131, "restarts": 1, "peak_graph_space": 121,
                  "steps": 60,
                  "graph_sha256": "a1ed89042337b226620cf55a4cd3b710"
                                  "4bbf1aa46bdaab1df0b4bdef2e1a330d"}),
    run.Workload("smoke-counter-lockstep", "counter_machine", "001",
                 "efficient", True,
                 {"rule_calls": 2269, "restarts": 0, "peak_graph_space": 52,
                  "steps": 30,
                  "graph_sha256": "58f49ff3879d70c2337b6199b3c9a021"
                                  "4126927a6b540de56406307f0b6625db"}),
    run.Workload("smoke-filler-semantic", "filler_machine", "0",
                 "semantic", False,
                 {"rule_calls": 7131, "restarts": 1, "peak_graph_space": 121,
                  "steps": 60,
                  "graph_sha256": "a1ed89042337b226620cf55a4cd3b710"
                                  "4bbf1aa46bdaab1df0b4bdef2e1a330d"}),
]


def test_benchmark_json_names_what_run_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.PER_LAYER


def test_tracer_restores_originals():
    targets = run.targets()
    originals = [vars(t.owner)[t.attr] for t in targets]
    with pytest.raises(RuntimeError):
        with Tracer(targets):
            for t, orig in zip(targets, originals):
                assert vars(t.owner)[t.attr] is not orig
            raise RuntimeError("leave the block early")
    for t, orig in zip(targets, originals):
        assert vars(t.owner)[t.attr] is orig, t.label


@pytest.mark.parametrize("w", SMOKE, ids=lambda w: w.name)
def test_traced_run_reproduces_pins(w):
    ref = run.Reference(w)
    tracer = Tracer(run.targets())
    with tracer:
        traced = run.call(w, ref)
    run.check(w, ref, traced)
    assert traced.failures == []
    assert traced.outputs == w.pins
    layers = summarize(tracer.spans)
    assert layers["rules.apply_ruleset"].calls == w.pins["rule_calls"]
    copies = layers["graphs.Graph.copy"].calls
    assert (copies > 0) == (w.mode == "semantic")


def test_self_time_on_hand_built_tree():
    spans = Spans(["root", "a", "b"])
    root = spans.add(0, -1, 0.0, 10.0)
    a = spans.add(1, root, 1.0, 4.0, nodes=22)
    spans.add(2, a, 2.0, 3.0, nodes=41)
    spans.add(2, root, 5.0, 9.0, nodes=26)
    assert spans.self_times() == [3.0, 2.0, 1.0, 4.0]
    layers = summarize(spans)
    assert layers["root"].own == 3.0
    assert (layers["b"].calls, layers["b"].total, layers["b"].own) == (2, 5.0,
                                                                        5.0)
    assert layers["b"].level_calls == {2: 1, 3: 1}
    assert layers["b"].level_total == {2: 4.0, 3: 1.0}
    assert layers["b"].by_parent == {"a": 1.0, "root": 4.0}


def test_level_follows_block_count():
    assert [level(n) for n in (9, 22, 26, 27, 41, 96, 259)] == \
        [2, 2, 2, 3, 3, 4, 5]


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(trace):
    t0 = time.perf_counter()
    for w in SMOKE:
        result, lines, _, spans = run.measure(w, 0.01, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        table = run.PER_LAYER if trace else run.END_TO_END
        assert {k: v["unit"] for k, v in result["metrics"].items()} == table
        assert all(math.isfinite(v["value"])
                   for v in result["metrics"].values())
        assert (spans is not None) == trace
        assert lines[-1].startswith("fail_ratio 0 ")
    assert time.perf_counter() - t0 < 60


def test_pin_mismatch_counts_as_failure():
    w = SMOKE[1]
    wrong = run.Workload(w.name, w.machine, w.input, w.mode, w.lockstep,
                         {**w.pins, "rule_calls": w.pins["rule_calls"] + 1})
    result, _, samples, _ = run.measure(wrong, 0.01, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == len(samples)
    assert "rule_calls: got 2269, pinned 2270" in samples[0].failures


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "counter-lockstep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
