"""Benchmark of the compiled Turing-machine simulator.

    python3 perfbench/run.py --workload filler-efficient --seed 1 \
        --seconds 36 --trace 0

Runs one workload through the public library API (`run_sim` or
`lockstep_verify`) and checks every run against pinned outputs and the
reference machine.  With `--trace 0` it times fresh set-ups, then repeats
the call for the rest of `--seconds` and reports end-to-end metrics.  With
`--trace 1` it makes one traced call, which records spans around the
package's layers from outside, then untraced calls for the rest of
`--seconds` to give the tracing overhead, and reports per-layer metrics.  The last line of standard output
is one JSON object; the lines before it give every metric by name with its
unit and sample count.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from tracer import Spans, Target, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh processes timed per run for setup_s.
SETUP_SAMPLES = 15


@dataclass(frozen=True)
class Workload:
    """One fixed input for the simulator, with the outputs it must give.

    machine names a function of minigp.machines.  pins holds rule_calls,
    restarts, peak_graph_space, steps (simulated steps, replays included)
    and graph_sha256 (of graphs.to_text of the final graph).
    """

    name: str
    machine: str
    input: str
    mode: str
    lockstep: bool
    pins: dict[str, Any]


WORKLOADS = {w.name: w for w in (
    # Climbs c=2..5 (b=9..243) with 3 restarts; matching, the rule-set
    # scan and apply dominate, and block crossings cost O(b).
    Workload("filler-efficient", "filler_machine", "1" * 9 + "0",  # unary(10)
             "efficient", False,
             {"rule_calls": 413_778, "restarts": 3, "peak_graph_space": 1018,
              "steps": 850,
              "graph_sha256": "169a5b671944293294b76ef70adc85c9"
                              "6ec1298e45b94d71e5f26b355b336943"}),
    # Stays at c=2 (b=9): per-call costs and the verification path
    # (dec and tm_step after every step) dominate.
    Workload("counter-lockstep", "counter_machine",
             "0" * 9 + "1", "efficient", True,  # counter_input(10)
             {"rule_calls": 108_267, "restarts": 0, "peak_graph_space": 73,
              "steps": 4094,
              "graph_sha256": "8e31232b6a93d3cc9e605469388a2bc4"
                              "cc375d953bbe67ac1a25a4955666d426"}),
    # Semantic mode snapshots the graph before every condition and loop
    # iteration, so Graph.copy takes a large share of the run.
    Workload("filler-semantic", "filler_machine", "1" * 3 + "0",  # unary(4)
             "semantic", False,
             {"rule_calls": 63_336, "restarts": 2, "peak_graph_space": 349,
              "steps": 269,
              "graph_sha256": "e4b58123271f6ca8a88d0647d5d213f8"
                              "1c2d5d014ff67e3fecae73f811f30aa0"}),
)}

END_TO_END = {"run_s": "s", "us_per_rule_call": "us", "us_per_step": "us",
              "setup_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER = {
    "matching.match_all.us_per_call": "us",
    **{f"matching.match_all.us_per_call.c{c}": "us" for c in range(2, 6)},
    "matching.match_all.calls_per_rule_call": "calls/rule_call",
    "matching.match_all.extensions_per_call": "ext/call",
    "matching.match_all.hit_ratio": "ratio",
    "rules.RuleSet.candidates.us_per_call": "us",
    "rules.RuleSet.candidates.rules_per_call": "rules/call",
    "rules.apply_ruleset.self_us_per_call": "us",
    "rules.apply_ruleset.applied_ratio": "ratio",
    "rules.dangling_ok.us_per_call": "us",
    "rules.apply.us_per_call": "us",
    **{f"rules.apply.us_per_call.c{c}": "us" for c in range(2, 6)},
    "graphs.Graph.copy.calls_per_rule_call": "calls/rule_call",
    "graphs.Graph.copy.us_per_call": "us",
    **{f"graphs.Graph.copy.us_per_call.c{c}": "us" for c in range(2, 5)},
    "graphs.Graph.copy.items_per_call": "items/call",
    "lang.snapshot.share": "ratio",
    "lang.Interp.run.self_us_per_rule_call": "us",
    "lang.rule_calls": "count",
    "lang.rule_calls.failed_ratio": "ratio",
    "lang.restarts": "count",
    "harness.replayed_step_ratio": "ratio",
    "encoding.dec.calls": "count",
    "encoding.dec.us_per_call": "us",
    "encoding.enc.us_per_call": "us",
    "turing.tm_step.us_per_call": "us",
    "turing.tm_run.s": "s",
    "compiler.gen_sim.s": "s",
    "compiler.rules": "count",
    **{f"{mod}.self_s": "s" for mod in ("graphs", "matching", "rules", "lang",
                                        "encoding", "turing", "compiler",
                                        "harness")},
    "trace.overhead_ratio": "ratio",
}


def load_minigp() -> None:
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "minigp" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no minigp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import minigp
    if Path(minigp.__file__).resolve().parent != SRC / "minigp":
        raise SystemExit(f"run.py: imported minigp from {minigp.__file__}")


@dataclass
class Sample:
    """One call of the library: its wall time, outputs and failures, and
    the final graph until `check` has used it."""

    seconds: float
    outputs: dict[str, Any] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    step_times: list[float] = field(default_factory=list)
    graph: Any = None


class CaptureRuns:
    """Keeps (interpreter, result) of every `Interp.run` while active.

    `lockstep_verify` returns only its report, so this is how the
    benchmark sees the final graph and the interpreter's counters.  It
    adds one wrapper call per run, not per step.
    """

    def __enter__(self) -> list:
        from minigp.lang import Interp
        self.original = vars(Interp)["run"]
        runs: list = []
        original = self.original

        def run(interp, *args, **kwargs):
            out = original(interp, *args, **kwargs)
            runs.append((interp, out))
            return out

        Interp.run = run
        return runs

    def __exit__(self, *exc) -> None:
        from minigp.lang import Interp
        Interp.run = self.original


class Reference:
    """What the reference machine says about a workload's input."""

    def __init__(self, w: Workload):
        from minigp import machines, turing
        self.machine = getattr(machines, w.machine)()
        self.final, self.tm_steps, _ = turing.tm_run(self.machine, w.input,
                                                     10_000)


def call(w: Workload, ref: Reference) -> Sample:
    """Run the workload once through the public API; `check` the result
    afterwards, outside any tracer."""
    from minigp import harness
    clock = time.perf_counter
    try:
        if w.lockstep:
            stamps: list[float] = []
            with CaptureRuns() as runs:
                t0 = clock()
                rep = harness.lockstep_verify(
                    ref.machine, w.input, mode=w.mode,
                    trace=lambda _n, _cfg: stamps.append(clock()))
                seconds = clock() - t0
            s = Sample(seconds, step_times=[b - a for a, b
                                            in zip(stamps, stamps[1:])])
            if not rep.ok:
                s.failures.append(f"lockstep report not ok: {rep.errors}")
            if rep.final_config != ref.final:
                s.failures.append("lockstep final configuration differs "
                                  "from tm_run")
            if len(runs) != 1:
                s.failures.append(f"expected one interpreter run, saw "
                                  f"{len(runs)}")
                return s
            interp, cfg = runs[0]
            s.graph = getattr(cfg, "graph", None)
            s.outputs = {"rule_calls": interp.stats.rule_calls,
                         "restarts": rep.restarts,
                         "peak_graph_space": interp.stats.peak_graph_space,
                         "steps": rep.steps_checked}
        else:
            t0 = clock()
            mx, _, graph = harness.run_sim(ref.machine, w.input, mode=w.mode)
            s = Sample(clock() - t0, graph=graph)
            s.outputs = {"rule_calls": mx.rule_calls, "restarts": mx.restarts,
                         "peak_graph_space": mx.peak_graph_space,
                         "steps": len(mx.per_step_rule_calls)}
    except Exception:
        return Sample(0.0, failures=[traceback.format_exc()])
    return s


def check(w: Workload, ref: Reference, s: Sample) -> Sample:
    """Compare a sample's outputs and final graph with the pins."""
    from minigp import encoding, graphs
    graph, s.graph = s.graph, None
    if s.failures:
        return s
    if graph is None:
        s.failures.append("no final graph")
        return s
    s.outputs["graph_sha256"] = hashlib.sha256(
        graphs.to_text(graph).encode()).hexdigest()
    for key, want in w.pins.items():
        if s.outputs.get(key) != want:
            s.failures.append(f"{key}: got {s.outputs.get(key)!r}, "
                              f"pinned {want!r}")
    try:
        decoded, _ = encoding.dec(graph)
    except encoding.MalformedConfigGraph as e:
        s.failures.append(f"final graph does not decode: {e}")
        return s
    if decoded != ref.final:
        s.failures.append("decoded final graph differs from tm_run")
    return s


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import minigp.harness, minigp.machines
minigp.harness.gen_sim(getattr(minigp.machines, sys.argv[2])())
print(time.perf_counter() - t0)
"""


def setup_seconds(w: Workload) -> float:
    """A fresh process imports minigp and compiles the workload's machine;
    returns the time it measured from before the import."""
    out = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC),
                          w.machine], capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout)


def repeat(w: Workload, ref: Reference, samples: list[Sample],
           t_end: float) -> None:
    """Append checked calls, at least one, while the next call, judged by
    the last, would end before t_end."""
    while True:
        samples.append(check(w, ref, call(w, ref)))
        if time.perf_counter() + samples[-1].seconds > t_end:
            return


def run_untraced(w: Workload, ref: Reference, seconds: float,
                 lines: list[str]) -> tuple[list[Sample], dict]:
    """Time fresh set-ups, then repeat the workload for the rest of
    `seconds`; return samples and end-to-end metrics."""
    t_end = time.perf_counter() + seconds
    setups = [setup_seconds(w) for _ in range(SETUP_SAMPLES)]
    samples: list[Sample] = []
    repeat(w, ref, samples, t_end)
    good = [s.seconds for s in samples if not s.failures] or [0.0]
    run_s = statistics.median(good)
    values = {
        "run_s": run_s,
        "us_per_rule_call": run_s / w.pins["rule_calls"] * 1e6,
        "us_per_step": run_s / w.pins["steps"] * 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    counts = {"setup_s": f"median of {len(setups)}", "peak_rss_mib": "peak"}
    for name, value in values.items():
        lines.append(f"{name} {value:.6g} {END_TO_END[name]} "
                     f"({counts.get(name, f'median of {len(good)}')})")
    timed = [s.step_times for s in samples if len(s.step_times) > 1]
    steps = [statistics.quantiles(t, n=100) for t in timed]
    if steps:
        for q, name in ((50, "step_us_p50"), (99, "step_us_p99")):
            v = statistics.median(cuts[q - 1] for cuts in steps) * 1e6
            lines.append(f"{name} {v:.6g} us (median over {len(steps)} calls"
                         f" of {len(timed[0])} steps each)")
    return samples, {k: {"value": v, "unit": END_TO_END[k]}
                     for k, v in values.items()}


def targets() -> list[Target]:
    """The traced names, each patched where its callers look it up."""
    from minigp import encoding, harness, lang, rules
    from minigp.graphs import Graph
    from minigp.lang import Interp
    from minigp.rules import RuleSet
    return [
        Target("harness.run_sim", harness, "run_sim"),
        Target("harness.lockstep_verify", harness, "lockstep_verify"),
        Target("compiler.gen_sim", harness, "gen_sim",
               extract=lambda out: (sum(map(len, out.library.values())), 0)),
        Target("turing.tm_run", harness, "tm_run"),
        Target("turing.tm_step", harness, "tm_step"),
        Target("encoding.dec", harness, "dec", 0),
        Target("encoding.enc", encoding, "enc"),
        Target("lang.Interp.run", Interp, "run"),
        Target("rules.apply_ruleset", lang, "apply_ruleset", 0,
               lambda out: (int(out.applied), 0)),
        Target("rules.RuleSet.candidates", RuleSet, "candidates", 1,
               lambda out: (len(out), 0)),
        Target("matching.match_all", rules, "match_all", 1,
               lambda out: (out.extensions, int(bool(out.matches)))),
        Target("rules.dangling_ok", rules, "dangling_ok", 2),
        Target("rules.apply", rules, "apply", 0),
        Target("graphs.Graph.copy", Graph, "copy", 0,
               lambda out: (len(out.nodes) + len(out.edges), 0)),
    ]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(layers: dict, s: Sample, ref: Reference,
                  overhead: float) -> dict[str, float]:
    """Per-layer metrics from span totals; 0 where a layer made no call."""
    def us_per_call(name: str, c: Optional[int] = None) -> float:
        lay = layers[name]
        if c is None:
            return ratio(lay.total, lay.calls) * 1e6
        return ratio(lay.level_total.get(c, 0.0),
                     lay.level_calls.get(c, 0)) * 1e6

    match, cand = layers["matching.match_all"], layers["rules.RuleSet.candidates"]
    scan, copy = layers["rules.apply_ruleset"], layers["graphs.Graph.copy"]
    gen = layers["compiler.gen_sim"]
    rule_calls = scan.calls
    steps = s.outputs["steps"]
    m = {
        "matching.match_all.us_per_call": us_per_call("matching.match_all"),
        **{f"matching.match_all.us_per_call.c{c}":
           us_per_call("matching.match_all", c) for c in range(2, 6)},
        "matching.match_all.calls_per_rule_call": ratio(match.calls,
                                                        rule_calls),
        "matching.match_all.extensions_per_call": ratio(match.x, match.calls),
        "matching.match_all.hit_ratio": ratio(match.y, match.calls),
        "rules.RuleSet.candidates.us_per_call":
            us_per_call("rules.RuleSet.candidates"),
        "rules.RuleSet.candidates.rules_per_call": ratio(cand.x, cand.calls),
        "rules.apply_ruleset.self_us_per_call": ratio(scan.own,
                                                      scan.calls) * 1e6,
        "rules.apply_ruleset.applied_ratio": ratio(scan.x, scan.calls),
        "rules.dangling_ok.us_per_call": us_per_call("rules.dangling_ok"),
        "rules.apply.us_per_call": us_per_call("rules.apply"),
        **{f"rules.apply.us_per_call.c{c}": us_per_call("rules.apply", c)
           for c in range(2, 6)},
        "graphs.Graph.copy.calls_per_rule_call": ratio(copy.calls,
                                                       rule_calls),
        "graphs.Graph.copy.us_per_call": us_per_call("graphs.Graph.copy"),
        **{f"graphs.Graph.copy.us_per_call.c{c}":
           us_per_call("graphs.Graph.copy", c) for c in range(2, 5)},
        "graphs.Graph.copy.items_per_call": ratio(copy.x, copy.calls),
        "lang.snapshot.share": ratio(
            copy.total - copy.by_parent.get("rules.apply", 0.0), copy.total),
        "lang.Interp.run.self_us_per_rule_call": ratio(
            layers["lang.Interp.run"].own, rule_calls) * 1e6,
        "lang.rule_calls": rule_calls,
        "lang.rule_calls.failed_ratio": ratio(scan.calls - scan.x,
                                              scan.calls),
        "lang.restarts": s.outputs["restarts"],
        "harness.replayed_step_ratio": ratio(steps - ref.tm_steps, steps),
        "encoding.dec.calls": layers["encoding.dec"].calls,
        "encoding.dec.us_per_call": us_per_call("encoding.dec"),
        "encoding.enc.us_per_call": us_per_call("encoding.enc"),
        "turing.tm_step.us_per_call": us_per_call("turing.tm_step"),
        "turing.tm_run.s": layers["turing.tm_run"].total,
        "compiler.gen_sim.s": gen.total,
        "compiler.rules": gen.x // max(gen.calls, 1),
        "trace.overhead_ratio": overhead,
    }
    for name, lay in layers.items():
        key = name.split(".", 1)[0] + ".self_s"
        m[key] = m.get(key, 0.0) + lay.own
    return m


def run_traced(w: Workload, ref: Reference, seconds: float,
               lines: list[str]) -> tuple[list[Sample], dict, Spans]:
    """One traced call, then untraced calls for the rest of `seconds`;
    return samples, per-layer metrics and the spans."""
    t_end = time.perf_counter() + seconds
    tracer = Tracer(targets())
    with tracer:
        traced = call(w, ref)
    samples = [check(w, ref, traced)]
    repeat(w, ref, samples, t_end)
    good = [s.seconds for s in samples[1:] if not s.failures]
    metrics = {}
    if not traced.failures:
        overhead = ratio(traced.seconds, statistics.median(good or [0.0]))
        metrics = layer_metrics(summarize(tracer.spans), traced, ref,
                                overhead)
    for name, value in metrics.items():
        lines.append(f"{name} {value:.6g} {PER_LAYER[name]}")
    return samples, {k: {"value": v, "unit": PER_LAYER[k]}
                     for k, v in metrics.items()}, tracer.spans


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(w: Workload, seconds: float, trace: bool
            ) -> tuple[dict, list[str], list[Sample], Optional[Spans]]:
    """Run one workload; return the result object, the report lines, the
    samples and the spans (None untraced)."""
    ref = Reference(w)
    lines: list[str] = []
    spans = None
    if trace:
        samples, metrics, spans = run_traced(w, ref, seconds, lines)
    else:
        samples, metrics = run_untraced(w, ref, seconds, lines)
    failed = sum(1 for s in samples if s.failures)
    lines.append(f"fail_ratio {failed / len(samples):.6g} ratio "
                 f"({failed} of {len(samples)} runs)")
    result = {"correct": failed == 0, "attempted": len(samples),
              "failed": failed, "metrics": metrics}
    return result, lines, samples, spans


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: the workloads' inputs are fixed")
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    load_minigp()
    w = WORKLOADS[args.workload]
    result, lines, samples, spans = measure(w, args.seconds,
                                            bool(args.trace))
    for s in samples:
        for f in s.failures:
            print(f"FAILED: {f}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "outputs": [s.outputs for s in samples],
        "run_s": [s.seconds for s in samples], "result": result,
    }
    if spans is not None:
        record["spans"] = spans.write(OUT / f"{w.name}.spans")
    (OUT / f"{w.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"workload {w.name} seed {args.seed} python "
          f"{record['python']} nproc {record['nproc']} "
          f"rev {record['git_revision']}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
