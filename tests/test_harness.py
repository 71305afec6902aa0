"""Harness checks: lockstep verification against the reference machine,
run metrics and their invariants, mode agreement, benchmark hosts,
fixture machines, the on-disk machine files, the package's error
hierarchy, and the reuse of a machine's compiled program across runs."""

from __future__ import annotations

import ast
import gc
import importlib
import io
import math
import platform
import re
import sys
import tokenize
import weakref
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from random import Random
from typing import Callable

import pytest

from minigp import graphs, harness, lang, rules
from minigp.errors import InputError, RunError
from minigp.graphs import Graph, graph_space
from minigp.harness import (
    SimulationError,
    lockstep_verify,
    metrics_lines,
    metrics_table,
    run_sim,
)
from minigp.lang import Fail, Interp
from minigp.machines import counter_machine, filler_machine
from minigp.rules import RuleSet
from minigp.turing import (
    BudgetExceeded,
    TMConfiguration,
    TuringMachine,
    initial_configuration,
    tm_run,
)
from util import (UNDERFLOW, bench_host, counter_input, fixture_machine,
                  random_machine_pair, unary)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minigp"
BENCHMARK = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
# fixtures/stamp.tm writes 110 per input symbol; fixtures/empty.tm halts at once.
STAMP = fixture_machine("stamp")
EMPTY_M = fixture_machine("empty")


def fill_machine(writes: int) -> TuringMachine:
    """Writes a run of ones rightward, one state per square."""
    delta = {(i, 1, 2): (i + 1, 1, "S", "R") for i in range(writes)}
    return TuringMachine(0, writes, delta)


class TestLockstep:
    def test_empty_machine(self):
        report = lockstep_verify(EMPTY_M, "1")
        assert report.ok
        assert report.steps_checked == 0
        assert report.restarts == 0
        assert report.final_config == initial_configuration(EMPTY_M, "1")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stamp_end_state(self, n):
        report = lockstep_verify(STAMP, unary(n))
        assert report.ok
        assert report.steps_checked == 3 * n
        assert report.final_config.work == "110" * n

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
    def test_counter(self, length):
        report = lockstep_verify(counter_machine(), counter_input(length))
        assert report.ok
        assert report.steps_checked == 2 ** (length + 2) - 2

    def test_filler_climbs_to_the_largest_blockset(self):
        """Filler unary(10) restarts up to c=5 (b=243), so every rewritten
        rule is checked step by step on a large graph."""
        report = lockstep_verify(filler_machine(), unary(10))
        assert report.ok
        assert report.steps_checked == 850
        assert report.restarts == 3

    def test_counter_all_ones_input(self):
        report = lockstep_verify(counter_machine(), "1111")
        assert report.ok and report.steps_checked == 6

    def test_restart_resyncs_the_oracle(self):
        m = fill_machine(19)
        _, tm_steps, squares = tm_run(m, "1", 100)
        assert squares == 20
        report = lockstep_verify(m, "1")
        assert report.ok
        assert report.restarts == 1
        # Replayed steps are checked again, so more steps than the machine.
        assert report.steps_checked > tm_steps

    def test_max_steps_truncates_cleanly(self):
        report = lockstep_verify(counter_machine(), counter_input(5), max_steps=10)
        assert report.ok
        assert report.steps_checked == 10
        assert report.final_config is None

    def test_oracle_error_becomes_report_entry(self):
        # All-zero inputs drive the counter's input head off the right end.
        report = lockstep_verify(counter_machine(), "00")
        assert not report.ok
        assert report.errors

    @pytest.mark.parametrize("mode", ["semantic", "efficient"])
    def test_machine_fault_is_named_in_both_modes(self, mode):
        """The work head leaves the tape inside the Simulate! body, which
        efficient mode reports as a null failure; both modes name the
        machine's fault, as `minigp run` does."""
        report = lockstep_verify(UNDERFLOW, "1", mode=mode)
        assert "HeadUnderflow: work head left of 0 in state 0" in report.errors
        assert report.null_failure_ok == (mode == "semantic")
        assert report.steps_checked == 0 and not report.ok

    def test_budget_becomes_report_entry(self):
        report = lockstep_verify(STAMP, unary(3), max_rule_calls=20)
        assert not report.ok
        assert any("budget" in e for e in report.errors)

    def test_trace_streams_decoded_configs(self):
        seen = []
        report = lockstep_verify(STAMP, unary(2),
                                 trace=lambda i, s: seen.append((i, s)))
        assert report.ok
        assert [i for i, _ in seen] == list(range(1, report.steps_checked + 1))
        assert seen[-1][1] == report.final_config


def wrong_simulator(make: Callable[[], TuringMachine], key: tuple[int, int, int],
                    entry: tuple) -> TuringMachine:
    """make()'s machine carrying the compiled simulator of a copy whose
    transition at key is entry instead."""
    m = make()
    wrong = TuringMachine(m.start, m.accept, {**m.delta, key: entry})
    object.__setattr__(m, "_sim", harness.gen_sim(wrong))
    return m


class TestStepComparison:
    """`lockstep_verify` compares each step's host graph with the layout
    of the next configuration, and runs `dec` only at the first check,
    after each restart, on a failed comparison and on the final graph."""

    @pytest.mark.parametrize("mode", ["efficient", "semantic"])
    def test_accepts_exactly_when_dec_does(self, monkeypatch,
                                           verification_cases, mode):
        seen = Counter()
        dec, follow = harness.dec, harness._LayoutCheck.follow

        def checked(check, g, m, s):
            try:
                want = harness.tm_step(m, s)
                decoded = want is not None and dec(g) == (want, check.k)
            except RunError:
                decoded = False
            got = follow(check, g, m, s)
            assert (got is not None) == decoded
            assert got is None or got == want
            seen[decoded] += 1
            return got

        monkeypatch.setattr(harness._LayoutCheck, "follow", checked)
        for label, m, input in verification_cases:
            assert lockstep_verify(m, input, mode=mode).ok, label
        # Every step but the first check of each of the 42 cases.
        assert seen == {True: 4035}

    @pytest.mark.parametrize("mode", ["efficient", "semantic"])
    @pytest.mark.parametrize("make, key, entry, steps, got, want", [
        # A wrong write: a cache node's label.
        (counter_machine, (1, 1, 2), (2, 1, "S", "S"), 7,
         (2, "000001", 5, "2000001", 6), (2, "000001", 5, "2000000", 6)),
        # A wrong work head move: the central node's cache head edge.
        (counter_machine, (3, 1, 0), (3, 0, "S", "S"), 12,
         (3, "000001", 5, "2000010", 6), (3, "000001", 5, "2000010", 7)),
        # A wrong write at square 20, which only level 1 reaches: 18
        # steps at level 0, then 20 replayed ones.
        (filler_machine, (20, 1, 2), (21, 0, "S", "R"), 38,
         (21, "10", 0, "1" * 20 + "0", 21), (21, "10", 0, "1" * 21, 21)),
    ], ids=["write", "head-move", "after-restart"])
    def test_names_the_diverging_step(self, make, key, entry, steps, got,
                                      want, mode):
        m = wrong_simulator(make, key, entry)
        input = "000001" if make is counter_machine else "10"
        report = lockstep_verify(m, input, mode=mode)
        assert report.first_divergence == (
            steps, TMConfiguration(*got), TMConfiguration(*want))
        assert report.steps_checked == steps
        assert report.errors == []
        assert report.restarts == (make is filler_machine)

    @pytest.mark.parametrize("mode", ["efficient", "semantic"])
    @pytest.mark.parametrize("make, input, restarts", [
        (counter_machine, counter_input(8), 0), (filler_machine, unary(4), 2)])
    def test_decodes_only_at_anchors(self, monkeypatch, make, input, restarts,
                                     mode):
        """The first check, one per restart and the final graph."""
        calls = 0
        dec = harness.dec

        def counting(g):
            nonlocal calls
            calls += 1
            return dec(g)

        monkeypatch.setattr(harness, "dec", counting)
        report = lockstep_verify(make(), input, mode=mode)
        assert report.ok and report.restarts == restarts
        assert calls == restarts + 2

    def test_python_calls_per_checked_step(self, monkeypatch):
        """Calls inside the per-step check on filler unary(10), which
        climbs from c=2 to c=5: 11 on every step that does not decode, at
        every level, against 137 at c=2 and 1,088 at c=5 when every step
        decoded.  The budget sits 0.5 above the count with CPython 3.11.7;
        counts from other Python versions are not comparable."""
        calls, compared, decoded = Counter(), Counter(), Counter()
        level = 2
        decode = harness.dec.__code__
        simulator = harness._simulator

        def profiled(m, input, mode, max_rule_calls, on_step, on_restart):
            def step(g, stats):
                seen = []

                def hook(frame, event, arg):
                    if event == "call":
                        seen.append(frame.f_code)

                previous = sys.getprofile()
                sys.setprofile(hook)
                try:
                    on_step(g, stats)
                finally:
                    sys.setprofile(previous)
                if decode in seen:
                    decoded[level] += 1
                else:
                    calls[level] += len(seen)
                    compared[level] += 1

            def restart(g):
                nonlocal level
                level += 1
                on_restart(g)

            return simulator(m, input, mode, max_rule_calls, step, restart)

        monkeypatch.setattr(harness, "_simulator", profiled)
        assert lockstep_verify(filler_machine(), unary(10)).ok
        assert dict(decoded) == {2: 1}
        per_step = {c: calls[c] / compared[c] for c in compared}
        assert sorted(per_step) == [2, 3, 4, 5]
        assert max(per_step.values()) <= 11.5, (
            f"Python calls per checked step by level c: {per_step}, budget "
            f"11.5, Python {platform.python_version()}")


class TestMeasure:
    def test_immediate_halt(self):
        mx = run_sim(EMPTY_M, "1")[0]
        assert (mx.restarts, mx.final_c, mx.final_b) == (0, 2, 9)
        assert mx.tm_steps == 0
        assert mx.tape_squares_used == 1

    def test_nineteen_squares_forces_one_restart(self):
        mx = run_sim(fill_machine(18), "1")[0]
        assert mx.tape_squares_used == 19
        assert (mx.restarts, mx.final_c, mx.final_b) == (1, 3, 27)

    def test_metrics_invariants(self):
        for m, input in [(EMPTY_M, "1"), (STAMP, unary(4)),
                         (counter_machine(), counter_input(4)),
                         (fill_machine(19), "1")]:
            mx = run_sim(m, input)[0]
            assert mx.final_b == 3 ** mx.final_c
            assert mx.restarts == mx.final_c - 2
            assert mx.uniform_space == mx.peak_graph_space
            bits = math.ceil(math.log2(mx.peak_nodes))
            assert mx.log_space == mx.peak_nodes * bits
            assert sum(mx.per_step_rule_calls) <= mx.rule_calls
            assert len(mx.per_step_rule_calls) >= mx.tm_steps

    def test_peak_space_bound(self):
        for m, input in [(EMPTY_M, "1"), (STAMP, unary(6)),
                         (counter_machine(), counter_input(8)),
                         (fill_machine(18), "1"), (fill_machine(19), "1")]:
            mx = run_sim(m, input)[0]
            assert mx.peak_graph_space <= 8 * mx.final_b

    def test_restart_minimality(self):
        for writes in (18, 19, 25):
            mx = run_sim(fill_machine(writes), "1")[0]
            assert mx.restarts >= 1
            assert (mx.final_c - 1) * (mx.final_b // 3) < mx.tape_squares_used

    def test_per_step_counts_cover_replays(self):
        mx = run_sim(fill_machine(19), "1")[0]
        report = lockstep_verify(fill_machine(19), "1")
        assert len(mx.per_step_rule_calls) == report.steps_checked

    def test_emitters(self):
        mx = run_sim(EMPTY_M, "1")[0]
        lines = metrics_lines(mx)
        assert "final_c=2" in lines and "final_b=9" in lines and "restarts=0" in lines
        table = metrics_table([("1", mx), ("11", run_sim(EMPTY_M, "11")[0])])
        header, *rows = table.strip().splitlines()
        assert header.startswith("input,rule_calls,tm_steps,restarts,")
        assert len(rows) == 2
        for row in rows:
            label, *cells = row.split(",")
            assert all(cell.isdigit() for cell in cells)


class TestModes:
    @pytest.mark.parametrize("m,input", [
        (STAMP, unary(3)),
        (counter_machine(), counter_input(3)),
        (fill_machine(19), "1"),
    ])
    def test_modes_agree(self, m, input):
        sem, _, g_sem = run_sim(m, input, mode="semantic")
        eff, _, g_eff = run_sim(m, input, mode="efficient")
        assert g_sem == g_eff
        assert sem.rule_calls == eff.rule_calls


class TestPatchedNames:
    """perfbench traces a run by replacing names where the package looks
    them up: `lang.apply_ruleset`, `RuleSet.candidates`, `rules.match_all`,
    `rules.dangling_ok`, `rules.apply`, `Graph.copy` and `Interp.run`,
    whose Done result must carry the final graph.  Every rule call goes
    through `apply_ruleset`; a `skip` call returns there before the scan
    and `apply`, and a scan with at least one candidate makes one
    `match_all` call.  `Graph.copy` sees the copies that the outermost
    saves make, not the saves nested in them, which roll back from the
    graph's journal."""

    @pytest.mark.parametrize("mode", ["semantic", "efficient"])
    def test_wrappers_see_every_call(self, monkeypatch, mode):
        calls = Counter()
        runs = []

        def counting(name, fn, size=None):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                out = fn(*args, **kwargs)
                if size is not None:
                    calls[size] += len(out)
                    calls[name + " found"] += bool(out)
                return out
            return wrapper

        def capturing(interp, *args, **kwargs):
            out = original_run(interp, *args, **kwargs)
            runs.append((interp, out))
            return out

        original_run = Interp.run
        monkeypatch.setattr(lang, "apply_ruleset",
                            counting("apply_ruleset", lang.apply_ruleset))
        monkeypatch.setattr(RuleSet, "candidates",
                            counting("candidates", RuleSet.candidates,
                                     "candidate rules"))
        for name in ("match_all", "dangling_ok", "apply"):
            monkeypatch.setattr(rules, name, counting(name, getattr(rules, name)))
        monkeypatch.setattr(Graph, "copy", counting("copy", Graph.copy))
        monkeypatch.setattr(Interp, "run", capturing)
        mx, _, g = run_sim(counter_machine(), counter_input(4), mode=mode)
        ((interp, cfg),) = runs
        assert cfg.graph is g
        stats = interp.stats
        assert calls["apply_ruleset"] == stats.rule_calls == mx.rule_calls
        skips = stats.rule_applications["skip"]
        assert 0 < skips < stats.rule_calls
        assert calls["candidates"] == stats.rule_calls - skips
        assert calls["match_all"] == calls["candidates found"] > 0
        assert calls["candidate rules"] >= calls["match_all"]
        assert calls["apply"] == \
            sum(stats.rule_applications.values()) - skips > 0
        # The counter's rules delete no node, so no match needs the check.
        assert calls["dangling_ok"] == 0
        assert (stats.snapshots > 0) == (mode == "semantic")
        # Semantic mode copies only at the outer loop, once per pass.
        assert calls["copy"] == (mx.restarts + 1 if mode == "semantic" else 0)


class TestCompileOnce:
    """The first run of a machine compiles it and keeps the program on the
    machine object; later runs of that object reuse the program, its rule
    sets' memos and its rules' cached plans and scripts."""

    @staticmethod
    def runs(machine: Callable[[], TuringMachine], input: str) -> list:
        """An aborted lockstep run, a run over its rule-call budget, a full
        run in each mode and a full lockstep run, in this order, each on
        the machine that machine() returns."""
        out: list = [lockstep_verify(machine(), input, max_steps=10)]
        with pytest.raises(BudgetExceeded) as exc:
            run_sim(machine(), input, max_rule_calls=20)
        out.append(str(exc.value))
        for mode in ("semantic", "efficient"):
            mx, final, g = run_sim(machine(), input, mode=mode)
            out.append((mx, final, graphs.to_text(g)))
        out.append(lockstep_verify(machine(), input))
        return out

    @pytest.mark.parametrize("make, input", [(filler_machine, unary(4)),
                                             (counter_machine,
                                              counter_input(8))])
    def test_reuse_changes_nothing(self, make, input):
        m = make()
        reused = self.runs(lambda: m, input)
        assert reused == self.runs(make, input)
        assert reused[0].steps_checked == 10 and reused[-1].ok

    def test_compiles_once_per_machine_object(self, monkeypatch):
        compiled = []
        gen_sim = harness.gen_sim

        def counting(m):
            sim = gen_sim(m)
            compiled.append(weakref.ref(sim))
            return sim

        monkeypatch.setattr(harness, "gen_sim", counting)
        m = counter_machine()
        run_sim(m, counter_input(3))
        run_sim(m, counter_input(4), mode="semantic")
        assert lockstep_verify(m, counter_input(3)).ok
        assert len(compiled) == 1
        twin = counter_machine()
        assert twin == m and repr(twin) == repr(m)
        assert [f.name for f in fields(m)] == ["start", "accept", "delta"]
        run_sim(twin, counter_input(3))
        assert len(compiled) == 2
        assert compiled[0]() is not None
        del m
        gc.collect()
        assert compiled[0]() is None
        assert compiled[1]() is not None


class TestCallBudget:
    """Python-level calls per rule call, counted with a profile hook.  Each
    budget sits 0.5 or less above the count measured with CPython 3.11.7.
    Counts from other Python versions are not comparable."""

    @pytest.mark.parametrize("mode, budget", [("efficient", 11.1),
                                              ("semantic", 11.9)])
    def test_python_calls_per_rule_call(self, monkeypatch, mode, budget):
        """Around `Interp.run` on filler unary(2): 10.61 calls in efficient
        mode and 11.46 in semantic mode."""
        calls = 0

        def hook(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        def profiled(interp, *args, **kwargs):
            previous = sys.getprofile()
            sys.setprofile(hook)
            try:
                return original_run(interp, *args, **kwargs)
            finally:
                sys.setprofile(previous)

        original_run = Interp.run
        monkeypatch.setattr(Interp, "run", profiled)
        mx = run_sim(filler_machine(), unary(2), mode=mode)[0]
        per_call = calls / mx.rule_calls
        assert per_call <= budget, (
            f"{per_call:.2f} Python calls per rule call in {mode} mode, "
            f"budget {budget}, Python {platform.python_version()}")

    def test_warm_run_costs_fewer_calls(self):
        """Over the whole semantic `run_sim` of filler unary(4): 11.85 calls
        on a fresh machine, which compiles, and 9.57 on a second run of the
        same machine, which reuses the program."""
        def per_call(m: TuringMachine) -> float:
            calls = 0

            def hook(frame, event, arg):
                nonlocal calls
                if event == "call":
                    calls += 1

            previous = sys.getprofile()
            sys.setprofile(hook)
            try:
                mx = run_sim(m, unary(4), mode="semantic")[0]
            finally:
                sys.setprofile(previous)
            return calls / mx.rule_calls

        m = filler_machine()
        cold = per_call(m)
        warm = per_call(m)
        assert warm < cold
        assert warm <= 10.0, (
            f"{warm:.2f} Python calls per rule call on a warm run, budget "
            f"10.0, Python {platform.python_version()}")


class TestSearchCounts:
    """`match_all` calls over a whole run and the extensions they try.
    Both counts repeat exactly, so a change that loses the sharing of the
    rule-set scan's search fails here whatever wall time does."""

    @pytest.mark.parametrize("mode", ["efficient", "semantic"])
    @pytest.mark.parametrize("make, input, calls, extensions", [
        (counter_machine, counter_input(8), 16_899, 210_165),
        (filler_machine, unary(4), 33_632, 266_269)])
    def test_run_search_counts(self, monkeypatch, mode, make, input, calls,
                               extensions):
        """With one `match_all` call per candidate rule, counter 8 made
        61,827 calls trying 384,042 extensions, and filler unary(4) made
        79,659 trying 352,325, in either mode."""
        seen = [0, 0]
        match_all = rules.match_all

        def counted(tree, G):
            out = match_all(tree, G)
            seen[0] += 1
            seen[1] += out.extensions
            return out

        monkeypatch.setattr(rules, "match_all", counted)
        run_sim(make(), input, mode=mode)
        assert seen == [calls, extensions]


class TestBench:
    def test_host_sizes_reach_targets(self):
        for target in (100, 1000, 10_000):
            assert graph_space(bench_host(target)) >= target


class TestMachines:
    def test_unary(self):
        assert unary(1) == "0"
        assert unary(4) == "1110"
        with pytest.raises(ValueError):
            unary(0)

    def test_counter_input(self):
        assert counter_input(1) == "1"
        assert counter_input(4) == "0001"
        with pytest.raises(ValueError):
            counter_input(0)

    def test_filler_space_is_linear(self):
        m = filler_machine()
        for reps in (1, 3):
            _, steps, squares = tm_run(m, unary(reps), 10_000)
            assert squares == 43 * reps
            assert steps == 43 * reps

    def test_random_pairs_deterministic_and_well_formed(self):
        pairs = [random_machine_pair(Random(99)) for _ in range(2)]
        assert pairs[0] == pairs[1]
        rng = Random(7)
        for _ in range(10):
            m, input = random_machine_pair(rng)
            assert len(m.states) <= 4
            assert set(input) <= {"0", "1"}
            _, steps, squares = tm_run(m, input, 500)
            assert 3 <= steps <= 500
            assert squares <= 81

    def test_fixture_files_match_builders(self):
        for name, build in [("count", counter_machine),
                            ("filler", filler_machine)]:
            assert fixture_machine(name) == build()
        ones = fixture_machine("ones")
        assert ones.delta == {(0, 1, 2): (0, 1, "R", "R"),
                              (0, 0, 2): (1, 1, "S", "S")}


def _uses(node) -> Counter:
    """How often node reads each name, bare or as an attribute."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
    return found


def _package_uses() -> tuple[dict[str, ast.Module], Counter, set[str]]:
    """The package's module trees by file name, the names read anywhere in
    them, and the words of the benchmark's code (not its comments)."""
    tokens = tokenize.generate_tokens(io.StringIO(BENCHMARK.read_text()).readline)
    benchmark = {word for tok in tokens
                 if tok.type in (tokenize.NAME, tokenize.STRING)
                 for word in re.findall(r"\w+", tok.string)}
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    return trees, sum(map(_uses, trees.values()), Counter()), benchmark


class TestTypedFailures:
    def test_package_has_no_assert_statements(self):
        """python -O strips asserts, so no check may be one."""
        found = []
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
        assert found == []

    def test_package_imports_only_the_standard_library(self):
        """The runtime stays stdlib-only: every import in the package is
        relative or names a standard-library module."""
        found = []
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.partition(".")[0] not in sys.stdlib_module_names]
        assert found == []

    def test_package_names_have_package_callers(self):
        """Every module-level function, class and constant of the package
        is used elsewhere in the package; only names the benchmark's code
        (not its comments) uses may serve tests and the benchmark alone."""
        trees, used, benchmark = _package_uses()
        unused = []
        for fname, tree in trees.items():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    names = [n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name)]
                else:
                    continue
                own = _uses(node)
                unused += [f"{fname}:{name}" for name in names
                           if not name.startswith("__")
                           and name not in benchmark
                           and used[name] == own[name]]
        assert unused == []

    def test_package_methods_have_package_callers(self):
        """Every public method and property of a package class is used in
        the package outside its own definition, or by the benchmark's code."""
        trees, used, benchmark = _package_uses()
        unused = [f"{fname}:{cls.name}.{fn.name}"
                  for fname, tree in trees.items()
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)
                  and not fn.name.startswith("_") and fn.name not in benchmark
                  and used[fn.name] == _uses(fn)[fn.name]]
        assert unused == []

    def test_one_error_hierarchy(self):
        """Every package error is an InputError or a RunError, raised as
        such rather than as a bare ValueError or RuntimeError."""
        bare, parse_errors, unrooted = [], [], []
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) \
                        else node.exc
                    if isinstance(exc, ast.Name) and \
                            exc.id in ("ValueError", "RuntimeError"):
                        bare.append(f"{path.name}:{node.lineno}")
                if isinstance(node, ast.ClassDef) and node.name == "ParseError":
                    parse_errors.append(path.name)
            module = importlib.import_module(f"minigp.{path.stem}")
            for name, obj in vars(module).items():
                if (isinstance(obj, type) and issubclass(obj, Exception)
                        and obj.__module__ == module.__name__
                        and obj is not harness._Abort
                        and issubclass(obj, InputError) == issubclass(obj, RunError)):
                    unrooted.append(f"{path.stem}.{name}")
        assert bare == []
        assert parse_errors == ["errors.py"]
        assert unrooted == []

    def test_run_sim_divergence_raises(self, monkeypatch):
        def wrong_final(m, input, max_steps):
            final, steps, squares = tm_run(m, input, max_steps)
            return replace(final, work=final.work + "1"), steps, squares
        monkeypatch.setattr(harness, "tm_run", wrong_final)
        with pytest.raises(SimulationError, match="diverged"):
            run_sim(STAMP, unary(1))

    def test_failed_run_raises(self, monkeypatch):
        monkeypatch.setattr(Interp, "run", lambda self, program, g: Fail())
        with pytest.raises(SimulationError, match="run failed"):
            run_sim(STAMP, unary(1))
