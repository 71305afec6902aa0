"""End-to-end acceptance checks, one test per headline claim.

Each test is self-contained apart from the session fixtures in conftest,
asserts exact values where the claim is exact, and enforces the wall-time
budget it is allowed.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from random import Random

from conftest import RANDOM_SEED
from util import (bench_host, block_content, match_bruteforce, match_plan,
                  morphism, random_match_pair, run_program)

from minigp.compiler import gen_sim
from minigp.encoding import EncodingParams, content_digits, enc
from minigp.graphs import Graph, Label, graph_space
from minigp.harness import run_sim
from minigp.lang import Done, Fail, parse_program
from minigp.matching import compile_plan, match_all, search_tree
from minigp.rules import Rule
from minigp.turing import TMConfiguration, TuringMachine


def test_encoding_arithmetic_anchors():
    """Block arithmetic and the derived sizes at capacity level k=3."""
    t0 = time.perf_counter()
    assert block_content([1, 0, 2, 2]) == 35
    assert content_digits(3, 2) == [1, 0]

    p = EncodingParams(3)
    assert p.c == 5
    assert p.b == 243
    assert p.capacity == p.b * p.c == 1215

    g = enc(TMConfiguration(0, "1", 0, "", 0), 3)
    first_block = 2
    first_cache = first_block + p.b
    blocks = set(range(first_block, first_block + p.b))
    cache = set(range(first_cache, first_cache + p.c))
    assert blocks | cache | {0, 1} == set(g.nodes)

    def items(section: set[int]) -> int:
        inside = sum(1 for s, t, _ in g.edges.values()
                     if s in section and t in section)
        return len(section) + inside

    assert items(cache) == p.c + 2 * (p.c - 1) == 13
    assert items(blocks) == p.b + (p.b + 2 * (p.b - 1)) == 970
    assert time.perf_counter() - t0 < 1.0


def test_matching_agrees_with_bruteforce():
    """Fast matching equals the brute-force oracle on 200 random pairs."""
    t0 = time.perf_counter()
    rng = Random(RANDOM_SEED)
    for i in range(200):
        L, G = random_match_pair(rng, max_l=4, max_g=8)
        plan = compile_plan(L)
        fast = {morphism(plan, m).key() for m in match_plan(plan, G).matches}
        slow = {h.key() for h in match_bruteforce(L, G)}
        assert fast == slow, f"pair {i}: fast {fast} != brute force {slow}"
    assert time.perf_counter() - t0 < 30.0


def _best_batch_seconds(rule: Rule, host: Graph, calls: int = 20,
                        reps: int = 100) -> float:
    """Best time of a batch of matches with the one-leaf search tree of
    the rule's cached plan, the path the rule-set scan runs."""
    tree = search_tree([rule.plan])
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            match_all(tree, host)
        best = min(best, time.perf_counter() - t0)
    return best


def test_matching_cost_size_independent():
    """Extension counts are host-size invariant and wall time nearly flat."""
    t0 = time.perf_counter()
    m = TuringMachine(0, 1, {(0, 1, 2): (1, 1, "R", "R")})
    sim = gen_sim(m)
    by_name = {r.name: r for rules in sim.library.values() for r in rules}
    # Extension counts measured with the original copy-per-extension
    # matcher; a search that tries other extensions fails even if flat.
    expected = {"t_0_1_2_0": 14, "Next_0": 9, "CacheInit_0_2": 7,
                "EncodeInit_0": 7, "SetFlag_0": 1}
    hosts = [bench_host(target) for target in (100, 1_000, 10_000, 100_000)]
    spaces = [graph_space(g) for g in hosts]
    assert spaces == sorted(set(spaces)) and spaces[0] >= 100
    assert spaces[-1] >= 100_000

    for name, count in expected.items():
        rule = by_name[name]
        extensions = {match_plan(compile_plan(rule.left), g).extensions
                      for g in hosts}
        assert extensions == {count}, f"{name}: extensions {extensions}"
        times = [_best_batch_seconds(rule, g) for g in hosts]
        assert max(times) < 3 * min(times), f"{name}: spread {times}"
    assert time.perf_counter() - t0 < 120.0


def _best_edit_seconds(host: Graph, edge: int, calls: int = 20,
                       reps: int = 100) -> float:
    """Best time of a batch of nested windows that each remove and re-add
    edge, then roll back and release: the edge updates and journal replay
    of a rule application inside the interpreter's outer window."""
    src, tgt, label = host.edges[edge]
    outer = host.mark()
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            mark = host.mark()
            host.remove_edge(edge)
            host.add_edge(src, tgt, label)
            host.rollback(mark)
            host.release(mark)
        best = min(best, time.perf_counter() - t0)
    host.rollback(outer)
    host.release(outer)
    return best


def test_application_cost_size_independent():
    """Editing an edge into the node of highest in-degree, which every
    blank block's dashed edge points to, costs the same at every host
    size: an edge update touches no list that grows with the host."""
    t0 = time.perf_counter()
    hosts = [bench_host(target) for target in (100, 1_000, 10_000, 100_000)]
    assert graph_space(hosts[-1]) >= 100_000
    degrees, times = [], []
    for g in hosts:
        hub, degree = Counter(t for _, t, _ in g.edges.values()).most_common(1)[0]
        edge = min(e for e, (_, t, lab) in g.edges.items()
                   if t == hub and lab.mark == "dashed")
        want = dict(g.edges)
        times.append(_best_edit_seconds(g, edge))
        assert g.edges == want
        degrees.append(degree)
    assert degrees[-1] > 1_000 * degrees[0]
    assert max(times) < 3 * min(times), f"spread {times}"
    assert time.perf_counter() - t0 < 60.0


def test_lockstep_zero_divergence(verify_reports):
    """Simulation tracks the machine oracle step for step on every case."""
    reports, elapsed = verify_reports
    for label, report in reports.items():
        assert report.ok, (label, report.first_divergence, report.errors)
        assert report.steps_checked >= report.restarts
    for n in range(1, 7):
        final = reports[f"stamp-{n}"].final_config
        assert final is not None and final.work == "110" * n
    assert elapsed < 300.0


def test_runtime_assertions_and_mode_agreement(verification_cases,
                                               verify_reports):
    """No-snapshot runs trip no assertions and agree with semantic runs."""
    reports, _ = verify_reports
    for label, report in reports.items():
        assert report.null_failure_ok, label
        assert report.unique_match_ok, label
    for label, m, input in verification_cases:
        sem, _, g_sem = run_sim(m, input, mode="semantic")
        eff, _, g_eff = run_sim(m, input, mode="efficient")
        assert g_sem == g_eff, label
        assert sem.rule_calls == eff.rule_calls, label


def test_space_compression_invariants(filler_metrics):
    """Peak graph space stays within 8x the block count and restarts are
    exactly the capacity raises, which each run forced."""
    metrics, elapsed = filler_metrics
    for reps, mx in metrics.items():
        assert mx.final_b == 3 ** mx.final_c, reps
        assert mx.restarts == mx.final_c - 2, reps
        assert mx.peak_graph_space <= 8 * mx.final_b, reps
        if mx.restarts >= 1:
            assert (mx.final_c - 1) * mx.final_b // 3 < mx.tape_squares_used

    family = [metrics[reps] for reps in (1, 7, 28)]
    ratios = [mx.peak_graph_space / mx.tape_squares_used for mx in family]
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
    assert any(mx.final_c >= 5 for mx in family)
    for mx in family:
        if mx.final_c >= 5:
            assert mx.peak_graph_space < mx.tape_squares_used
    assert elapsed < 300.0


def test_time_overhead_bounds(filler_metrics):
    """Rule calls grow subquadratically in steps and the per-step rate fitted
    on the smallest run bounds the larger runs."""
    metrics, elapsed = filler_metrics
    runs = [metrics[reps] for reps in (7, 14, 28)]
    steps = [mx.tm_steps for mx in runs]
    assert steps[1] == 2 * steps[0] and steps[2] == 2 * steps[1]

    fit = statistics.linear_regression([math.log(s) for s in steps],
                                       [math.log(mx.rule_calls)
                                        for mx in runs])
    assert fit.slope <= 2.3, fit

    def rate(mx) -> float:
        return mx.rule_calls / len(mx.per_step_rule_calls)

    small = runs[0]
    floor = min(small.per_step_rule_calls)
    slope = (rate(small) - floor) / (small.final_b + small.final_c)
    assert slope > 0
    for mx in runs[1:]:
        bound = slope * (mx.final_b + mx.final_c) + floor
        assert rate(mx) <= bound, (rate(mx), bound)
    assert elapsed < 600.0


def _relabel(name: str, before: int, after: int) -> Rule:
    left = Graph()
    v = left.add_node(Label(before), root=True)
    right = Graph()
    w = right.add_node(Label(after), root=True)
    return Rule(name, left, right, {v: w})


CONSTRUCT_TABLE = [
    ("R01", 1),
    ("RFail", None),
    ("R01; R12", 2),
    ("if R01 then R01 else R12", 1),
    ("if RFail then R12 else R01", 1),
    ("try R01 then R12 else RFail", 2),
    ("try (R01; RFail) then R12 else R01", 1),
    ("try RFail", 0),
    ("Inc!", 2),
    ("(R01; RFail)!", 0),
    ("(R01; break)!", 1),
    ("(if R01 then break)!", 0),
    ("(try R01 then break)!", 1),
]


def test_control_construct_semantics():
    """Every control construct, driven through single-node relabel rules:
    sequencing, both if branches with the condition discarded, try keeping
    or restoring the graph, loops ending on failure or break."""
    t0 = time.perf_counter()
    library = {
        "R01": [_relabel("r01", 0, 1)],
        "R12": [_relabel("r12", 1, 2)],
        "RFail": [_relabel("rfail", 9, 9)],
        "Inc": [_relabel("inc01", 0, 1), _relabel("inc12", 1, 2)],
    }
    for text, expected in CONSTRUCT_TABLE:
        host = Graph()
        host.add_node(Label(0), root=True)
        program = parse_program(f"Main = {text}", library)
        cfg, _ = run_program(program, host, mode="semantic")
        if expected is None:
            assert isinstance(cfg, Fail), text
        else:
            assert isinstance(cfg, Done), (text, cfg)
            assert cfg.graph.nodes[0] == Label(expected), text
    assert time.perf_counter() - t0 < 10.0
