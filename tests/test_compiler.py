"""Compiled simulators: generated rules, contracts, and whole-machine runs."""

from functools import partial
from hashlib import sha256
from random import Random

import pytest

from minigp.compiler import (
    BLUE,
    DASHED,
    GREEN,
    GREEN_I,
    RED,
    gen_sim,
    gen_transitions,
    initial_graph,
)
from minigp.encoding import MalformedConfigGraph, dec, enc
from minigp.errors import InputError
from minigp.graphs import Graph, Label, to_text
from minigp.lang import (Done, If, Interp, Loop, NullFailureViolation, Seq,
                         Try)
from minigp.machines import counter_machine, filler_machine
from minigp.rules import RuleSet, apply_ruleset
from minigp.turing import (
    TMConfiguration,
    TuringMachine,
    initial_configuration,
    tm_run,
)
from conftest import RANDOM_SEED
from util import (FIXTURES, UNDERFLOW, StepInterp, analysis,
                  check_boundedness, counter_input, fixture_machine,
                  random_machine_pair, run_program, unary)

EMPTY_M = TuringMachine(0, 0, {})
ONES = TuringMachine(0, 1, {
    (0, 1, 2): (0, 1, "R", "R"),
    (0, 0, 2): (1, 1, "S", "S"),
})
RUN3 = TuringMachine(0, 3, {
    (0, 1, 2): (1, 1, "S", "R"),
    (1, 1, 2): (2, 1, "S", "R"),
    (2, 1, 2): (3, 1, "S", "S"),
})
ZIGZAG = TuringMachine(0, 5, {
    (0, 1, 2): (1, 1, "S", "R"),
    (1, 1, 2): (2, 1, "S", "R"),
    (2, 1, 2): (3, 1, "S", "L"),
    (3, 1, 1): (4, 1, "S", "L"),
    (4, 1, 1): (5, 1, "S", "S"),
})
FILL19 = TuringMachine(0, 19, {(i, 1, 2): (i + 1, 1, "S", "R") for i in range(19)})

# sha256 of the repr of (rule name, steps, nodes, edges) for every rule of
# each fixture machine's library, in library order.
PLAN_SHA256 = {
    "count": "63fc3c82fa8f67a6ffd91e6fe05fd3b7879f88ed0d0789eb741f5b9c32d73ad5",
    "empty": "26b56ff6a3f63c9b50cda460361858066a3aeea3026ec994bdce331b1f38fec9",
    "filler": "c65309e38bb45f989994e73c676a0d4ea30f768c9160d8a96145e71af047c1ca",
    "ones": "58007e6ca72bf2847bde916e775ee9229a52ea72d7feb64359e233656294c465",
    "stamp": "14f2fa87a2510a3cff0faf97bd379210d88d09becdd632984f734fc00ccd75a3",
    "sweep": "0b31c1c57adf9846aa70ff566e976abb7777ae2dcd55a29e699474684753a4a9",
}


def _only_root(g):
    (r,) = g.roots
    return r


def _central(g):
    hits = [r for r in g.roots
            if g.nodes[r].mark is None and g.nodes[r].atom is not None]
    assert len(hits) == 1
    return hits[0]


def _target(g, v, label):
    hits = [g.edges[e][1] for e in g.out_edges(v) if g.edges[e][2] == label]
    assert len(hits) == 1, f"expected one {label} edge at {v}, got {hits}"
    return hits[0]


def _chain_right(g, start):
    seq = [start]
    while True:
        nxt = [g.edges[e][1] for e in g.out_edges(seq[-1]) if g.edges[e][2] == RED]
        if not nxt:
            return seq
        seq.append(nxt[0])


def _blocks(g):
    return _chain_right(g, _target(g, _central(g), BLUE))


def _cache_digits(g):
    rightmost = _target(g, _central(g), RED)
    seq = [rightmost]
    while True:
        nxt = [g.edges[e][1] for e in g.out_edges(seq[-1]) if g.edges[e][2] == BLUE]
        if not nxt:
            break
        seq.append(nxt[0])
    return [g.nodes[v].atom for v in reversed(seq)]


def _entry(sim, name):
    return Seq(sim.program.procedures[name])


class TestInitialGraph:
    def test_shape(self):
        g = initial_graph("101", start=7)
        central = _only_root(g)
        assert g.nodes[central] == Label(7)
        assert [g.nodes[v].atom for v in sorted(g.nodes) if v != central] == [1, 0, 1]
        first = _target(g, central, GREEN_I)
        assert _target(g, central, GREEN) == first
        assert _chain_right(g, first) == sorted(g.nodes)[1:]

    def test_single_symbol_input_has_parallel_green_edges(self):
        g = initial_graph("0")
        assert len(g.nodes) == 2
        labs = [lab for _, _, lab in g.edges.values()]
        assert len(labs) == 2 and GREEN_I in labs and GREEN in labs

    def test_empty_input_rejected(self):
        with pytest.raises(InputError, match="nonempty string over 0/1"):
            initial_graph("")

    def test_nonbinary_input_rejected(self):
        with pytest.raises(ValueError):
            initial_graph("102")


class TestSetup:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.tm")))
    def test_setup_reproduces_level_zero_encoding(self, name, n):
        m = fixture_machine(name)
        input = "110100101"[:n]
        g = initial_graph(input, m.start)
        out = apply_ruleset(g, RuleSet(gen_sim(m).library["setup"]))
        assert out.applied
        assert g == enc(initial_configuration(m, input), 0)

    def test_setup_then_dec_roundtrip(self):
        sim = gen_sim(RUN3)
        g = initial_graph("1", RUN3.start)
        assert apply_ruleset(g, RuleSet(sim.library["setup"])).applied
        assert dec(g) == (initial_configuration(RUN3, "1"), 0)


class TestLibrary:
    def test_every_generated_rule_is_fast(self):
        sim = gen_sim(ZIGZAG)
        for name, rules in sim.library.items():
            for r in rules:
                assert set(r.plan.nodes) == set(r.left.nodes), \
                    f"{name}/{r.name} not covered"

    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.tm")))
    def test_plans_pinned(self, name):
        """Every rule's search plan, in library order, is byte-identical to
        the pinned one."""
        library = gen_sim(fixture_machine(name)).library
        text = repr([(r.name, *r.plan) for rules in library.values()
                     for r in rules])
        assert sha256(text.encode()).hexdigest() == PLAN_SHA256[name]

    def test_transition_rules_double_on_input_moves(self):
        stay = TuringMachine(0, 1, {(0, 1, 2): (1, 0, "S", "L")})
        move = TuringMachine(0, 1, {(0, 1, 2): (1, 0, "L", "R"),
                                    (0, 0, 2): (1, 0, "R", "S")})
        assert len(gen_transitions(stay)) == 1
        assert len(gen_transitions(move)) == 4

    def test_rule_count_linear_in_machine_size(self):
        for m in (EMPTY_M, ONES, ZIGZAG, FILL19):
            sim = gen_sim(m)
            total = sum(len(rs) for rs in sim.library.values())
            trans = sum(1 if d1 == "S" else 2 for (_, _, d1, _) in m.delta.values())
            assert total == 61 + 57 * len(m.states) + trans

    def test_no_rule_deletes_nodes(self):
        """No rule of the fixture machines or the 20 golden random machines
        deletes a node, so no run reaches `rules.dangling_ok` or
        `Graph.in_edges`, each a scan of every host edge."""
        rng = Random(RANDOM_SEED)
        machines = [ZIGZAG] + [fixture_machine(f.stem)
                               for f in sorted(FIXTURES.glob("*.tm"))]
        machines += [random_machine_pair(rng)[0] for _ in range(20)]
        for m in machines:
            for rules in gen_sim(m).library.values():
                for r in rules:
                    assert r.script.nodes == (), r.name

    def test_unfinished_is_a_static_noop_and_setflag_is_not(self):
        sim = gen_sim(ONES)
        assert all(r.is_static_noop for r in sim.library["Unfinished"])
        assert not any(r.is_static_noop for r in sim.library["SetFlag"])

    def test_program_inlines_all_procedures(self):
        sim = gen_sim(ONES)
        assert {"Simulate", "Encode", "Decode", "Restart"} <= set(sim.program.procedures)
        assert isinstance(sim.outer_loop, Loop)
        assert isinstance(sim.simulate_loop, Loop)
        assert sim.outer_loop.body.parts[0] is sim.simulate_loop


class TestContracts:
    def test_encode_drains_cache_and_directs_active_block(self):
        s = TMConfiguration(0, "10", 0, "0121101", 4)
        sim = gen_sim(ONES)
        cfg, stats = run_program(_entry(sim, "Encode"), enc(s, 1))
        assert isinstance(cfg, Done)
        g = cfg.graph
        assert _cache_digits(g) == [0, 0, 0]
        blocks = _blocks(g)
        active = _target(g, _central(g), DASHED)
        assert active == blocks[1]
        assert _target(g, active, DASHED) == blocks[12]
        assert g.roots == {_central(g)}
        assert all(lab.mark is None for lab in g.nodes.values())
        with pytest.raises(MalformedConfigGraph):
            dec(g)

    def test_decode_inverts_encode(self):
        s = TMConfiguration(0, "10", 0, "0121101", 4)
        sim = gen_sim(ONES)
        mid, _ = run_program(_entry(sim, "Encode"), enc(s, 1))
        cfg, _ = run_program(_entry(sim, "Decode"), mid.graph)
        assert isinstance(cfg, Done)
        assert dec(cfg.graph) == (s, 1)

    def test_encode_digit_operation_count(self):
        s = TMConfiguration(0, "10", 0, "0121101", 4)
        v, c = 12, 3
        sim = gen_sim(ONES)
        _, stats = run_program(_entry(sim, "Encode"), enc(s, 1))
        decs = sum(n for name, n in stats.rule_applications.items()
                   if name.startswith("Dec_"))
        unders = stats.rule_applications["underflow"]
        assert decs == v
        assert decs + unders == sum(v // 3 ** j for j in range(c)) + c

    def test_cache_dec_at_zero_restores_and_signals(self):
        s = TMConfiguration(0, "1", 0, "000", 0)
        sim = gen_sim(ONES)
        cfg, _ = run_program(_entry(sim, "CacheDec"), enc(s, 1))
        g = cfg.graph
        assert _cache_digits(g) == [0, 0, 0]
        rightmost = _target(g, _central(g), RED)
        assert g.nodes[rightmost] == Label(0, "red") and rightmost in g.roots

    def test_encode_of_zero_content_is_identity_on_the_schema(self):
        s = TMConfiguration(0, "1", 0, "000", 0)
        sim = gen_sim(ONES)
        cfg, _ = run_program(_entry(sim, "Encode"), enc(s, 1))
        assert dec(cfg.graph) == (s, 1)

    def test_restart_rebuilds_initial_encoding_one_size_up(self):
        s = TMConfiguration(0, "10", 1, "01", 2)
        sim = gen_sim(ONES)
        cfg, _ = run_program(_entry(sim, "Restart"), enc(s, 0))
        assert isinstance(cfg, Done)
        assert dec(cfg.graph) == (initial_configuration(ONES, "10"), 1)

    def test_restart_keeps_graphs_bounded(self):
        s = TMConfiguration(0, "10", 1, "01", 2)
        sim = gen_sim(ONES)
        interp = Interp(mode="semantic",
                        apply_hook=lambda name, g: _assert_bounded(g))
        cfg = interp.run(_entry(sim, "Restart"), enc(s, 0))
        assert isinstance(cfg, Done)


def _assert_bounded(g):
    assert check_boundedness(g, 6, 4)


class TestFullRuns:
    def _run(self, m, inp, budget=200_000, **kw):
        sim = gen_sim(m)
        cfg, stats = run_program(sim.program, initial_graph(inp, m.start),
                                 max_rule_calls=budget, **kw)
        assert isinstance(cfg, Done)
        return sim, cfg.graph, stats

    def test_machine_without_transitions_halts_on_initial_encoding(self):
        _, g, _ = self._run(EMPTY_M, "101")
        assert g == enc(initial_configuration(EMPTY_M, "101"), 0)

    def test_in_block_moves_match_the_machine(self):
        final, _, _ = tm_run(ONES, "10", 100)
        _, g, _ = self._run(ONES, "10")
        assert dec(g) == (final, 0)

    def test_right_block_crossing_matches_the_machine(self):
        final, _, _ = tm_run(RUN3, "1", 100)
        _, g, _ = self._run(RUN3, "1")
        assert dec(g) == (final, 0)

    def test_left_and_right_crossings_match_the_machine(self):
        final, _, _ = tm_run(ZIGZAG, "1", 100)
        _, g, _ = self._run(ZIGZAG, "1")
        assert dec(g) == (final, 0)

    def test_overflow_restarts_and_finishes_one_size_up(self):
        final, _, squares = tm_run(FILL19, "1", 100)
        assert squares == 20
        _, g, _ = self._run(FILL19, "1")
        assert dec(g) == (final, 1)

    def test_simulate_loop_hook_sees_each_machine_step(self):
        sim = gen_sim(ZIGZAG)
        seen = []

        def hook(loop, graph, stats):
            if loop is sim.simulate_loop:
                seen.append(dec(graph)[0])

        cfg, _ = run_program(sim.program, initial_graph("1", ZIGZAG.start),
                             max_rule_calls=200_000, loop_hook=hook)
        oracle = [initial_configuration(ZIGZAG, "1")]
        while True:
            from minigp.turing import tm_step
            nxt = tm_step(ZIGZAG, oracle[-1])
            if nxt is None:
                break
            oracle.append(nxt)
        assert seen == oracle[1:]

    def test_every_match_is_unique_along_a_run(self):
        _, _, stats = self._run(ZIGZAG, "1")
        assert stats.match_multiplicity_max == 1

    def test_modes_agree_end_to_end(self):
        sim = gen_sim(RUN3)
        a, sa = run_program(sim.program, initial_graph("1", RUN3.start),
                            mode="semantic", max_rule_calls=200_000)
        b, sb = run_program(sim.program, initial_graph("1", RUN3.start),
                            mode="efficient", max_rule_calls=200_000)
        assert a.graph == b.graph
        assert (sa.rule_calls, sa.mutations) == (sb.rule_calls, sb.mutations)

    def test_all_intermediate_graphs_bounded(self):
        sim = gen_sim(RUN3)
        interp = Interp(mode="semantic", max_rule_calls=200_000,
                        apply_hook=lambda name, g: _assert_bounded(g))
        cfg = interp.run(sim.program, initial_graph("1", RUN3.start))
        assert isinstance(cfg, Done)


def critical_sites(coms, found):
    """The distinct loops, ifs and tries of an inlined program; shared
    procedure bodies make some of them reachable more than once."""
    for c in coms:
        if isinstance(c, Seq):
            critical_sites(c.parts, found)
        elif isinstance(c, (If, Try)):
            found.setdefault(id(c), c)
            critical_sites((c.cond, c.then, c.els), found)
        elif isinstance(c, Loop):
            found.setdefault(id(c), c)
            critical_sites((c.body,), found)
    return list(found.values())


# (kind, snapshot) of each critical site of a generated program, in the
# order critical_sites finds them; every machine gives the same list.
SITE_SNAPSHOTS = [
    ("Loop", True), ("Loop", True), ("Try", False), ("Try", False),
    ("Try", False), ("Loop", False), ("Loop", True), ("Try", False),
    ("Try", False), ("If", False), ("Loop", False), ("Try", False),
    ("Try", False), ("Try", False), ("Loop", False), ("Loop", True),
    ("Try", False), ("Loop", True), ("Try", False), ("Try", False),
    ("If", False), ("Loop", False), ("Try", False), ("Try", False),
    ("Loop", False), ("Try", False), ("Try", False), ("Try", False),
    ("Loop", False), ("Loop", False), ("Try", False), ("Loop", False),
    ("Try", False), ("Loop", False),
]


class TestBacktracking:
    """Where semantic mode snapshots the host in the generated program."""

    # The two machines equal fixtures/filler.tm and fixtures/count.tm, so
    # these are the five fixture machines.
    @pytest.mark.parametrize("make", [filler_machine, counter_machine] + [
        pytest.param(partial(fixture_machine, n), id=n)
        for n in ("empty", "ones", "stamp")])
    def test_five_of_34_critical_sites_need_a_snapshot(self, make):
        sim = gen_sim(make())
        procs = sim.program.procedures

        def runs(name, body):
            """Whether body is procedure name, inlined at some call site."""
            coms = procs[name]
            if len(coms) == 1:
                return body is coms[0]
            return isinstance(body, Seq) and body.parts is coms

        sites = critical_sites(sim.program.main, {})
        _, snapshot = analysis(Seq(sim.program.main))
        assert [(type(s).__name__, snapshot[s]) for s in sites] \
            == SITE_SNAPSHOTS
        need = [s for s in sites if snapshot[s]]
        assert all(isinstance(s, Loop) for s in need)
        assert need[0] is sim.outer_loop
        assert [next(n for n in procs if runs(n, s.body)) for s in need[1:]] \
            == ["Simulate", "Decrement", "Decoding", "Increment"]

    @pytest.mark.parametrize("make, inp, mode, snapshots", [
        (filler_machine, unary(4), "semantic", 13_573),
        (counter_machine, counter_input(8), "semantic", 4_103),
        (counter_machine, counter_input(8), "efficient", 0),
    ])
    def test_snapshot_count(self, make, inp, mode, snapshots):
        m = make()
        interp = Interp(mode=mode)
        cfg = interp.run(gen_sim(m).program, initial_graph(inp, m.start))
        assert isinstance(cfg, Done)
        assert interp.stats.snapshots == snapshots

    # copies is restarts + 1: filler unary(4) restarts twice.
    @pytest.mark.parametrize("make, inp, copies", [
        (filler_machine, unary(4), 3),
        (counter_machine, counter_input(8), 1),
    ])
    def test_journal_stays_within_graph_space(self, monkeypatch, make, inp,
                                              copies):
        """The paper's O(s(n)) space: semantic mode copies the host once per
        pass of the outer loop (restarts + 1), and every save nested in
        that pass rolls back from a journal that stays within a constant
        times the peak graph space.  The records each rollback pops are
        pinned: on both runs one rollback happens and pops none, so any
        change to how the generated program backtracks shows here."""
        longest = marks = copied = 0
        rollbacks = []
        mark, rollback, copy = Graph.mark, Graph.rollback, Graph.copy

        def marking(G):
            nonlocal marks
            marks += 1
            return mark(G)

        def copying(G):
            nonlocal copied
            copied += 1
            return copy(G)

        def measuring(method):
            def measured(G, m):
                nonlocal longest
                longest = max(longest, len(G._log or ()))
                method(G, m)
            return measured

        def rolling(G, m):
            rollbacks.append(len(G._log) - m.at)
            rollback(G, m)
        m = make()
        program, host = gen_sim(m).program, initial_graph(inp, m.start)
        monkeypatch.setattr(Graph, "mark", marking)
        monkeypatch.setattr(Graph, "copy", copying)
        monkeypatch.setattr(Graph, "rollback", measuring(rolling))
        monkeypatch.setattr(Graph, "release", measuring(Graph.release))
        interp = Interp(mode="semantic")
        interp.run(program, host)
        st = interp.stats
        assert copied == copies
        assert marks == st.snapshots
        assert 0 < longest <= 5 * st.peak_graph_space
        assert rollbacks == [0]

    def test_efficient_mode_opens_no_journal(self, monkeypatch):
        def marking(G):
            raise AssertionError("efficient mode opened a journal")

        def copying(G):
            raise AssertionError("efficient mode copied the host")
        m = counter_machine()
        program, host = gen_sim(m).program, initial_graph(counter_input(8), m.start)
        monkeypatch.setattr(Graph, "mark", marking)
        monkeypatch.setattr(Graph, "copy", copying)
        interp = Interp(mode="efficient")
        cfg = interp.run(program, host)
        assert isinstance(cfg, Done)


def observe(interp_class, program, m, inp, mode):
    """Final graph text, counters (all but snapshots) and loop_hook stream
    of one run of program from the initial graph of inp."""
    hooks = []
    interp = interp_class(mode=mode, loop_hook=lambda loop, G, st: hooks.append(
        (id(loop), st.rule_calls, st.mutations)))
    cfg = interp.run(program, initial_graph(inp, m.start))
    assert isinstance(cfg, Done)
    counters = {k: v for k, v in vars(interp.stats).items() if k != "snapshots"}
    return to_text(cfg.graph), counters, hooks


@pytest.mark.parametrize("m, inp, mode", [
    *(pytest.param(fixture_machine(name), inp, mode, id=f"{name}-{inp}-{mode}")
      for name, inp, mode in [
          ("stamp", unary(2), "semantic"),
          ("stamp", unary(2), "efficient"),
          ("count", counter_input(3), "semantic"),
          ("count", counter_input(3), "efficient"),
          ("filler", unary(1), "semantic"),
          ("filler", unary(1), "efficient"),
          ("filler", unary(4), "efficient"),
      ]),
    # Its Simulate! body fails after rewriting the host, so the final graph
    # shows whether Interp rolled back to the save at that loop.
    pytest.param(UNDERFLOW, "1", "semantic", id="underflow-1-semantic"),
])
def test_generated_program_follows_the_step_relation(m, inp, mode):
    """Interp runs the generated program as the small-step relation does.
    StepInterp saves the host at every condition and loop body in semantic
    mode and checks every discarded run in efficient mode, whatever the
    site's snapshot choice, so this checks those choices, the journal and
    the closures on the real program."""
    program = gen_sim(m).program
    got = observe(Interp, program, m, inp, mode)
    assert got == observe(StepInterp, program, m, inp, mode)
    assert got[1]["rule_calls"] > 0 and got[2]


@pytest.mark.parametrize("interp_class", [Interp, StepInterp])
def test_failed_simulate_body_is_a_null_failure(interp_class):
    """In efficient mode the failed Simulate! body of UNDERFLOW, which
    mutated the host, raises in both interpreters."""
    program = gen_sim(UNDERFLOW).program
    with pytest.raises(NullFailureViolation, match="failing loop body"):
        interp_class(mode="efficient").run(program, initial_graph("1", UNDERFLOW.start))
