"""Parser and interpreter checks: grammar shapes, inlining, one test per
inference rule of the step relation, and random programs on which the
evaluator must agree with that relation."""

from __future__ import annotations

from random import Random

import pytest

from minigp.graphs import Graph, Label, to_text
from minigp.lang import (
    _FAIL,
    _OK,
    Break,
    BreakOutsideLoop,
    BudgetExceeded,
    Done,
    Fail,
    If,
    Interp,
    Loop,
    NullFailureViolation,
    ParseError,
    RecursiveProcedure,
    RuleCall,
    Seq,
    Try,
    UnknownRule,
    parse_program,
)
from minigp.rules import Rule
from util import (Running, StepInterp, analysis, is_terminal, restore,
                  run_program)


def node_rule(name, before, after, extra=0):
    """Relabel the root from `before` to `after`, adding `extra` new nodes."""
    left = Graph()
    left.add_node(Label(before), root=True)
    right = Graph()
    right.add_node(Label(after), root=True)
    for _ in range(extra):
        right.add_node(Label(7))
    return Rule(name, left, right, {0: 0})


LIB = {
    "a": [node_rule("a", 0, 1)],
    "b": [node_rule("b", 1, 2)],
    "c": [node_rule("c", 2, 3)],
    "back": [node_rule("back", 1, 0)],
    "never": [node_rule("never", 99, 99)],
    "probe": [node_rule("probe", 0, 0)],
    "grow": [node_rule("grow", 0, 0, extra=1)],
}


def host(label=0):
    g = Graph()
    g.add_node(Label(label), root=True)
    return g


def parse(text):
    return parse_program(text, LIB)


class TestParse:
    def test_loop_over_rule(self):
        p = parse("Main = a!")
        (loop,) = p.main
        assert isinstance(loop, Loop)
        assert isinstance(loop.body, RuleCall)
        assert loop.body.names == ("a",)

    def test_set_call_and_try(self):
        p = parse("Main = {a,b}; try c then a else b")
        call, tr = p.main
        assert isinstance(call, RuleCall)
        assert call.names == ("a", "b")
        assert len(call.rules.rules) == 2
        assert isinstance(tr, Try)
        assert tr.cond.names == ("c",)
        assert tr.then.names == ("a",)
        assert tr.els.names == ("b",)

    def test_loop_binds_tighter_than_seq(self):
        p = parse("Main = a; b!")
        first, second = p.main
        assert isinstance(first, RuleCall)
        assert isinstance(second, Loop)

    def test_grouping(self):
        p = parse("Main = (a; b)!")
        (loop,) = p.main
        assert isinstance(loop.body, Seq)
        assert [c.names for c in loop.body.parts] == [("a",), ("b",)]

    def test_missing_branches_become_skip(self):
        p = parse("Main = if a then b\nOther = try a")
        (iff,) = p.main
        assert iff.els.names == ("skip",)
        (tr,) = p.procedures["Other"]
        assert tr.then.names == ("skip",)
        assert tr.els.names == ("skip",)

    def test_if_requires_then(self):
        with pytest.raises(ParseError):
            parse("Main = if a")

    def test_procedure_inlining(self):
        p = parse("Main = P; a\nP = b; c")
        seq, call = p.main
        assert isinstance(seq, Seq)
        assert [c.names for c in seq.parts] == [("b",), ("c",)]
        assert call.names == ("a",)

    def test_single_command_procedure_inlines_bare(self):
        p = parse("Main = P!\nP = a")
        (loop,) = p.main
        assert isinstance(loop.body, RuleCall)

    def test_forward_reference(self):
        p = parse("Main = Later\nLater = a")
        (call,) = p.main
        assert call.names == ("a",)

    def test_recursion_rejected(self):
        with pytest.raises(RecursiveProcedure):
            parse("Main = P\nP = Q\nQ = P")
        with pytest.raises(RecursiveProcedure):
            parse("Main = a; Main")

    def test_unknown_name(self):
        with pytest.raises(UnknownRule):
            parse("Main = zzz")
        with pytest.raises(UnknownRule):
            parse("Main = {a, zzz}")

    def test_procedure_not_allowed_in_set(self):
        with pytest.raises(ParseError):
            parse("Main = {a, P}\nP = b")

    def test_break_placement(self):
        parse("Main = (a; break)!")
        parse("Main = (if a then break)!")
        parse("Main = (try a then b else break)!")
        with pytest.raises(BreakOutsideLoop):
            parse("Main = break")
        with pytest.raises(BreakOutsideLoop):
            parse("Main = if a then break")
        with pytest.raises(BreakOutsideLoop):
            parse("Main = (if break then a)!")

    def test_break_in_procedure_checked_at_call_site(self):
        parse("Main = (P)!\nP = a; break")
        with pytest.raises(BreakOutsideLoop):
            parse("Main = P\nP = a; break")

    def test_declaration_errors(self):
        with pytest.raises(ParseError):
            parse("Main = a\nMain = b")
        with pytest.raises(ParseError):
            parse("Main = a\na = b")
        with pytest.raises(ParseError):
            parse("Other = a")
        with pytest.raises(ParseError):
            parse("Main = a)")
        with pytest.raises(ParseError):
            parse("Main = a $ b")
        with pytest.raises(ParseError):
            parse("Main = (a; b")

    def test_entry_selection(self):
        p = parse("Main = a\nAux = b")
        assert p.main[0].names == ("a",)
        assert p.procedures["Aux"][0].names == ("b",)
        with pytest.raises(ParseError):
            parse("Aux = a")
        # Only Main is checked for a break outside any loop.
        aux = parse("Main = a\nAux = break").procedures["Aux"]
        assert isinstance(aux[0], Break)

    def test_comments_and_blanks(self):
        p = parse("# header\n\nMain = a  # trailing\n")
        assert p.main[0].names == ("a",)


def step_once(text, g, mode="semantic"):
    p = parse(text)
    interp = StepInterp(mode=mode)
    return interp, interp.step(Running(p.main, g))


class TestStep:
    def test_call_success(self):
        interp, cfg = step_once("Main = a", host())
        assert isinstance(cfg, Done)
        assert cfg.graph.nodes[0] == Label(1)
        assert interp.stats.rule_calls == 1

    def test_call_failure(self):
        interp, cfg = step_once("Main = never", host())
        assert cfg == Fail()

    def test_seq_advances(self):
        p = parse("Main = a; b")
        interp = StepInterp()
        cfg = interp.step(Running(p.main, host()))
        assert isinstance(cfg, Running)
        assert cfg.prog == (p.main[1],)
        assert cfg.graph.nodes[0] == Label(1)

    def test_if_success_discards_condition_graph(self):
        g = host()
        interp, cfg = step_once("Main = if grow then b else c", g)
        assert isinstance(cfg, Running)
        assert cfg.prog[0].names == ("b",)
        assert cfg.graph is g
        assert len(g.nodes) == 1

    def test_if_failure_takes_else(self):
        g = host()
        interp, cfg = step_once("Main = if never then b else c", g)
        assert cfg.prog[0].names == ("c",)
        assert cfg.graph is g

    def test_try_success_keeps_condition_graph(self):
        g = host()
        interp, cfg = step_once("Main = try a then b else c", g)
        assert cfg.prog[0].names == ("b",)
        assert cfg.graph.nodes[0] == Label(1)

    def test_try_failure_restores(self):
        g = host()
        snapshot = g.copy()
        interp, cfg = step_once("Main = try (grow; never) then b else c", g)
        assert cfg.prog[0].names == ("c",)
        assert cfg.graph is g
        assert g == snapshot
        assert interp.stats.mutations == 1

    def test_loop_iteration_continues(self):
        p = parse("Main = (a; back)!")
        interp = StepInterp()
        start = Running(p.main, host())
        cfg = interp.step(start)
        assert isinstance(cfg, Running)
        assert cfg.prog == start.prog
        assert cfg.graph.nodes[0] == Label(0)

    def test_loop_failure_restores_pre_iteration_graph(self):
        g = host()
        snapshot = g.copy()
        interp, cfg = step_once("Main = (grow; never)!", g)
        assert isinstance(cfg, Done)
        assert cfg.graph is g
        assert g == snapshot

    def test_loop_body_break_ends_loop_with_break_graph(self):
        interp, cfg = step_once("Main = (a; break)!", host())
        assert isinstance(cfg, Done)
        assert cfg.graph.nodes[0] == Label(1)

    def test_break_discards_continuation(self):
        p = parse("Main = (break; a; b)!")
        (loop,) = p.main
        interp = StepInterp()
        body = loop.body
        cfg = interp.step(Running((body.parts), host()))
        assert isinstance(cfg, Running)
        assert len(cfg.prog) == 1 and isinstance(cfg.prog[0], Break)
        assert is_terminal(cfg)

    def test_step_rejects_terminals(self):
        interp = StepInterp()
        with pytest.raises(ValueError):
            interp.step(Done(host()))
        with pytest.raises(ValueError):
            interp.step(Running((Break(),), host()))

    def test_loop_hook_skips_break_iterations(self):
        seen = []
        p = parse("Main = (a; break)!")
        interp = Interp(mode="semantic",
                        loop_hook=lambda node, g, st: seen.append(g.nodes[0].atom))
        cfg = interp.run(p, host())
        assert isinstance(cfg, Done)
        assert cfg.graph.nodes[0] == Label(1)
        assert seen == []

    def test_loop_hook_counts_iterations(self):
        seen = []
        text = "Main = (a; back)!"
        interp = Interp(mode="semantic", max_rule_calls=10,
                        loop_hook=lambda n, g, s: seen.append(1))
        with pytest.raises(BudgetExceeded):
            interp.run(parse(text), host())
        assert len(seen) == 5


class TestRun:
    def test_sequence(self):
        cfg, stats = run_program(parse("Main = a; b; c"), host())
        assert isinstance(cfg, Done)
        assert cfg.graph.nodes[0] == Label(3)
        assert stats.rule_calls == 3
        assert stats.mutations == 3
        assert stats.rule_applications == {"a": 1, "b": 1, "c": 1}

    def test_failure_propagates(self):
        cfg, stats = run_program(parse("Main = a; never; b"), host())
        assert cfg == Fail()
        assert stats.rule_calls == 2

    def test_failed_loop_counts_one_call(self):
        cfg, stats = run_program(parse("Main = never!"), host())
        assert isinstance(cfg, Done)
        assert stats.rule_calls == 1
        assert cfg.graph == host()

    def test_skip_applies_without_mutating(self):
        cfg, stats = run_program(parse("Main = if never then a"), host())
        assert isinstance(cfg, Done)
        assert stats.rule_calls == 2
        assert stats.mutations == 0
        assert stats.rule_applications["skip"] == 1

    def test_nested_loops(self):
        text = "Main = ((a; break)!; (b; break)!; c)!"
        cfg, stats = run_program(parse(text), host(), max_rule_calls=50)
        assert isinstance(cfg, Done)
        assert cfg.graph.nodes[0] == Label(3)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            run_program(parse("Main = probe!"), host(), max_rule_calls=10)

    def test_match_multiplicity(self):
        two = Graph()
        r = two.add_node(Label(0), root=True)
        for _ in range(2):
            v = two.add_node(Label(1))
            two.add_edge(r, v, Label(None))
        left = Graph()
        lr = left.add_node(Label(0), root=True)
        lv = left.add_node(Label(1))
        left.add_edge(lr, lv, Label(None))
        pick = Rule("pick", left, left.copy(), {lr: lr, lv: lv})
        prog = parse_program("Main = pick", {"pick": [pick]})
        cfg, stats = run_program(prog, two)
        assert isinstance(cfg, Done)
        assert stats.match_multiplicity_max == 2

    def test_peak_space_counts_condition_copies(self):
        cfg, stats = run_program(parse("Main = try (grow; grow; never) then a"), host())
        assert isinstance(cfg, Done)
        assert stats.peak_graph_space == 3
        assert stats.peak_nodes == 3
        assert cfg.graph == host()


class TestModes:
    def test_modes_agree_on_infinite_clean_loop(self):
        text = "Main = (if probe then (a; back) else never)!"
        sem = Interp(mode="semantic", max_rule_calls=40)
        eff = Interp(mode="efficient", max_rule_calls=40)
        with pytest.raises(BudgetExceeded):
            sem.run(parse(text), host())
        with pytest.raises(BudgetExceeded):
            eff.run(parse(text), host())
        assert sem.stats.rule_calls == eff.stats.rule_calls == 40
        assert sem.stats.mutations == eff.stats.mutations

    def test_modes_agree_end_to_end(self):
        text = "Main = try a then (b; c) else never; probe!"
        cfg1, st1 = run_program(parse(text), host(), mode="semantic")
        g2 = host()
        cfg2, st2 = run_program(parse(text), g2, mode="efficient")
        assert isinstance(cfg1, Done) and isinstance(cfg2, Done)
        assert cfg1.graph == cfg2.graph
        assert cfg1.graph.nodes[0] == Label(3)
        assert cfg2.graph is g2
        assert (st1.rule_calls, st1.mutations) == (st2.rule_calls, st2.mutations)

    def test_efficient_flags_mutating_failed_loop_body(self):
        with pytest.raises(NullFailureViolation):
            run_program(parse("Main = (grow; never)!"), host(), mode="efficient")

    def test_efficient_flags_mutating_failed_condition(self):
        with pytest.raises(NullFailureViolation):
            run_program(parse("Main = try (grow; never) then a"), host(), mode="efficient")

    def test_efficient_flags_mutating_if_condition_success(self):
        with pytest.raises(NullFailureViolation):
            run_program(parse("Main = if grow then a"), host(), mode="efficient")

    def test_efficient_allows_kept_try_condition(self):
        cfg, stats = run_program(parse("Main = try grow then probe"), host(), mode="efficient")
        assert isinstance(cfg, Done)
        assert len(cfg.graph.nodes) == 2

    def test_efficient_allows_noop_if_condition(self):
        cfg, stats = run_program(parse("Main = if probe then a else b"), host(), mode="efficient")
        assert isinstance(cfg, Done)
        assert cfg.graph.nodes[0] == Label(1)

    def test_semantic_restore_is_id_level(self):
        g = host()
        g.add_node(Label(5))
        before = to_text(g)
        cfg, _ = run_program(parse("Main = (grow; grow; never)!"), g)
        assert cfg.graph is g
        assert to_text(g) == before


def command(text):
    (com,) = parse("Main = " + text).main
    return com


def flags(com):
    """com's effects: (may_fail, may_mutate, may_fail_after_mutating)."""
    return analysis(com)[0][com]


def saves(site):
    """Whether the critical site (an If, Try or Loop) saves the host."""
    return analysis(site)[1][site]


class TestEffects:
    """The effects the build pass derives, one test per command kind, and
    the snapshot choice of each kind of critical site."""

    def test_rule_call(self):
        assert flags(command("grow")) == (True, True, False)
        assert flags(command("probe")) == (True, False, False)
        assert flags(command("{grow, skip}")) == (False, True, False)
        assert flags(command("{probe, skip}")) == (False, False, False)

    def test_break(self):
        assert flags(command("(break)!").body) == (False, False, False)

    def test_seq_fails_after_mutating_only_in_that_order(self):
        dirty, clean = command("(grow; never)!"), command("(never; grow)!")
        assert flags(dirty.body) == (True, True, True)
        assert flags(clean.body) == (True, True, False)
        assert saves(dirty)
        assert not saves(clean)
        assert saves(command("((grow; never)!; a)!"))

    def test_loop_never_fails(self):
        loop = command("(grow; never)!")
        assert flags(loop) == (False, True, False)
        assert not saves(command("(a; (grow; never)!)!"))

    def test_if_condition_snapshots_only_if_it_may_mutate(self):
        clean, dirty = command("if probe then a"), command("if grow then a")
        assert not saves(clean)
        assert saves(dirty)
        assert flags(clean) == flags(dirty) == (True, True, False)
        assert flags(command("if grow then probe")) == (True, False, False)
        assert flags(command("if probe then probe else grow")) == \
            (True, True, False)
        assert saves(command("((if probe then probe else grow); never)!"))

    def test_try_condition_and_then_branch(self):
        loop = command("(try grow then never)!")
        assert flags(loop.body) == (True, True, True)
        assert saves(loop)
        assert not saves(loop.body)
        assert saves(command("try (grow; never) then a"))
        assert flags(command("try never then probe else grow")) == \
            (True, True, False)
        assert flags(command("try grow then {probe, skip}")) == \
            (False, True, False)
        for text in ("(try grow)!", "(try probe then never)!",
                     "(try never then grow)!"):
            assert not saves(command(text)), text

    @pytest.mark.parametrize("text, snapshots", [
        ("(grow; never)!", 1),
        ("(never; grow)!", 0),
        ("(if probe then a else never)!", 0),
        ("if grow then a", 1),
        ("(try grow then never)!", 1),
        ("try (grow; never) then a else b", 1),
    ])
    def test_semantic_mode_counts_snapshots(self, text, snapshots):
        sem = Interp(mode="semantic", max_rule_calls=20)
        sem.run(parse("Main = " + text), host())
        assert sem.stats.snapshots == snapshots
        eff = Interp(mode="efficient", max_rule_calls=20)
        try:
            eff.run(parse("Main = " + text), host())
        except NullFailureViolation:
            pass
        assert eff.stats.snapshots == 0

    @pytest.mark.parametrize("mode", ["semantic", "efficient"])
    @pytest.mark.parametrize("keep", [False, True])
    def test_snapshot_free_site_runs_bare(self, mode, keep):
        """An if discards its condition's successful run; a try and a loop
        keep it."""
        def run(G):
            return _OK
        sites = ([command("try a"), command("a!")] if keep
                 else [command("if a then b")])
        interp = Interp(mode=mode)
        for site in sites:
            assert interp._critical(site, run, False) is run


class TestBreakEscape:
    """The parser rejects these placements; hand-built ASTs still reach run."""

    @pytest.mark.parametrize("mode", ["semantic", "efficient"])
    def test_break_escaping_the_program(self, mode):
        (call,) = parse("Main = a").main
        for prog in (Break(), Seq((call, Break()))):
            with pytest.raises(RuntimeError, match="escaped the program"):
                Interp(mode=mode).run(prog, host())

    @pytest.mark.parametrize("mode", ["semantic", "efficient"])
    @pytest.mark.parametrize("construct", [If, Try])
    def test_break_escaping_a_condition(self, mode, construct):
        a, never = parse("Main = a; never").main
        cond = construct(Seq((a, Break())), a, never)
        for prog in (cond, Loop(cond)):
            with pytest.raises(RuntimeError, match="escaped a condition"):
                Interp(mode=mode).run(prog, host())


NAMES = sorted(LIB) + ["skip"]


def random_command(rng, depth, in_loop):
    """Program text for one random command.  Break appears only where the
    parser allows it: in a loop body, outside any condition."""
    kinds = ["call"] * 3 + (["break"] if in_loop else [])
    if depth > 0:
        kinds += ["seq", "if", "try", "loop"]
    kind = rng.choice(kinds)
    if kind == "call":
        names = rng.sample(NAMES, rng.randint(1, 2))
        return names[0] if len(names) == 1 else "{" + ", ".join(names) + "}"
    if kind == "break":
        return "break"

    def sub(loop=in_loop):
        return "(" + random_command(rng, depth - 1, loop) + ")"

    if kind == "seq":
        return "(" + "; ".join(sub() for _ in range(rng.randint(2, 3))) + ")"
    if kind == "loop":
        return sub(loop=True) + "!"
    text = f"{kind} {sub(loop=False)}"
    if kind == "if" or rng.random() < 0.7:
        text += f" then {sub()}"
    if rng.random() < 0.7:
        text += f" else {sub()}"
    return text


def random_host(rng):
    g = Graph()
    for _ in range(rng.randint(1, 2)):
        g.add_node(Label(rng.randint(0, 3)), root=True)
    for _ in range(rng.randint(0, 2)):
        g.add_node(Label(7))
    return g


# The rule-call budget does not bound a loop that calls no rule, such as
# `((break)!)!`, which the random programs can hold, so the random tests
# also budget loop iterations through loop_hook.
MAX_ITERATIONS = 200


def observe(interp_class, mode, prog, g):
    """Outcome, counters and loop_hook calls of one run on a copy of g.
    Interp's Done must carry that copy itself: it rewrites one host.  Both
    interpreters fire loop_hook at the same points, so the iteration budget
    stops them at the same iteration."""
    hooks = []

    def hook(loop, h, st):
        hooks.append((id(loop), to_text(h), st.rule_calls, st.mutations))
        if len(hooks) > MAX_ITERATIONS:
            raise BudgetExceeded("loop-iteration budget exhausted")

    interp = interp_class(mode=mode, max_rule_calls=60, loop_hook=hook)
    try:
        host = g.copy()
        cfg = interp.run(prog, host)
        if isinstance(cfg, Done):
            assert interp_class is not Interp or cfg.graph is host, mode
            end = ("Done", to_text(cfg.graph))
        else:
            end = ("Fail",)
    except (BudgetExceeded, NullFailureViolation) as e:
        end = (type(e).__name__, str(e))
    st = interp.stats
    return (end, st.rule_calls, st.mutations, st.peak_graph_space,
            st.peak_nodes, st.match_multiplicity_max, st.rule_applications,
            hooks)


def test_run_agrees_with_step_on_random_programs():
    """Interp.run and the small-step reference agree in both modes, and the
    modes agree unless efficient mode raises NullFailureViolation."""
    rng = Random(20261018)
    ends = []
    for _ in range(400):
        prog = parse("Main = " + random_command(rng, rng.randint(1, 4), False))
        g = random_host(rng)
        got = {}
        for mode in ("semantic", "efficient"):
            got[mode] = observe(Interp, mode, prog, g)
            assert got[mode] == observe(StepInterp, mode, prog, g), mode
        sem, eff = got["semantic"], got["efficient"]
        assert sem[0][0] != "NullFailureViolation"
        if eff[0][0] != "NullFailureViolation":
            assert sem == eff
        ends.append((eff[0][0], bool(eff[-1])))
    kinds = {end for end, _ in ends}
    assert kinds == {"Done", "Fail", "BudgetExceeded", "NullFailureViolation"}
    assert sum(hooked for _, hooked in ends) >= 30


class SiteCheck(Interp):
    """Interp that checks each critical run against its site's snapshot
    choice: a discarded run without a snapshot must leave the host
    as it found it (both modes), and NullFailureViolation must come from a
    site that needs one (efficient mode).  Loop iterations are budgeted
    as in observe."""

    def __init__(self, **kw):
        super().__init__(loop_hook=self.count_iteration, **kw)
        self.iterations = 0
        self.skipped = 0
        self.raised_at = None

    def count_iteration(self, loop, G, stats):
        self.iterations += 1
        if self.iterations > MAX_ITERATIONS:
            raise BudgetExceeded("loop-iteration budget exhausted")

    def _critical(self, site, run, snapshot):
        inner = super()._critical(site, run, snapshot)
        keep = not isinstance(site, If)

        def checked(G):
            before = (to_text(G), G.next_node_id, G.next_edge_id)
            try:
                status = inner(G)
            except NullFailureViolation:
                if self.raised_at is None:
                    self.raised_at = snapshot
                raise
            if not snapshot and (status is _FAIL or (status is _OK and not keep)):
                self.skipped += 1
                assert (to_text(G), G.next_node_id, G.next_edge_id) == before
            return status
        return checked


def test_snapshot_free_sites_never_raise_null_failure():
    """On random programs, efficient mode raises NullFailureViolation only
    from a site that needs a snapshot, and in both modes a discarded run at
    a site without one changes nothing.  Efficient mode runs such sites
    unchecked, so this is the only guard there."""
    rng = Random(20261019)
    skipped = {"semantic": 0, "efficient": 0}
    raised = 0
    for _ in range(400):
        prog = parse("Main = " + random_command(rng, rng.randint(1, 4), False))
        g = random_host(rng)
        for mode in skipped:
            interp = SiteCheck(mode=mode, max_rule_calls=60)
            try:
                interp.run(prog, g.copy())
            except BudgetExceeded:
                pass
            except NullFailureViolation:
                assert mode == "efficient"
                assert interp.raised_at is True
                raised += 1
            skipped[mode] += interp.skipped
    assert raised >= 20
    assert min(skipped.values()) >= 150


class CopyEverySave(Interp):
    """Semantic mode with a copy at every save, as before the journal:
    the reference that journalled semantic mode must agree with."""

    def _critical(self, site, run, snapshot):
        if not snapshot:
            return run
        stats, keep = self.stats, not isinstance(site, If)

        def restoring(G):
            stats.snapshots += 1
            saved = G.copy()
            status = run(G)
            if status is _FAIL or (status is _OK and not keep):
                restore(G, saved)
            return status
        return restoring


def nested_saves(com, snapshot, inside=False):
    """Whether com holds a site that saves the host inside another;
    snapshot maps each site to its choice."""
    sites = []
    if isinstance(com, Loop):
        sites = [(com.body, snapshot[com])]
    elif isinstance(com, (If, Try)):
        sites = [(com.cond, snapshot[com]), (com.then, False),
                 (com.els, False)]
    elif isinstance(com, Seq):
        sites = [(p, False) for p in com.parts]
    return any((inside and save) or nested_saves(sub, snapshot, inside or save)
               for sub, save in sites)


def test_journal_agrees_with_copying_every_save(monkeypatch):
    """On random programs that nest snapshot sites, semantic mode, which
    copies at the outermost save and rolls nested ones back from the
    journal, ends with the same graph, counters and id counters as
    copying at every save."""
    undone = copies = 0
    rollback, copy = Graph.rollback, Graph.copy

    def counting(G, mark):
        nonlocal undone
        before = to_text(G)
        rollback(G, mark)
        undone += mark.saved is None and to_text(G) != before

    def copying(G):
        nonlocal copies
        copies += 1
        return copy(G)
    monkeypatch.setattr(Graph, "rollback", counting)
    monkeypatch.setattr(Graph, "copy", copying)

    iterations = 0

    def budget(loop, G, stats):
        nonlocal iterations
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise BudgetExceeded("loop-iteration budget exhausted")

    rng = Random(20261021)
    checked = journalled = 0
    while checked < 150:
        (com,) = parse("Main = " + random_command(rng, rng.randint(2, 5), False)).main
        if not nested_saves(com, analysis(com)[1]):
            continue
        checked += 1
        g = random_host(rng)
        got = []
        for cls in (CopyEverySave, Interp):
            interp = cls(mode="semantic", max_rule_calls=60, loop_hook=budget)
            iterations = 0
            host = g.copy()
            copies = 0
            try:
                end = type(interp.run(com, host)).__name__
            except BudgetExceeded as e:
                end = str(e)
            st = interp.stats
            got.append((end, to_text(host), host.next_node_id,
                        host.next_edge_id, st.rule_calls, st.mutations,
                        st.snapshots, st.peak_graph_space, st.peak_nodes,
                        st.match_multiplicity_max, st.rule_applications,
                        iterations))
        assert got[0] == got[1]
        journalled += copies < st.snapshots
    assert journalled >= 80
    assert undone >= 60
