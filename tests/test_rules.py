"""Rule application: dangling condition, deletion/relabelling, rule sets."""

import random
from collections import Counter

import pytest

from minigp import lang, rules
from minigp.compiler import gen_sim
from minigp.errors import InputError
from minigp.graphs import EMPTY, Graph, Label, graph_space, to_text
from minigp.harness import run_sim
from minigp.machines import counter_machine, filler_machine
from minigp.rules import (
    DanglingViolation,
    Outcome,
    Rule,
    RuleSet,
    apply,
    apply_ruleset,
    dangling_ok,
    rules_to_text,
)
from conftest import RANDOM_SEED
from util import (FAMILY_CHANGES, apply_reference, candidates_reference,
                  counter_input, dangling_ok_reference, family_hosts,
                  is_static_noop_reference, match_bruteforce, match_plan,
                  random_family, random_graph, random_rule_and_host, unary,
                  validate_host_graph)


def single(g):
    """The unique match of g's left side, for tests that know it exists."""
    rule, host = g
    ms = match_plan(rule.plan, host).matches
    assert len(ms) == 1
    return ms[0]


def relabel_rule(name, old, new):
    L = Graph()
    L.add_node(Label(old), root=True)
    R = Graph()
    R.add_node(Label(new), root=True)
    return Rule(name, L, R, {0: 0})


def delete_node_rule():
    """Root keeps, its red neighbour is deleted along with the edge."""
    L = Graph()
    r = L.add_node(Label(0), root=True)
    a = L.add_node(Label(1))
    L.add_edge(r, a, Label(None, "red"))
    R = Graph()
    R.add_node(Label(0), root=True)
    return Rule("del", L, R, {0: 0})


def isomorphic(a, b):
    if len(a.nodes) != len(b.nodes) or len(a.edges) != len(b.edges):
        return False
    return bool(match_bruteforce(a, b))


class TestDangling:
    def test_isolated_deleted_node_ok(self):
        r = delete_node_rule()
        G = Graph()
        x = G.add_node(Label(0), root=True)
        y = G.add_node(Label(1))
        G.add_edge(x, y, Label(None, "red"))
        assert dangling_ok(single((r, G)), r, G)

    def test_extra_incident_edge_blocks(self):
        r = delete_node_rule()
        G = Graph()
        x = G.add_node(Label(0), root=True)
        y = G.add_node(Label(1))
        G.add_edge(x, y, Label(None, "red"))
        G.add_edge(x, y, Label(None, "blue"))
        assert not dangling_ok(single((r, G)), r, G)

    def test_pure_relabelling_always_ok(self):
        r = relabel_rule("q2p", 0, 1)
        G = Graph()
        x = G.add_node(Label(0), root=True)
        y = G.add_node(Label(2))
        G.add_edge(y, x)
        G.add_edge(x, x)
        assert dangling_ok(single((r, G)), r, G)

    def test_apply_raises_on_violation(self):
        r = delete_node_rule()
        G = Graph()
        x = G.add_node(Label(0), root=True)
        y = G.add_node(Label(1))
        G.add_edge(x, y, Label(None, "red"))
        G.add_edge(y, y)
        m = single((r, G))
        with pytest.raises(DanglingViolation):
            apply(G, r, m)


class TestApply:
    def test_identity_rule_preserves_ids(self):
        L = Graph()
        L.add_node(Label(3), root=True)
        L.add_node(Label(4), root=True)
        R = Graph()
        R.add_node(Label(3), root=True)
        R.add_node(Label(4), root=True)
        r = Rule("id", L, R, {0: 0, 1: 1})
        G = Graph()
        G.add_node(Label(3), root=True, nid=10)
        G.add_node(Label(4), root=True, nid=11)
        H = apply(G.copy(), r, single((r, G)))
        assert H == G

    def test_relabel_only_central(self):
        r = relabel_rule("q2p", 5, 6)
        G = Graph()
        x = G.add_node(Label(5), root=True)
        y = G.add_node(Label(1))
        e = G.add_edge(x, y, Label(None, "green"))
        H = apply(G, r, single((r, G)))
        assert H.nodes[x] == Label(6)
        assert H.nodes[y] == Label(1)
        assert H.edges[e] == (x, y, Label(None, "green"))

    def test_in_place(self):
        r = relabel_rule("q2p", 5, 6)
        G = Graph()
        G.add_node(Label(5), root=True)
        H = apply(G, r, single((r, G)))
        assert H is G and G.nodes[0] == Label(6)

    def test_root_dropped_when_right_side_unroots(self):
        L = Graph()
        L.add_node(Label(0), root=True)
        R = Graph()
        R.add_node(Label(0))
        r = Rule("unroot", L, R, {0: 0})
        G = Graph()
        G.add_node(Label(0), root=True)
        H = apply(G, r, match_plan(r.plan, G).matches[0])
        assert H.roots == set()

    def test_new_root_added(self):
        L = Graph()
        L.add_node(Label(0), root=True)
        R = Graph()
        R.add_node(Label(0), root=True)
        R.add_node(Label(7), root=True)
        r = Rule("spawn", L, R, {0: 0})
        G = Graph()
        G.add_node(Label(0), root=True)
        H = apply(G, r, single((r, G)))
        assert len(H.roots) == 2 and H.nodes[1] == Label(7)

    def test_deletes_node_and_rewires(self):
        r = delete_node_rule()
        G = Graph()
        x = G.add_node(Label(0), root=True)
        y = G.add_node(Label(1))
        z = G.add_node(Label(9))
        G.add_edge(x, y, Label(None, "red"))
        G.add_edge(x, z)
        H = apply(G, r, single((r, G)))
        assert set(H.nodes) == {x, z}
        assert len(H.edges) == 1
        assert validate_host_graph(H) == []

    def test_frame_property(self):
        r = relabel_rule("q2p", 0, 1)
        G = Graph()
        x = G.add_node(Label(0), root=True)
        others = [G.add_node(Label(i)) for i in range(2, 6)]
        eids = [G.add_edge(a, b) for a, b in zip(others, others[1:])]
        H = apply(G.copy(), r, single((r, G)))
        assert H.nodes[x] == Label(1)
        for nid in others:
            assert H.nodes[nid] == G.nodes[nid]
        for eid in eids:
            assert H.edges[eid] == G.edges[eid]

    def test_inverse_restores_up_to_iso(self):
        L = Graph()
        L.add_node(Label(0), root=True)
        L.add_node(Label(1))
        L.add_edge(0, 1, Label(None, "red"))
        R = Graph()
        R.add_node(Label(0), root=True)
        R.add_node(Label(1))
        R.add_node(Label(2))
        R.add_edge(0, 1, Label(None, "green"))
        R.add_edge(0, 2, Label(None, "blue"))
        r = Rule("fwd", L, R, {0: 0, 1: 1})
        inv = Rule("bwd", R, L, {0: 0, 1: 1})
        G = Graph()
        x = G.add_node(Label(0), root=True)
        y = G.add_node(Label(1))
        G.add_edge(x, y, Label(None, "red"))
        H = apply(G.copy(), r, single((r, G)))
        assert not isomorphic(H, G)
        comatches = match_plan(inv.plan, H).matches
        assert len(comatches) == 1
        back = apply(H, inv, comatches[0])
        assert isomorphic(back, G)

    def test_result_is_valid_host(self):
        r = delete_node_rule()
        G = Graph()
        x = G.add_node(Label(0), root=True)
        y = G.add_node(Label(1))
        G.add_edge(x, y, Label(None, "red"))
        assert validate_host_graph(apply(G, r, single((r, G)))) == []


class TestApplyOracle:
    def test_agrees_with_reference_on_random_triples(self):
        """Dangling check, application and the static no-op test equal the
        graph-walking references on random (fast rule, host, match)
        triples, ids included."""
        rng = random.Random(23)
        triples = dangling = noops = 0
        while triples < 600:
            r, G = random_rule_and_host(rng)
            assert r.is_static_noop == is_static_noop_reference(r)
            noops += r.is_static_noop
            for h in match_plan(r.plan, G).matches:
                triples += 1
                ok = dangling_ok_reference(h, r, G)
                assert dangling_ok(h, r, G) == ok
                if not ok:
                    dangling += 1
                    with pytest.raises(DanglingViolation):
                        apply(G, r, h)
                    continue
                want = apply_reference(G, r, h)
                H = apply(G.copy(), r, h)
                assert to_text(H) == to_text(want)
                assert (H.next_node_id, H.next_edge_id) == \
                    (want.next_node_id, want.next_edge_id)
        assert 50 <= dangling <= triples - 300 and noops >= 5

    def test_may_grow_iff_an_application_raises_nodes_or_space(self):
        """An application changes the node count and the graph space by
        fixed amounts, so may_grow says exactly whether one raises either."""
        rng = random.Random(29)
        seen = {"space": 0, "nodes only": 0, "neither": 0}
        while sum(seen.values()) < 400:
            r, G = random_rule_and_host(rng)
            for h in match_plan(r.plan, G).matches:
                if not dangling_ok(h, r, G):
                    continue
                H = apply(G.copy(), r, h)
                if graph_space(H) > graph_space(G):
                    kind = "space"
                elif len(H.nodes) > len(G.nodes):
                    kind = "nodes only"
                else:
                    kind = "neither"
                assert r.may_grow == (kind != "neither"), kind
                seen[kind] += 1
        assert min(seen.values()) >= 30


class TestRuleSet:
    def test_empty_set_no_match(self):
        G = Graph()
        G.add_node(Label(0), root=True)
        out = apply_ruleset(G, RuleSet([]))
        assert out == Outcome(False, None, 0)

    def test_single_relabel(self):
        G = Graph()
        G.add_node(Label(0), root=True)
        out = apply_ruleset(G, RuleSet([relabel_rule("a", 0, 1)]))
        assert out.applied and out.rule.name == "a" and out.total_matches == 1
        assert G.nodes[0] == Label(1)

    def test_lone_rule_with_one_empty_side_is_applied(self):
        """Only a lone rule with two empty sides has a fixed outcome."""
        new, gone = Graph(), Graph()
        new.add_node(Label(7))
        gone.add_node(Label(5), root=True)
        G = Graph()
        G.add_node(Label(0), root=True)
        out = apply_ruleset(G, RuleSet([Rule("add", Graph(), new, {})]))
        assert out.applied and G.nodes == {0: Label(0), 1: Label(7)}
        out = apply_ruleset(G, RuleSet([Rule("drop", gone, Graph(), {})]))
        assert out == Outcome(False, None, 0)
        assert G.nodes == {0: Label(0), 1: Label(7)}

    def test_interface_pair_needs_both_sides(self):
        one = Graph()
        one.add_node(Label(0))
        for left, right in ((Graph(), one), (one, Graph())):
            with pytest.raises(InputError, match="not in both sides"):
                Rule("half", left, right, {0: 0})

    def test_declaration_order_wins(self):
        G = Graph()
        G.add_node(Label(0), root=True)
        rs = [relabel_rule("first", 0, 1), relabel_rule("second", 0, 2)]
        out = apply_ruleset(G, RuleSet(rs))
        assert out.rule.name == "first"
        assert out.total_matches == 2

    def test_dangling_failures_skipped(self):
        G = Graph()
        x = G.add_node(Label(0), root=True)
        y = G.add_node(Label(1))
        G.add_edge(x, y, Label(None, "red"))
        G.add_edge(y, y)
        out = apply_ruleset(G, RuleSet([delete_node_rule(),
                                        relabel_rule("fallback", 0, 3)]))
        assert out.rule.name == "fallback" and out.total_matches == 1

    def test_candidates_agree_with_linear_scan(self):
        """Scanning only the candidates gives the applied rule, match count
        and rewritten graph of a plain scan over every rule, on random rule
        lists mixing left sides with no, one and several roots; and every
        rule with a match is a candidate."""
        rng = random.Random(41)
        roots = {0: 0, 1: 0, 2: 0}
        applied = skipped = 0
        for _ in range(150):
            pairs = [random_rule_and_host(rng) for _ in range(rng.randint(1, 6))]
            rs = [r for r, _ in pairs]
            for r in rs:
                roots[min(len(r.left.roots), 2)] += 1
            ruleset = RuleSet(rs)
            hosts = [host for _, host in pairs]
            hosts.append(random_graph(rng, 6, [None, 0, 1], [None, "red"],
                                      [None, "red"]))
            for G in hosts:
                cands = ruleset.candidates(G)
                assert same_rules(cands.rules, candidates_reference(rs, G))
                for r in rs:
                    if match_plan(r.plan, G).matches:
                        assert any(r is c for c in cands.rules)
                skipped += len(rs) - len(cands)
                want, total = _linear_scan(rs, G.copy())
                out = apply_ruleset(G, ruleset)
                assert out.rule is (want[0] if want else None)
                assert out.total_matches == total
                if want:
                    assert to_text(G) == to_text(want[2])
                applied += out.applied and bool(out.rule.left.roots)
        assert min(roots.values()) >= 20 and applied >= 100 and skipped >= 100

    def test_groups_interleave_in_declared_order(self):
        """Rules of different left-root label sets interleave, and a rule
        with an empty left side is a candidate on every host, rootless
        ones included.  Grouping waits for the first memo miss and is kept
        for the later ones."""
        rs = [roots_rule("a1", 0), roots_rule("b1", 1), roots_rule("ab", 1, 0),
              Rule("skip", Graph(), Graph(), {}), roots_rule("a2", 0),
              roots_rule("b2", 1), roots_rule("aa", 0, 0), roots_rule("c", 2)]
        ruleset = RuleSet(rs)
        assert ruleset._groups is None
        want = {(): "skip", (0,): "a1 skip a2 aa", (1,): "b1 skip b2",
                (0, 1): "a1 b1 ab skip a2 b2 aa", (0, 0, 1): "a1 b1 ab skip a2 b2 aa",
                (3,): "skip", (2, 0): "a1 skip a2 aa c"}
        groups = None
        for atoms, names in want.items():
            G = Graph()
            for atom in atoms:
                G.add_node(Label(atom), root=True)
            G.add_node(Label(2))
            cands = ruleset.candidates(G)
            assert " ".join(r.name for r in cands.rules) == names
            assert same_rules(cands.rules, candidates_reference(rs, G))
            groups = groups or ruleset._groups
            assert ruleset._groups is groups
        assert sorted(i for _, at in groups for i in at) == list(range(len(rs)))
        assert len(groups) == 5

    def test_one_search_agrees_with_a_search_per_rule(self, monkeypatch):
        """On families of rules that share step prefixes, the scan's single
        search gives the applied rule, its first match, the match count
        and the rewritten graph of a scan that searches each rule alone
        and then checks the dangling condition."""
        rng = random.Random(RANDOM_SEED)
        given = []
        monkeypatch.setattr(rules, "apply",
                            lambda G, r, m: given.append(m) or apply(G, r, m))
        applied, several = Counter(), 0
        for _ in range(120):
            family, changes = random_family(rng)
            ruleset = RuleSet(family)
            for G in family_hosts(rng, family):
                H = G.copy()
                want, total = _linear_scan(family, H)
                given.clear()
                out = apply_ruleset(G, ruleset)
                assert out.rule is (want[0] if want else None)
                assert given == ([want[1]] if want else [])
                assert out.total_matches == total
                assert to_text(G) == to_text(H)
                if want is not None:
                    k = next(k for k, r in enumerate(family) if r is want[0])
                    applied[changes[k]] += 1
                several += total > len(given)
        assert min(applied[c] for c in FAMILY_CHANGES) >= 15, applied
        assert applied["base"] >= 15 and several >= 100, several

    @pytest.mark.parametrize("machine,input,misses", [
        ("filler", unary(4), 1288), ("counter", counter_input(8), 96)])
    def test_run_misses_agree_with_reference(self, monkeypatch, machine,
                                             input, misses):
        """Every memo miss of a simulator run returns the rules the plain
        filter over the whole set returns; each set groups its rules once.
        `skip` sets return before the memo, which drops the misses from
        1,501 to 1,288 (filler) and from 112 to 96 (counter)."""
        original = RuleSet.candidates
        seen = {"misses": 0, "groups": {}}

        def checked(rs, G):
            before = len(rs._memo)
            out = original(rs, G)
            if len(rs._memo) > before:
                seen["misses"] += 1
                assert same_rules(out.rules, candidates_reference(rs.rules, G))
                assert seen["groups"].setdefault(rs, rs._groups) is rs._groups
            return out

        monkeypatch.setattr(RuleSet, "candidates", checked)
        m = {"filler": filler_machine, "counter": counter_machine}[machine]()
        run_sim(m, input)
        assert seen["misses"] == misses

    def test_gen_sim_leaves_sets_ungrouped(self, monkeypatch):
        """Building a simulator groups no rule set and compiles no rule; a
        run compiles each rule at most once."""
        made = []

        class Recorded(RuleSet):
            def __init__(self, rules):
                super().__init__(rules)
                made.append(self)

        monkeypatch.setattr(lang, "RuleSet", Recorded)
        for m in (filler_machine(), counter_machine()):
            library = gen_sim(m).library.values()
            assert not any("plan" in vars(r) or "script" in vars(r)
                           for rs in library for r in rs)
        assert len(made) >= 30
        assert all(rs._groups is None and not rs._memo for rs in made)

        calls = Counter()

        def counted(name, fn):
            def wrapper(arg):
                calls[name] += 1
                return fn(arg)
            return wrapper

        for name in ("compile_plan", "compile_script"):
            monkeypatch.setattr(rules, name, counted(name, getattr(rules, name)))
        for mode in ("efficient", "semantic"):
            calls.clear()
            made.clear()
            run_sim(filler_machine(), unary(4), mode=mode)
            called = {id(r): r for rs in made for r in rs.rules}.values()
            for name in ("plan", "script"):
                have = [r for r in called if name in vars(r)]
                # A rule compiled twice would make the calls outnumber them.
                assert calls["compile_" + name] == len(have) > 12
                assert all(getattr(r, name) is getattr(r, name) for r in have)

    def test_dangling_checked_only_for_deleting_rules(self, monkeypatch):
        """The scan calls dangling_ok once per match of the node-deleting
        rule and never for the relabel rule after it, and reports what a
        scan that checks every match reports."""
        calls = []
        monkeypatch.setattr(rules, "dangling_ok",
                            lambda m, r, G: calls.append(r.name) or
                            dangling_ok(m, r, G))
        for valid in (False, True):
            G = Graph()
            x = G.add_node(Label(0), root=True)
            for _ in range(2):
                y = G.add_node(Label(1))
                G.add_edge(x, y, Label(None, "red"))
                G.add_edge(y, y)
            if valid:
                G.add_edge(x, G.add_node(Label(1)), Label(None, "red"))
            rs = [delete_node_rule(), relabel_rule("fallback", 0, 3)]
            want, total = _linear_scan(rs, G.copy())
            calls.clear()
            out = apply_ruleset(G, RuleSet(rs))
            # apply checks the match it is given once more.
            assert calls == ["del"] * (2 + valid) + ["del"] * valid
            assert out.rule is want[0] is rs[0 if valid else 1]
            assert out.total_matches == total == 1 + valid
            assert to_text(G) == to_text(want[2])

    def test_static_noop(self):
        skiplike = Rule("skip", Graph(), Graph(), {})
        assert skiplike.is_static_noop
        probe = Rule("probe", *_probe_sides(), {0: 0})
        assert probe.is_static_noop
        assert not relabel_rule("a", 0, 1).is_static_noop
        assert not delete_node_rule().is_static_noop
        # Its script deletes no node and changes no label or root, but
        # applying it deletes the matched edge.
        L = Graph()
        a = L.add_node(Label(0), root=True)
        b = L.add_node(Label(1))
        L.add_edge(a, b)
        R = Graph()
        R.add_node(Label(0), root=True)
        R.add_node(Label(1))
        cut = Rule("cut", L, R, {a: 0, b: 1})
        assert not any(cut.script)
        assert not cut.is_static_noop


def _linear_scan(rs, G):
    """The first applicable rule of rs with its first applicable match and
    the graph it rewrites G into in place, or None, and the number of
    applicable matches over all of rs.  Each rule is searched alone."""
    total, want = 0, None
    for r in rs:
        ok = [m for m in match_plan(r.plan, G).matches if dangling_ok(m, r, G)]
        total += len(ok)
        if ok and want is None:
            want = (r, ok[0])
    if want is not None:
        want = (*want, apply(G, *want))
    return want, total


def same_rules(got, want):
    return list(map(id, got)) == list(map(id, want))


def roots_rule(name, *atoms):
    """A rule that keeps root nodes labelled atoms and changes nothing."""
    L, R = Graph(), Graph()
    for atom in atoms:
        L.add_node(Label(atom), root=True)
        R.add_node(Label(atom), root=True)
    return Rule(name, L, R, {v: v for v in L.nodes})


def _probe_sides():
    L = Graph()
    L.add_node(Label(2, "red"), root=True)
    R = Graph()
    R.add_node(Label(2, "red"), root=True)
    return L, R


class TestSerialization:
    def test_text_format(self):
        rs = [delete_node_rule(), relabel_rule("a", 0, 1),
              Rule("skip", Graph(), Graph(), {})]
        assert rules_to_text(rs) == (
            "rule del\nleft\nnode 0 0 root\nnode 1 1\nedge 0 0 1 _ red\n"
            "right\nnode 0 0 root\ninterface 0=0\nend\n"
            "rule a\nleft\nnode 0 0 root\nright\nnode 0 1 root\n"
            "interface 0=0\nend\n"
            "rule skip\nleft\n\nright\n\ninterface\nend\n")
