"""Morphism checks, search plans, and matching vs the brute-force oracle."""

import random

import pytest

from minigp.graphs import EMPTY, Graph, Label
from minigp.matching import (
    MatchResult,
    NotFastRule,
    SearchPlan,
    compile_plan,
    match_all,
    search_tree,
)
from conftest import RANDOM_SEED
from util import (PartialMorphism, PlanMatches, check_morphism, family_hosts,
                  match_bruteforce, match_plan, morphism, random_family,
                  random_fast_lhs, random_graph, random_match_pair)


def two_node_graphs():
    L = Graph()
    a = L.add_node(Label(1), root=True)
    b = L.add_node(Label(2))
    e = L.add_edge(a, b, Label(None, "red"))
    G = Graph()
    x = G.add_node(Label(1), root=True)
    y = G.add_node(Label(2))
    f = G.add_edge(x, y, Label(None, "red"))
    return L, G


def morphisms(L, G):
    """match_all on L's compiled plan, with each match as a morphism."""
    plan = compile_plan(L)
    res = match_plan(plan, G)
    return PlanMatches([morphism(plan, m) for m in res.matches],
                       res.extensions)


class TestCheckMorphism:
    def test_empty_morphism(self):
        L, G = two_node_graphs()
        assert check_morphism(PartialMorphism(), L, G)

    def test_root_to_nonroot_rejected(self):
        L = Graph()
        L.add_node(Label(1), root=True)
        G = Graph()
        G.add_node(Label(1))
        assert not check_morphism(PartialMorphism({0: 0}), L, G)

    def test_nonroot_to_root_rejected(self):
        L = Graph()
        L.add_node(Label(1))
        G = Graph()
        G.add_node(Label(1), root=True)
        assert not check_morphism(PartialMorphism({0: 0}), L, G)

    def test_label_mismatch_rejected(self):
        L = Graph()
        L.add_node(Label(1))
        G = Graph()
        G.add_node(Label(2))
        assert not check_morphism(PartialMorphism({0: 0}), L, G)

    def test_node_injectivity(self):
        L = Graph()
        L.add_node(Label(1))
        L.add_node(Label(1))
        G = Graph()
        G.add_node(Label(1))
        assert not check_morphism(PartialMorphism({0: 0, 1: 0}), L, G)

    def test_edge_endpoint_consistency(self):
        L, G = two_node_graphs()
        ok = PartialMorphism({0: 0, 1: 1}, {0: 0})
        assert check_morphism(ok, L, G)
        flipped = PartialMorphism({0: 1, 1: 0}, {0: 0})
        assert not check_morphism(flipped, L, G)

    def test_mapped_edge_needs_mapped_endpoints(self):
        L, G = two_node_graphs()
        assert not check_morphism(PartialMorphism({}, {0: 0}), L, G)


class TestExtend:
    """Single extension steps of the search, on tiny left/host pairs."""

    def test_root_seed(self):
        L, G = two_node_graphs()
        L.remove_edge(0)
        L.remove_node(1)
        res = morphisms(L, G)
        assert [h.node_map for h in res.matches] == [{0: 0}]
        assert res.extensions == 1

    def test_conflicting_source_image(self):
        L, G = two_node_graphs()
        G2 = G.copy()
        z = G2.add_node(Label(1), root=True)
        f2 = G2.add_edge(z, 1, Label(None, "red"))
        res = morphisms(L, G2)
        # f2 leaves z, so it is only ever paired with the root seeded at z.
        assert sorted((h.node_map[0], h.edge_map[0]) for h in res.matches) \
            == [(0, 0), (z, f2)]

    def test_edge_extension_adds_endpoints(self):
        L, G = two_node_graphs()
        assert morphisms(L, G).matches == [PartialMorphism({0: 0, 1: 1},
                                                           {0: 0})]

    def test_extend_rejects_item_in_domain(self):
        L = Graph()
        a = L.add_node(Label(1), root=True)
        b = L.add_node(Label(1), root=True)
        L.add_edge(a, b)
        G = Graph()
        x = G.add_node(Label(1), root=True)
        y = G.add_node(Label(1), root=True)
        G.add_edge(x, y)
        # b is reached in a's walk, so it is never seeded.
        assert [st[0] for st in compile_plan(L).steps] == [-1, a]
        res = morphisms(L, G)
        assert [h.node_map for h in res.matches] == [{a: x, b: y}]
        assert res.extensions == 3

    def test_loop_edge_requires_loop_image(self):
        L = Graph()
        a = L.add_node(Label(0), root=True)
        L.add_edge(a, a)
        G = Graph()
        x = G.add_node(Label(0), root=True)
        y = G.add_node(Label(0))
        f = G.add_edge(x, y)
        res = morphisms(L, G)
        assert res.matches == [] and res.extensions == 2

    def test_edge_target_reflects_roots(self):
        L, G = two_node_graphs()
        G.roots.add(1)
        assert morphisms(L, G).matches == []
        L.roots.add(1)
        assert morphisms(L, G).matches == [PartialMorphism({0: 0, 1: 1},
                                                           {0: 0})]


class TestCompilePlan:
    def test_two_roots_shared_reach(self):
        L = Graph()
        r1 = L.add_node(Label(0), root=True)
        r2 = L.add_node(Label(1), root=True)
        x = L.add_node(Label(2))
        y = L.add_node(Label(3))
        e1 = L.add_edge(r1, x, Label(4))
        e2 = L.add_edge(x, y, Label(5))
        e3 = L.add_edge(r2, x, Label(6))
        assert compile_plan(L) == SearchPlan(
            steps=((-1, None, -1, Label(0), True),
                   (0, Label(4), -1, Label(2), False),
                   (1, Label(5), -1, Label(3), False),
                   (-1, None, -1, Label(1), True),
                   (3, Label(6), 1, None, False)),
            nodes=(r1, x, y, r2), edges=(e1, e2, e3))

    def test_second_root_reaches_only_its_own_edge(self):
        """A node the first root already reached is not walked again from
        the second root: only the second root's own edge follows it."""
        L = Graph()
        r1 = L.add_node(Label(0), root=True)
        r2 = L.add_node(Label(1), root=True)
        x = L.add_node(Label(2))
        y = L.add_node(Label(3))
        e1 = L.add_edge(r1, x)
        e2 = L.add_edge(x, y)
        e3 = L.add_edge(r2, x)
        plan = compile_plan(L)
        assert plan.nodes == (r1, x, y, r2)
        assert plan.edges == (e1, e2, e3)

    def test_given_plan_is_used(self):
        """A match holds host ids in the given plan's slot order, not in
        left-side id order."""
        L = Graph()
        r1 = L.add_node(Label(0), root=True)
        r2 = L.add_node(Label(1), root=True)
        x = L.add_node(Label(2))
        e1 = L.add_edge(r1, x, Label(4))
        e2 = L.add_edge(r2, x, Label(6))
        G = Graph()
        gx = G.add_node(Label(2))
        g2 = G.add_node(Label(1), root=True)
        g1 = G.add_node(Label(0), root=True)
        f2 = G.add_edge(g2, gx, Label(6))
        f1 = G.add_edge(g1, gx, Label(4))
        plan = compile_plan(L)
        assert plan.nodes == (r1, x, r2) and plan.edges == (e1, e2)
        res = match_plan(plan, G)
        assert res.matches == [((g1, gx, g2), (f1, f2))]
        assert [morphism(plan, m) for m in res.matches] == \
            match_bruteforce(L, G)

    def test_not_fast_raises(self):
        L = Graph()
        L.add_node(Label(0))
        with pytest.raises(NotFastRule):
            compile_plan(L)

    def test_single_root_no_edges(self):
        L = Graph()
        r = L.add_node(Label(0), root=True)
        assert compile_plan(L) == SearchPlan(
            steps=((-1, None, -1, Label(0), True),), nodes=(r,), edges=())

    def test_chain(self):
        L = Graph()
        r = L.add_node(Label(0), root=True)
        a = L.add_node(Label(1))
        b = L.add_node(Label(2))
        e1 = L.add_edge(r, a)
        e2 = L.add_edge(a, b)
        assert compile_plan(L).edges == (e1, e2)

    def test_isolated_node_not_fast(self):
        L = Graph()
        L.add_node(Label(0), root=True)
        iso = L.add_node(Label(1))
        with pytest.raises(NotFastRule) as err:
            compile_plan(L)
        assert err.value.node == iso

    def test_incoming_only_is_unreachable(self):
        L = Graph()
        r = L.add_node(Label(0), root=True)
        u = L.add_node(Label(1))
        L.add_edge(u, r)
        with pytest.raises(NotFastRule) as err:
            compile_plan(L)
        assert err.value.node == u

    def test_invariant_sources_already_introduced(self):
        """Every edge step follows an edge out of a slot filled before it."""
        rng = random.Random(7)
        for _ in range(50):
            filled = 0
            for src, _, tgt, _, _ in compile_plan(random_fast_lhs(rng)).steps:
                assert src < filled and tgt < filled
                if src < 0 or tgt < 0:
                    filled += 1


class TestMatchAll:
    def test_single_root_label_five(self):
        L = Graph()
        L.add_node(Label(5), root=True)
        G = Graph()
        G.add_node(Label(5), root=True)
        for i in range(4):
            G.add_node(Label(i))
        res = morphisms(L, G)
        assert len(res.matches) == 1
        assert res.matches[0].node_map == {0: 0}

    def test_missing_red_edge(self):
        L = Graph()
        r = L.add_node(Label(5), root=True)
        a = L.add_node(Label(0))
        L.add_edge(r, a, Label(None, "red"))
        G = Graph()
        x = G.add_node(Label(5), root=True)
        y = G.add_node(Label(0))
        G.add_edge(x, y, Label(None, "blue"))
        assert morphisms(L, G).matches == []

    def test_results_total_and_valid(self):
        rng = random.Random(11)
        for _ in range(40):
            L, G = random_match_pair(rng)
            res = morphisms(L, G)
            for m in res.matches:
                assert set(m.node_map) == set(L.nodes)
                assert set(m.edge_map) == set(L.edges)
                assert check_morphism(m, L, G)

    def test_agrees_with_bruteforce(self):
        rng = random.Random(5)
        hits = 0
        for _ in range(60):
            L, G = random_match_pair(rng)
            fast = {m.key() for m in morphisms(L, G).matches}
            slow = {m.key() for m in match_bruteforce(L, G)}
            assert fast == slow
            hits += bool(fast)
        assert hits >= 10  # the generator must produce nontrivial cases

    def test_extension_counter_flat_across_host_growth(self):
        L = Graph()
        r = L.add_node(Label(5), root=True)
        a = L.add_node(Label(0))
        L.add_edge(r, a, Label(None, "red"))

        def host(extra):
            G = Graph()
            x = G.add_node(Label(5), root=True)
            y = G.add_node(Label(0))
            G.add_edge(x, y, Label(None, "red"))
            prev = y
            for i in range(extra):
                n = G.add_node(Label(1))
                G.add_edge(prev, n, Label(None, "blue"))
                prev = n
            return G

        plan = compile_plan(L)
        counts = {match_plan(plan, host(extra)).extensions for extra in (0, 10, 100, 1000)}
        assert len(counts) == 1

    def test_returns_match_result(self):
        L = Graph()
        G = Graph()
        res = match_all(search_tree([compile_plan(L)]), G)
        assert isinstance(res, MatchResult)
        assert res.matches == {0: [((), ())]} and res.extensions == 0


class TestSearchTree:
    def test_equal_prefixes_merge(self):
        """Plans share a tree node only while their steps are equal in all
        five fields; a root flag or a target slot alone splits them.  Leaf
        i ends plan i, and equal plans end at one node."""
        seed = (-1, None, -1, Label(0), True)
        step = (0, Label(None, "red"), -1, Label(1), False)
        rooted = (0, Label(None, "red"), -1, Label(1), True)
        back = (1, EMPTY, 0, None, False)
        loop = (1, EMPTY, 1, None, False)
        plans = [SearchPlan(steps, (), ()) for steps in [
            (seed, step, back), (seed, step, loop), (seed, rooted), (seed,),
            (seed, step, back)]]
        assert search_tree(plans) == ((), (
            (seed, ((3,), (
                (step, ((), ((back, ((0, 4), ())), (loop, ((1,), ()))))),
                (rooted, ((2,), ()))))),))
        assert search_tree([]) == ((), ())

    def test_tree_finds_what_each_plan_finds_alone(self):
        """Under leaf i the tree reports exactly the matches plan i finds
        alone, in the same order, and it reports no leaf without one.
        Shared steps run once, so it never tries more extensions."""
        rng = random.Random(RANDOM_SEED)
        fewer = found = 0
        for _ in range(150):
            family, _ = random_family(rng)
            plans = [r.plan for r in family]
            tree = search_tree(plans)
            hosts = family_hosts(rng, family)
            hosts.append(random_graph(rng, 6, [None, 0, 1], [None],
                                      [None, "red"]))
            for G in hosts:
                res = match_all(tree, G)
                alone = [match_plan(plan, G) for plan in plans]
                assert res.matches == {i: a.matches
                                       for i, a in enumerate(alone)
                                       if a.matches}
                spent = sum(a.extensions for a in alone)
                assert res.extensions <= spent
                fewer += res.extensions < spent
                found += len(res.matches)
        assert fewer >= 500 and found >= 1000


class TestBruteforce:
    def test_empty_lhs(self):
        G = Graph()
        G.add_node(Label(1), root=True)
        out = match_bruteforce(Graph(), G)
        assert len(out) == 1 and out[0].node_map == {} and out[0].edge_map == {}

    def test_two_copies(self):
        L = Graph()
        L.add_node(Label(2))
        G = Graph()
        G.add_node(Label(2))
        G.add_node(Label(2))
        assert len(match_bruteforce(L, G)) == 2

    def test_loop_absent(self):
        L = Graph()
        r = L.add_node(Label(0), root=True)
        L.add_edge(r, r)
        G = Graph()
        G.add_node(Label(0), root=True)
        assert match_bruteforce(L, G) == []
