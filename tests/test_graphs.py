"""Graph value type: validity, space, boundedness, snapshots and the undo
journal, serialization."""

from contextlib import contextmanager
from random import Random

import pytest

from minigp.errors import InputError, ParseError
from minigp.graphs import EMPTY, Graph, Label, graph_space, to_text
from util import (EDGE_MARKS, FULL_ATOMS, NODE_MARKS, check_boundedness,
                  from_text, random_graph, validate_host_graph)


def chain(n, label=EMPTY):
    """Doubly linked list of n nodes: red edges rightward, blue edges leftward."""
    g = Graph()
    ids = [g.add_node(label) for _ in range(n)]
    for a, b in zip(ids, ids[1:]):
        g.add_edge(a, b, Label(None, "red"))
        g.add_edge(b, a, Label(None, "blue"))
    return g, ids


def assert_same(g, want):
    """g equals want item for item, down to adjacency order, roots and id
    counters."""
    assert to_text(g) == to_text(want)
    assert g.roots == want.roots
    assert sorted(g.nodes) == sorted(want.nodes)
    assert all(g.out_edges(v) == want.out_edges(v) for v in want.nodes)
    assert (g.next_node_id, g.next_edge_id) == \
        (want.next_node_id, want.next_edge_id)


def mutate(rng, g):
    """One random primitive mutation, or a root edit as `rules.apply`
    makes it."""
    nodes, edges = sorted(g.nodes), sorted(g.edges)
    label = Label(rng.choice(FULL_ATOMS), rng.choice(NODE_MARKS))
    kind = rng.randrange(6)
    if kind == 0 or not nodes:
        g.add_node(label, root=rng.random() < 0.3)
    elif kind == 1:
        g.add_edge(rng.choice(nodes), rng.choice(nodes),
                   Label(rng.choice(FULL_ATOMS), rng.choice(EDGE_MARKS)))
    elif kind == 2 and edges:
        g.remove_edge(rng.choice(edges))
    elif kind == 3:
        v = rng.choice(nodes)
        for e, (src, tgt, _) in list(g.edges.items()):
            if v in (src, tgt):
                g.remove_edge(e)
        g.remove_node(v)
    elif kind == 4:
        g.relabel_node(rng.choice(nodes), label)
    elif rng.random() < 0.5:
        g.roots.add(rng.choice(nodes))
    else:
        g.roots.discard(rng.choice(nodes))


@contextmanager
def outermost(g):
    """The outermost window, which copies g, so that every window opened
    inside it uses the journal."""
    mark = g.mark()
    yield
    g.release(mark)


def nested(rng, g):
    """A window of random mutations, itself possibly nesting one, that is
    rolled back or kept."""
    mark = g.mark()
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.15:
            nested(rng, g)
        else:
            mutate(rng, g)
    if rng.random() < 0.5:
        g.rollback(mark)
    g.release(mark)


class TestValidate:
    def test_minimal_host_graph(self):
        g = Graph()
        g.add_node(Label(0))
        assert validate_host_graph(g) == []

    def test_unlabelled_node(self):
        g = Graph()
        g.add_node(None)
        assert validate_host_graph(g) == ["node-not-labelled:0"]

    def test_dashed_on_node(self):
        g = Graph()
        g.add_node(Label(1, "dashed"))
        assert validate_host_graph(g) == ["dashed-on-node:0"]

    def test_grey_on_edge(self):
        g = Graph()
        a = g.add_node(Label(0))
        g.add_edge(a, a, Label(None, "grey"))
        assert validate_host_graph(g) == ["grey-on-edge:0"]

    def test_grey_node_ok(self):
        g = Graph()
        g.add_node(Label(3, "grey"), root=True)
        assert validate_host_graph(g) == []

    def test_root_not_node(self):
        g = Graph()
        g.add_node(Label(0))
        g.roots.add(7)
        assert validate_host_graph(g) == ["root-not-node:7"]

    def test_unknown_atom_and_mark(self):
        g = Graph()
        g.add_node(Label("X"))
        g.add_node(Label(0, "purple"))
        assert validate_host_graph(g) == ["unknown-atom:0", "unknown-mark:1"]

    def test_dangling_endpoints_detected(self):
        g = Graph()
        a = g.add_node(Label(0))
        b = g.add_node(Label(1))
        g.add_edge(a, b)
        del g.nodes[b]  # corrupt behind the API's back
        out = validate_host_graph(g)
        assert "dangling-tgt:0" in out


class TestSpace:
    def test_empty(self):
        assert graph_space(Graph()) == 0

    def test_cache_shape_at_c5(self):
        g, _ = chain(5, Label(2))
        assert len(g.nodes) == 5 and len(g.edges) == 8
        assert graph_space(g) == 13

    def test_blockset_shape_at_c5(self):
        # 243 nodes and 727 edges: 2*(b-1) list edges plus b dashed edges.
        b = 243
        g, ids = chain(b)
        assert len(g.edges) == 2 * (b - 1)
        for i in ids:
            g.add_edge(i, ids[-1], Label(None, "dashed"))
        assert len(g.edges) == 727
        assert graph_space(g) == 970

    def test_additive_on_disjoint_union(self):
        g1, _ = chain(3)
        g2, _ = chain(4, Label(1))
        u = g1.copy()
        remap = {}
        for nid in sorted(g2.nodes):
            remap[nid] = u.add_node(g2.nodes[nid], root=nid in g2.roots)
        for eid in sorted(g2.edges):
            s, t, lab = g2.edges[eid]
            u.add_edge(remap[s], remap[t], lab)
        assert graph_space(u) == graph_space(g1) + graph_space(g2)

    def test_delete_then_readd_edge_keeps_space(self):
        g, ids = chain(2)
        before = graph_space(g)
        s, t, lab = g.edges[0]
        g.remove_edge(0)
        g.add_edge(s, t, lab)
        assert graph_space(g) == before


class TestBoundedness:
    def test_isolated_node(self):
        g = Graph()
        g.add_node(Label(0), root=True)
        assert check_boundedness(g, 0, 1)

    def test_outdegree_exceeded(self):
        g = Graph()
        a = g.add_node(Label(0))
        for _ in range(3):
            g.add_edge(a, a)
        assert not check_boundedness(g, 2, 1)
        assert check_boundedness(g, 3, 1)

    def test_too_many_roots(self):
        g = Graph()
        g.add_node(Label(0), root=True)
        g.add_node(Label(1), root=True)
        assert not check_boundedness(g, 0, 1)
        assert check_boundedness(g, 0, 2)


class TestMutation:
    def test_ids_monotonic_after_delete(self):
        g = Graph()
        a = g.add_node(Label(0))
        b = g.add_node(Label(1))
        g.add_edge(a, b)
        g.remove_edge(0)
        assert g.add_edge(a, b) == 1
        g.remove_edge(1)
        g.remove_node(b)
        assert g.add_node(Label(2)) == 2

    def test_remove_node_with_edges_rejected(self):
        g, _ = chain(2)
        with pytest.raises(ValueError):
            g.remove_node(0)

    def test_remove_node_rejects_edges_on_one_side(self):
        g = Graph()
        a, b = g.add_node(Label(0)), g.add_node(Label(1))
        g.add_edge(a, b)
        for v in (a, b):  # a has only an out-edge, b only an in-edge
            with pytest.raises(InputError, match="incident edges"):
                g.remove_node(v)
        assert sorted(g.nodes) == [a, b]

    def test_add_edge_rejects_one_missing_endpoint(self):
        g = Graph()
        v = g.add_node(Label(0))
        for src, tgt in ((v, 9), (9, v)):
            with pytest.raises(InputError, match="missing node"):
                g.add_edge(src, tgt)
        assert g.edges == {} and g.out_edges(v) == []

    def test_out_edges_ascending(self):
        g = Graph()
        a = g.add_node(Label(0))
        b = g.add_node(Label(1))
        g.add_edge(a, b, eid=5)
        g.add_edge(a, a, eid=2)
        assert g.out_edges(a) == [2, 5]

    def test_copy_is_independent(self):
        g, _ = chain(2)
        h = g.copy()
        h.add_node(Label(9))
        h.remove_edge(0)
        assert len(g.nodes) == 2 and len(g.edges) == 2
        assert g != h

    def test_restore_undoes_every_mutation(self):
        g, ids = chain(3)
        g.roots.add(ids[0])
        want = g.copy()
        mark = g.mark()
        x = g.add_node(Label(4), root=True)
        g.add_edge(ids[2], x)
        g.remove_edge(g.out_edges(ids[1])[0])
        g.relabel_node(ids[1], Label(7, "red"))
        e = g.out_edges(ids[0])[0]
        src, tgt, _ = g.edges[e]
        g.edges[e] = (src, tgt, Label(1))
        g.roots.discard(ids[0])
        g.roots.add(ids[2])
        assert g != want
        g.rollback(mark)
        g.release(mark)
        assert g == want and to_text(g) == to_text(want)
        assert all(g.out_edges(v) == want.out_edges(v) for v in ids)
        assert g.add_node(Label(5)) == want.add_node(Label(5))
        assert g.add_edge(ids[0], ids[2]) == want.add_edge(ids[0], ids[2])
        assert g == want

    def test_rollback_undoes_every_mutation(self):
        g, ids = chain(3)
        g.roots.add(ids[0])
        lone = g.add_node(Label(8), root=True)
        want = g.copy()
        with outermost(g):
            mark = g.mark()
            x = g.add_node(Label(4), root=True)
            g.add_edge(ids[2], x)
            g.remove_edge(g.out_edges(ids[1])[0])
            g.relabel_node(ids[1], Label(7, "red"))
            g.remove_node(lone)
            g.remove_edge(g.add_edge(ids[0], x))
            g.roots.add(ids[2])
            g.roots.discard(ids[0])
            assert g != want
            g.rollback(mark)
            g.release(mark)
        assert_same(g, want)
        assert g.add_node(Label(5)) == want.add_node(Label(5))
        assert g.add_edge(ids[0], ids[2]) == want.add_edge(ids[0], ids[2])
        assert g == want

    def test_inner_rollback_keeps_outer_changes(self):
        g, ids = chain(2)
        with outermost(g):
            outer = g.mark()
            a = g.add_node(Label(1))
            g.relabel_node(ids[0], Label(2))
            want = g.copy()
            inner = g.mark()
            g.add_edge(a, ids[1])
            g.relabel_node(ids[0], Label(3))
            g.remove_edge(g.out_edges(ids[1])[0])
            g.rollback(inner)
            g.release(inner)
            assert_same(g, want)
            g.release(outer)
        assert_same(g, want)

    def test_outer_rollback_undoes_kept_inner_window(self):
        g, ids = chain(2)
        want = g.copy()
        with outermost(g):
            outer = g.mark()
            g.add_node(Label(1), root=True)
            inner = g.mark()
            g.remove_edge(g.out_edges(ids[0])[0])
            g.relabel_node(ids[1], Label(3))
            g.release(inner)
            g.add_edge(ids[1], ids[1])
            g.rollback(outer)
            g.release(outer)
        assert_same(g, want)

    def test_journal_closes_with_outermost_window(self):
        """The journal closes when the last nested window is released, and
        a mark serves no window after its release."""
        g, ids = chain(2)
        copy = g.mark()
        outer = g.mark()
        inner = g.mark()
        g.release(inner)
        g.add_node(Label(1))
        assert g._log is not None
        g.release(outer)
        assert g._log is None
        g.add_node(Label(2))
        with pytest.raises(InputError, match="no open window"):
            g.rollback(outer)
        with pytest.raises(InputError, match="no open window"):
            g.release(outer)
        g.release(copy)
        with pytest.raises(InputError, match="no open window"):
            g.rollback(copy)
        with pytest.raises(InputError, match="no open window"):
            g.release(copy)

    def test_rollback_rejects_a_mark_past_the_journal(self):
        g, ids = chain(2)
        g.mark()
        outer = g.mark()
        g.add_node(Label(1))
        inner = g.mark()
        g.rollback(outer)
        with pytest.raises(InputError, match="no open window"):
            g.rollback(inner)

    def test_rollback_matches_copy_on_random_mutations(self):
        """200 seeded runs of random primitives, some in nested windows
        that are kept or rolled back, on random hosts: rolling back to the
        outer mark gives what a copy taken there holds."""
        rng = Random(20261020)
        popped = 0
        for _ in range(200):
            g = random_graph(rng, 6, FULL_ATOMS, NODE_MARKS, EDGE_MARKS)
            for _ in range(rng.randint(0, 3)):
                mutate(rng, g)
            want = g.copy()
            with outermost(g):
                mark = g.mark()
                for _ in range(rng.randint(0, 12)):
                    if rng.random() < 0.2:
                        nested(rng, g)
                    else:
                        mutate(rng, g)
                popped += g != want
                g.rollback(mark)
                g.release(mark)
            assert_same(g, want)
        assert popped >= 150

    def test_outermost_mark_copies_and_journals_nothing(self, monkeypatch):
        """The outermost mark calls `Graph.copy` once and opens no journal;
        a mark nested in it copies nothing and opens the journal."""
        copied = []
        copy = Graph.copy

        def counting(g):
            copied.append(g)
            return copy(g)
        monkeypatch.setattr(Graph, "copy", counting)
        g, ids = chain(2)
        mark = g.mark()
        assert copied == [g]
        x = g.add_node(Label(1))
        g.add_edge(ids[0], x)
        g.remove_edge(g.out_edges(ids[1])[0])
        g.relabel_node(ids[1], Label(2))
        assert g._log is None
        inner = g.mark()
        assert copied == [g] and g._log == []
        g.release(inner)
        g.release(mark)
        assert copied == [g] and g._log is None

    def test_equality_ignores_counters(self):
        g = Graph()
        g.add_node(Label(0), root=True)
        h = Graph()
        h.add_node(Label(0), nid=0, root=True)
        h.next_node_id = 17
        assert g == h


class TestText:
    def test_round_trip_bit_exact(self):
        g, ids = chain(3, Label(1))
        g.roots.add(ids[0])
        g.relabel_node(ids[2], Label("I", "green"))
        g.add_edge(ids[0], ids[2], Label("L"))
        g.add_edge(ids[2], ids[2], Label(None, "dashed"))
        text = to_text(g)
        assert from_text(text) == g
        assert to_text(from_text(text)) == text

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nnode 0 5 root\n\nnode 1 _ grey\nedge 0 0 1 _ red  # trailing\n"
        g = from_text(text)
        assert g.nodes[0] == Label(5) and 0 in g.roots
        assert g.nodes[1] == Label(None, "grey")
        assert g.edges[0] == (0, 1, Label(None, "red"))

    def test_empty_atom_token(self):
        g = Graph()
        g.add_node(EMPTY)
        assert to_text(g) == "node 0 _\n"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            from_text("node 0\n")
        with pytest.raises(ParseError):
            from_text("blob 1 2\n")
        with pytest.raises(ParseError):
            from_text("node 0 Q\n")
        with pytest.raises(ParseError):
            from_text("edge 0 0 1 _\n")  # endpoints missing
        with pytest.raises(ParseError, match="line 2: node id 0 already present"):
            from_text("node 0 1\nnode 0 2\n")

    def test_edge_before_node_lines(self):
        g = from_text("edge 0 1 0 _ blue\nnode 0 2\nnode 1 2\n")
        assert g.edges[0] == (1, 0, Label(None, "blue"))
