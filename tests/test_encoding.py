"""Codec checks: block arithmetic, canonical encodings, and the validating
decoder, including a re-encode roundtrip over random configurations and a
differential check of dec against the reference decoder on spoiled
encodings."""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from minigp.encoding import (
    BLUE,
    DASHED,
    GREEN,
    RED,
    CapacityExceeded,
    EncodingParams,
    MalformedConfigGraph,
    OutOfRange,
    content_digits,
    dec,
    enc,
    layout,
)
from minigp.graphs import EMPTY, Label, graph_space, to_text
from minigp.turing import TMConfiguration
from util import (LengthMismatch, block_content, check_boundedness,
                  dec_reference, enc_reference, min_k, validate_host_graph)


def config(state=0, input="10", input_head=0, work="", work_head=0):
    return TMConfiguration(state, input, input_head, work, work_head)


def random_config(rng, k):
    """A canonical configuration that fits level k but may not fit k-1."""
    p = EncodingParams(k)
    n = rng.randint(1, 8)
    work = "".join(rng.choice("012") for _ in range(rng.randint(0, p.capacity))).rstrip("2")
    head = rng.choice((0, p.capacity - 1, rng.randrange(p.capacity)))
    return TMConfiguration(rng.randrange(10), "".join(rng.choice("01") for _ in range(n)),
                           rng.randrange(n), work, head)


class TestParams:
    def test_sizes(self):
        p = EncodingParams(0)
        assert (p.c, p.b, p.capacity) == (2, 9, 18)
        q = EncodingParams(3)
        assert (q.c, q.b, q.capacity) == (5, 243, 1215)

    def test_negative_k(self):
        with pytest.raises(OutOfRange):
            EncodingParams(-1)


class TestBlockArithmetic:
    def test_content_examples(self):
        assert block_content([1, 0, 2, 2]) == 35
        assert block_content([0, 0]) == 0
        assert block_content([2, 2]) == 8

    def test_digit_examples(self):
        assert content_digits(35, 4) == [1, 0, 2, 2]
        assert content_digits(0, 2) == [0, 0]
        assert content_digits(3, 2) == [1, 0]
        assert content_digits(3, 4) == [0, 0, 1, 0]

    def test_length_checked(self):
        with pytest.raises(LengthMismatch):
            block_content([1, 0], 4)

    def test_ranges(self):
        with pytest.raises(OutOfRange):
            block_content([3, 0])
        with pytest.raises(OutOfRange):
            content_digits(9, 2)
        with pytest.raises(OutOfRange):
            content_digits(-1, 2)

    def test_roundtrip(self):
        for c in (2, 3, 5):
            for v in range(0, 3 ** c, 7):
                assert block_content(content_digits(v, c), c) == v


class TestMinK:
    def test_thresholds(self):
        assert min_k(config()) == 0
        assert min_k(config(work="0" * 18)) == 0
        assert min_k(config(work="0" * 19)) == 1
        assert min_k(config(work="", work_head=18)) == 1
        assert min_k(config(work="0" * 81)) == 1
        assert min_k(config(work="0" * 82)) == 2


class TestEnc:
    def test_initial_shape(self):
        g = enc(config(input="101100"), 0)
        assert len(g.nodes) == 1 + 6 + 9 + 2
        assert g.nodes[0] == Label(0)
        assert g.roots == {0}
        assert [g.nodes[i].atom for i in range(1, 7)] == [1, 0, 1, 1, 0, 0]
        assert all(g.nodes[i] == Label(None) for i in range(7, 16))
        assert g.nodes[16] == Label(2) and g.nodes[17] == Label(2)

    def test_initial_dashed_targets(self):
        g = enc(config(input="101100"), 0)
        blocks = list(range(7, 16))
        dashed = {}
        for v in blocks:
            for e in g.out_edges(v):
                _, tgt, lab = g.edges[e]
                if lab == Label(None, "dashed"):
                    dashed[v] = tgt
        assert dashed[blocks[0]] == blocks[0]
        assert all(dashed[v] == blocks[8] for v in blocks[1:])

    def test_valid_and_bounded(self):
        g = enc(config(input="101100", work="01", work_head=2), 0)
        assert validate_host_graph(g) == []
        assert check_boundedness(g, 6, 1)

    def test_space_bound(self):
        for k, n in ((0, 1), (0, 6), (1, 20)):
            p = EncodingParams(k)
            g = enc(config(input="1" * n), k)
            assert graph_space(g) == 4 * p.b + 3 * p.c + 3 * n + 1
            assert graph_space(g) <= 4 * (p.b + p.c) + 4 * n + 7

    def test_capacity(self):
        enc(config(work="0" * 18), 0)
        with pytest.raises(CapacityExceeded):
            enc(config(work="0" * 19), 0)
        with pytest.raises(CapacityExceeded):
            enc(config(work_head=18), 0)

    def test_input_checks(self):
        with pytest.raises(OutOfRange):
            enc(config(input="102"), 0)
        with pytest.raises(OutOfRange):
            enc(config(input="10", input_head=2), 0)

    def test_work_checks(self):
        with pytest.raises(OutOfRange):
            enc(config(work="013"), 0)
        with pytest.raises(OutOfRange):
            enc(config(work="12"), 0)
        with pytest.raises(OutOfRange):
            enc(config(work_head=-1), 0)

    # sha256 of to_text(enc(s, k)), recorded from the edge-by-edge encoder
    # that enc_reference keeps.  Matching, bench_host and the acceptance
    # size checks all rely on these node and edge ids.
    PINNED = [
        (config(0, "1011", 0, "", 0), 0,
         "4f3e982e95eeb200054deb6110ef64af155f0ff4d17ac228db8fa74fedd8c1a3"),
        (config(5, "1011", 3, "01221012012010", 17), 0,
         "9e8ac77c3e253182f1e23bfa626b5ec6361c7a66f975812a11ba7212d37c03bc"),
        (config(2, "0", 0, "10", 0), 1,
         "7c4b49f32b0cdc7a32ea29d89c0b89b161f370277557d090fb9800e132e6d569"),
        (config(3, "110", 2, "0121" * 20, 80), 1,
         "9e2bf62a25c1bdf2f7bf2b91a8f6a1330c0ac4b6e3f14ec9f24ac2215582287c"),
        (config(7, "10", 1, "0120" * 40, 0), 2,
         "02d1f8bc2d1875cd42eda2ca4c4165ac3fe5e9802375fd4569fe7e9d51ec4a0e"),
        (config(1, "111", 0, "201" * 60 + "1", 323), 2,
         "381f01bc306277f94a3240cd7cc4ba327419b95abd791e92cd79a07a97994912"),
    ]

    @pytest.mark.parametrize("s,k,digest", PINNED)
    def test_pinned_text(self, s, k, digest):
        assert hashlib.sha256(to_text(enc(s, k)).encode()).hexdigest() == digest
        assert hashlib.sha256(to_text(enc_reference(s, k)).encode()).hexdigest() == digest

    def test_agrees_with_reference(self):
        rng = random.Random(20261018)
        for _ in range(60):
            k = rng.randrange(3)
            s = random_config(rng, k)
            g, want = enc(s, k), enc_reference(s, k)
            assert g == want
            assert list(g.edges) == list(want.edges)
            assert (g.next_node_id, g.next_edge_id) == (want.next_node_id, want.next_edge_id)

    def test_layout_edges_distinct(self):
        """dec compares edge sets; that equals a multiset comparison only
        because no layout repeats an edge."""
        rng = random.Random(20261019)
        for _ in range(60):
            k = rng.randrange(3)
            labels, edges = layout(random_config(rng, k), k)
            assert len(set(edges)) == len(edges)


class TestRoundtrip:
    def test_initial(self):
        s = config(input="101")
        assert dec(enc(s, 0)) == (s, 0)

    def test_mid_run(self):
        s = config(state=7, input="1100", input_head=3, work="0121" * 5, work_head=19)
        for k in (min_k(s), min_k(s) + 1):
            assert dec(enc(s, k)) == (s, k)

    def test_random(self):
        rng = random.Random(20260814)
        for _ in range(100):
            n = rng.randint(1, 8)
            input = "".join(rng.choice("01") for _ in range(n))
            work = "".join(rng.choice("012") for _ in range(rng.randint(0, 30))).rstrip("2")
            s = TMConfiguration(
                rng.randrange(10), input, rng.randrange(n),
                work, rng.randrange(max(len(work) + 3, 1)))
            k = min_k(s) + rng.choice((0, 0, 1))
            assert dec(enc(s, k)) == (s, k)


NODE_LABELS = [Label(a, m) for a in (None, 0, 1, 2, 3, "I") for m in (None, "red", "grey")]
EDGE_LABELS = [Label(a, m) for a in (None, "I", 1)
               for m in (None, "red", "green", "blue", "dashed")]
SPOILS = ("relabel node", "relabel edge", "retarget edge", "delete edge",
          "duplicate edge", "stray node", "stray edge", "add root", "drop root")


def spoil(rng, g, kind):
    """Change one item of g in the way kind names."""
    nodes, edges = sorted(g.nodes), sorted(g.edges)
    e = rng.choice(edges)
    src, tgt, lab = g.edges[e]
    if kind == "relabel node":
        g.relabel_node(rng.choice(nodes), rng.choice(NODE_LABELS))
    elif kind == "relabel edge":
        g.edges[e] = (src, tgt, rng.choice(EDGE_LABELS))
    elif kind == "retarget edge":
        g.remove_edge(e)
        g.add_edge(src, rng.choice(nodes), lab)
    elif kind == "delete edge":
        g.remove_edge(e)
    elif kind == "duplicate edge":
        g.add_edge(src, tgt, lab)
    elif kind == "stray node":
        v = g.add_node(rng.choice(NODE_LABELS))
        if rng.random() < 0.5:
            g.add_edge(rng.choice(nodes), v, rng.choice(EDGE_LABELS))
    elif kind == "stray edge":
        g.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice(EDGE_LABELS))
    elif kind == "add root":
        g.roots.add(rng.choice(nodes))
    elif kind == "drop root" and g.roots:
        g.roots.discard(rng.choice(sorted(g.roots)))


def outcome(decode, g):
    try:
        return decode(g)
    except MalformedConfigGraph as e:
        return f"rejected: {e}"


class TestDecDifferential:
    """dec against dec_reference, which walks the graph, re-encodes edge by
    edge and compares edge multisets: the same (s, k) on every graph one of
    them accepts, the same reason on every graph one of them rejects."""

    def test_encodings(self):
        rng = random.Random(20261020)
        for _ in range(150):
            k = rng.randrange(3)
            s = random_config(rng, k)
            g = enc(s, k)
            assert dec(g) == dec_reference(g) == (s, k)

    def test_spoiled_encodings(self):
        """Each single-item spoil of a random encoding, plus two pairs, so
        that dec must also name the first of several differences."""
        rng = random.Random(20261021)
        seen = Counter()
        for _ in range(200):
            k = rng.randrange(3)
            s = random_config(rng, k)
            for kinds in [(kind,) for kind in SPOILS] + [
                    ("relabel node", "relabel node"), tuple(rng.choices(SPOILS, k=2))]:
                g = enc(s, k)
                for kind in kinds:
                    spoil(rng, g, kind)
                got = outcome(dec, g)
                assert got == outcome(dec_reference, g), (s, k, kinds)
                if not isinstance(got, str):
                    seen["accepted"] += 1
                elif "schema wants" in got or "edge structure" in got:
                    seen["rejected by the final comparison"] += 1
                else:
                    seen["rejected earlier"] += 1
        assert min(seen.values()) >= 50, seen


class TestDecValidation:
    def base(self):
        return enc(config(state=3, input="1011", input_head=2, work="0121", work_head=3), 0)

    def expect(self, g, fragment):
        with pytest.raises(MalformedConfigGraph) as err:
            dec(g)
        assert fragment in str(err.value)

    def test_unlabelled_nodes(self):
        """An unlabelled central, input, block or cache node is a malformed
        graph, rejected for the reason the reference decoder gives."""
        for v, fragment in [(0, "central label None is not a state"),
                            (2, "input node labelled outside"),
                            (7, "node 7 labelled None, schema wants"),
                            (15, "cache node labelled outside")]:
            g = self.base()
            g.relabel_node(v, None)
            self.expect(g, fragment)
            assert outcome(dec, g) == outcome(dec_reference, g)

    def test_extra_root(self):
        g = self.base()
        g.roots.add(1)
        self.expect(g, "root")

    def test_state_label(self):
        g = self.base()
        g.relabel_node(0, Label("L"))
        self.expect(g, "state")

    def test_central_degree(self):
        g = self.base()
        g.add_edge(0, 0, Label(None, "dashed"))
        self.expect(g, "out-edges")

    def test_block_label(self):
        g = self.base()
        g.relabel_node(7, Label(5))
        self.expect(g, "schema wants")

    def test_marked_central(self):
        g = self.base()
        g.relabel_node(0, Label(3, "grey"))
        self.expect(g, "schema wants")

    def test_active_dashed_retarget(self):
        g = self.base()
        active = None
        for e in g.out_edges(0):
            _, tgt, lab = g.edges[e]
            if lab == Label(None, "dashed"):
                active = tgt
        for e in g.out_edges(active):
            _, tgt, lab = g.edges[e]
            if lab == Label(None, "dashed"):
                g.remove_edge(e)
                g.add_edge(active, tgt + 1, lab)
                break
        self.expect(g, "edge structure")

    def test_missing_blue_inverse(self):
        g = self.base()
        for e, (src, tgt, lab) in list(g.edges.items()):
            if lab == Label(None, "blue") and src != 0:
                g.remove_edge(e)
                break
        self.expect(g, "edge structure")

    def duplicate(self, g, src, lab):
        for e in g.out_edges(src):
            _, tgt, elab = g.edges[e]
            if elab == lab:
                g.add_edge(src, tgt, lab)
                return
        raise AssertionError(f"node {src} has no {lab} out-edge")

    def test_duplicate_active_dashed(self):
        """The per-block dashed walk skips the active block, so only the
        final edge comparison sees its second dashed edge."""
        g = self.base()
        active = next(g.edges[e][1] for e in g.out_edges(0)
                      if g.edges[e][2] == Label(None, "dashed"))
        self.duplicate(g, active, Label(None, "dashed"))
        self.expect(g, "edge structure")

    def test_duplicate_input_blue(self):
        """No walk follows blue INPUT edges."""
        g = self.base()
        self.duplicate(g, 2, Label(None, "blue"))
        self.expect(g, "edge structure")

    # Node ids of base(): central 0, INPUT 1-4, BLOCKSET 5-13 with the
    # active block 6, CACHE 14-15 with the head at 15.
    @pytest.mark.parametrize("src, lab, tgt, fragment", [
        (0, GREEN, 0, "input head edge targets a non-input node"),
        (0, GREEN, 5, "input head edge targets a non-input node"),
        (0, DASHED, 4, "active block edge targets a non-block node"),
        (0, DASHED, 14, "active block edge targets a non-block node"),
        (0, EMPTY, 0, "cache head edge targets a non-cache node"),
        (0, EMPTY, 13, "cache head edge targets a non-cache node"),
        (5, DASHED, 4, "block node 5 points outside the blockset"),
        (5, DASHED, 14, "block node 5 points outside the blockset"),
    ])
    def test_target_outside_its_section(self, src, lab, tgt, fragment):
        """A head or dashed edge that leaves its section for the node
        just before it or just after it; no node follows CACHE, so its
        other case targets the central node."""
        g = self.base()
        e = next(e for e in g.out_edges(src) if g.edges[e][2] == lab)
        g.remove_edge(e)
        g.add_edge(src, tgt, lab)
        self.expect(g, fragment)
        assert outcome(dec, g) == outcome(dec_reference, g)

    @pytest.mark.parametrize("count", [0, 2])
    def test_block_dashed_count(self, count):
        g = self.base()
        e = next(e for e in g.out_edges(7) if g.edges[e][2] == DASHED)
        if count:
            g.add_edge(*g.edges[e])
        else:
            g.remove_edge(e)
        self.expect(g, f"block node 7 has {count} dashed out-edges")
        assert outcome(dec, g) == outcome(dec_reference, g)

    @pytest.mark.parametrize("src, tgt, lab, fragment", [
        (4, 1, RED, "INPUT: red edges form a cycle at node 1"),
        (14, 15, BLUE, "CACHE: blue edges form a cycle"),
    ])
    def test_section_cycle(self, src, tgt, lab, fragment):
        """A red edge back to the first input node, and a blue edge from
        the leftmost cache node back to the rightmost."""
        g = self.base()
        g.add_edge(src, tgt, lab)
        self.expect(g, fragment)
        assert outcome(dec, g) == outcome(dec_reference, g)

    def test_stray_node(self):
        g = self.base()
        g.add_node(Label(1))
        self.expect(g, "outside the schema sections")

    def test_input_label(self):
        g = self.base()
        g.relabel_node(1, Label(2))
        self.expect(g, "input node labelled")

    def test_bad_cache_size(self):
        s = config(input="10")
        g = enc(s, 0)
        leftmost = 12
        for e in list(g.out_edges(0)):
            _, tgt, lab = g.edges[e]
            if lab == Label(None):
                g.remove_edge(e)
        extra = g.add_node(Label(2))
        g.add_edge(extra, leftmost, Label(None, "red"))
        g.add_edge(leftmost, extra, Label(None, "blue"))
        g.add_edge(0, extra, Label(None))
        self.expect(g, "blockset has")
