"""Shared test helpers: the example machines and their inputs, random
machines, graphs and rules, and the reference implementations the fast
code is checked against: the graph-text parser, the brute-force matcher,
rule application, block arithmetic, the configuration codec, and the
small-step relation."""

from collections import Counter
from dataclasses import dataclass, field
from itertools import permutations, product
from pathlib import Path
from random import Random
from typing import NamedTuple

from minigp.encoding import (CapacityExceeded, EncodingParams,
                             MalformedConfigGraph, OutOfRange,
                             content_digits, enc)
from minigp.errors import InputError, ParseError, RunError
from minigp.graphs import EMPTY, Atom, Graph, Label, graph_space
from minigp.lang import (Break, BudgetExceeded, Com, Done, ExecStats, Fail,
                         If, Interp, Loop, NullFailureViolation, Program,
                         RuleCall, Seq, Try)
from minigp.matching import (NotFastRule, compile_plan, match_all,
                             search_tree)
from minigp.rules import DanglingViolation, Rule, apply_ruleset
from minigp.turing import (BLANK, TMConfiguration, TuringMachine, parse_tm,
                           tm_run)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FULL_ATOMS = [None, 0, 1, 2, "L", "R", "I"]
SMALL_ATOMS = [None, 0, 1]
CHAR_ATOMS = frozenset({"L", "R", "I"})
NODE_MARKS = [None, "red", "green", "blue", "grey"]
EDGE_MARKS = [None, "red", "green", "blue", "dashed"]
SMALL_MARKS = [None, "red"]


def fixture_machine(name):
    """The machine defined by fixtures/<name>.tm."""
    return parse_tm((FIXTURES / f"{name}.tm").read_text())


# Moves its work head left of square 0 on input 1, after the simulator's
# Simulate! body has begun to rewrite the host for that step.
UNDERFLOW = TuringMachine(0, 1, {(0, 1, 2): (1, 1, "S", "L")})


def unary(n: int) -> str:
    if n < 1:
        raise InputError("unary arguments start at 1")
    return "1" * (n - 1) + "0"


def counter_input(length: int) -> str:
    """An input of the given length that seeds a full-width count."""
    if length < 1:
        raise InputError("inputs have at least one symbol")
    return "0" * (length - 1) + "1"


def random_machine_pair(rng: Random, max_states: int = 4,
                        max_steps: int = 500) -> tuple[TuringMachine, str]:
    """A well-formed (machine, input) pair that halts within max_steps.

    Draws a partial transition table and rejects anything that underflows a
    head, runs off the input, runs too long, halts in under three steps, or
    uses more than 81 work squares (keeping downstream runs affordable).
    """
    while True:
        n = rng.randint(2, max_states)
        delta = {}
        for q in range(n):
            for a in (0, 1):
                for x in (0, 1, 2):
                    if rng.random() < 0.15:
                        continue
                    delta[(q, a, x)] = (
                        rng.randrange(n),
                        rng.choice((0, 1, 2)),
                        rng.choices("SRL", weights=(6, 3, 1))[0],
                        rng.choices("SRL", weights=(3, 6, 2))[0],
                    )
        m = TuringMachine(0, n - 1, delta)
        input = "".join(rng.choice("01") for _ in range(rng.randint(3, 8)))
        try:
            _, steps, squares = tm_run(m, input, max_steps)
        except RunError:
            continue
        if steps < 3 or squares > 81:
            continue
        return m, input


def random_sweep_pair(rng: Random, c: int) -> tuple[TuringMachine, str]:
    """A (machine, input 0^n 1) pair around the skeleton of
    `fixtures/sweep.tm` whose simulation ends at block size c.

    State 0 leaves square 0 blank.  A cycle of write states then writes
    random digits rightward, moving the input head on some of them, until
    it reads the input's final 1.  There a cycle of walk states turns left
    and rewrites each digit at random down to the blank at square 0, where
    the machine halts or, in a third phase, walks right again rewriting
    digits up to the first blank.  Pairs are drawn until the run uses more
    work squares than block size c-1 holds and at most 120, which keeps a
    simulated run under a second; c is 3 or more.
    """
    def cycle(first, length):
        return [(first + i, first + (i + 1) % length) for i in range(length)]

    while True:
        writes, walks = rng.randint(1, 3), rng.randint(1, 3)
        rights = rng.choice((0, 1, 2))
        first_walk = 1 + writes
        first_right = first_walk + walks
        delta = {(0, a, 2): (1, 2, "S", "R") for a in (0, 1)}
        for i, (q, p) in enumerate(cycle(1, writes)):
            move = "R" if i == writes - 1 else rng.choice("SR")
            delta[(q, 0, 2)] = (p, rng.randint(0, 1), move, "R")
            delta[(q, 1, 2)] = (first_walk, rng.randint(0, 2), "S", "L")
        for q, p in cycle(first_walk, walks):
            for x in (0, 1):
                delta[(q, 1, x)] = (p, rng.randint(0, 1), "S", "L")
            if rights:
                delta[(q, 1, 2)] = (first_right, rng.randint(0, 2), "S", "R")
        for q, p in cycle(first_right, rights):
            for x in (0, 1):
                delta[(q, 1, x)] = (p, rng.randint(0, 1), "S", "R")
        m = TuringMachine(0, first_right + rights - 1, delta)
        input = "0" * rng.randint(4, 60) + "1"
        _, _, squares = tm_run(m, input, 1_000)
        if EncodingParams(c - 3).capacity < squares <= min(
                120, EncodingParams(c - 2).capacity):
            return m, input


def atom_from_text(tok: str) -> Atom:
    if tok == "_":
        return None
    if tok in CHAR_ATOMS:
        return tok
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad atom {tok!r}") from None


_MARKS = frozenset(NODE_MARKS + EDGE_MARKS)


def from_text(text: str) -> Graph:
    """Parse the serialization produced by to_text; `#` comments and blanks
    ignored.  The round-trip oracle of `minigp.graphs.to_text`."""
    g = Graph()
    pending = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] == "node":
                nid = int(toks[1])
                atom = atom_from_text(toks[2])
                mark = None
                root = False
                rest = toks[3:]
                if rest and rest[0] in _MARKS:
                    mark = rest.pop(0)
                if rest and rest[0] == "root":
                    root = True
                    rest.pop(0)
                if rest:
                    raise ParseError(f"trailing tokens {rest}")
                g.add_node(Label(atom, mark), root=root, nid=nid)
            elif toks[0] == "edge":
                eid, src, tgt = int(toks[1]), int(toks[2]), int(toks[3])
                atom = atom_from_text(toks[4])
                mark = None
                rest = toks[5:]
                if rest and rest[0] in _MARKS:
                    mark = rest.pop(0)
                if rest:
                    raise ParseError(f"trailing tokens {rest}")
                pending.append((lineno, eid, src, tgt, Label(atom, mark)))
            else:
                raise ParseError(f"unknown item {toks[0]!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, InputError):
                raise ParseError(f"line {lineno}: {exc}") from None
            raise ParseError(f"line {lineno}: cannot parse {line!r}") from None
    for lineno, eid, src, tgt, lab in pending:
        try:
            g.add_edge(src, tgt, lab, eid=eid)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return g


def random_graph(rng, max_nodes, atoms, node_marks, edge_marks, root_p=0.4):
    g = Graph()
    n = rng.randint(0, max_nodes)
    for _ in range(n):
        g.add_node(Label(rng.choice(atoms), rng.choice(node_marks)),
                   root=rng.random() < root_p)
    ids = sorted(g.nodes)
    for _ in range(rng.randint(0, 2 * n) if n else 0):
        g.add_edge(rng.choice(ids), rng.choice(ids),
                   Label(rng.choice(atoms), rng.choice(edge_marks)))
    return g


def validate_host_graph(g):
    """Every violated host-graph invariant, as `code:id` strings; [] means valid."""
    bad = []

    def atom_ok(atom):
        return atom is None or isinstance(atom, int) or atom in CHAR_ATOMS

    for nid in sorted(g.nodes):
        lab = g.nodes[nid]
        if lab is None:
            bad.append(f"node-not-labelled:{nid}")
            continue
        if not atom_ok(lab.atom):
            bad.append(f"unknown-atom:{nid}")
        if lab.mark == "dashed":
            bad.append(f"dashed-on-node:{nid}")
        elif lab.mark not in NODE_MARKS:
            bad.append(f"unknown-mark:{nid}")
    for eid in sorted(g.edges):
        src, tgt, lab = g.edges[eid]
        if src not in g.nodes:
            bad.append(f"dangling-src:{eid}")
        if tgt not in g.nodes:
            bad.append(f"dangling-tgt:{eid}")
        if not atom_ok(lab.atom):
            bad.append(f"unknown-atom:{eid}")
        if lab.mark == "grey":
            bad.append(f"grey-on-edge:{eid}")
        elif lab.mark not in EDGE_MARKS:
            bad.append(f"unknown-mark:{eid}")
    for nid in sorted(g.roots):
        if nid not in g.nodes:
            bad.append(f"root-not-node:{nid}")
    return bad


def check_boundedness(g, max_outdegree, max_roots):
    """True iff every outdegree is at most max_outdegree and |roots| <= max_roots."""
    return len(g.roots) <= max_roots and \
        all(len(g.out_edges(v)) <= max_outdegree for v in g.nodes)


def bench_host(target_space, input="1" + "0" * 19):
    """Smallest configuration graph of the benchmark family whose
    graph_space reaches the target: a fixed fresh configuration encoded
    at growing capacity levels."""
    s = TMConfiguration(0, input, 0, "", 0)
    for k in range(16):
        g = enc(s, k)
        if graph_space(g) >= target_space:
            return g
    raise ValueError(f"no benchmark host reaches graph_space {target_space}")


# Share of random left sides that are empty.  The empty graph is always
# fast and matches every host once, so it is redrawn everywhere else.
EMPTY_LHS_RATE = 0.05


def random_fast_lhs(rng, max_nodes=4, small=False):
    """Random left-hand side whose nodes are all reachable from roots; empty
    at the rate EMPTY_LHS_RATE."""
    atoms = SMALL_ATOMS if small else FULL_ATOMS
    marks = SMALL_MARKS if small else NODE_MARKS
    emarks = SMALL_MARKS if small else EDGE_MARKS
    if rng.random() < EMPTY_LHS_RATE:
        return Graph()
    while True:
        g = random_graph(rng, max_nodes, atoms, marks, emarks)
        if not g.nodes:
            continue
        try:
            compile_plan(g)
        except NotFastRule:
            continue
        return g


def embed_and_grow(rng, L, extra_nodes, atoms, node_marks, edge_marks):
    """Host containing an exact copy of L plus random extra structure."""
    g = Graph()
    image = {}
    for v in sorted(L.nodes):
        image[v] = g.add_node(L.nodes[v], root=v in L.roots)
    for e in sorted(L.edges):
        s, t, lab = L.edges[e]
        g.add_edge(image[s], image[t], lab)
    for _ in range(rng.randint(0, extra_nodes)):
        g.add_node(Label(rng.choice(atoms), rng.choice(node_marks)),
                   root=rng.random() < 0.15)
    ids = sorted(g.nodes)
    if ids:
        for _ in range(rng.randint(0, 4)):
            g.add_edge(rng.choice(ids), rng.choice(ids),
                       Label(rng.choice(atoms), rng.choice(edge_marks)))
    return g


def random_match_pair(rng, max_l=4, max_g=8):
    """A (fast L, host G) pair; about half the hosts embed L so matches exist."""
    small = rng.random() < 0.5
    atoms = SMALL_ATOMS if small else FULL_ATOMS
    marks = SMALL_MARKS if small else NODE_MARKS
    emarks = SMALL_MARKS if small else EDGE_MARKS
    L = random_fast_lhs(rng, max_l, small=small)
    if rng.random() < 0.5 and len(L.nodes) <= max_g:
        G = embed_and_grow(rng, L, max_g - len(L.nodes), atoms, marks, emarks)
    else:
        G = random_graph(rng, max_g, atoms, marks, emarks, root_p=0.25)
    return L, G


def random_rule_and_host(rng, max_l=4, max_new=2):
    """A random rule with a fast left side, and a host that embeds that
    side.  Right-side node and edge ids are drawn out of order, so
    application must sort them itself."""
    small = rng.random() < 0.5
    atoms = SMALL_ATOMS if small else FULL_ATOMS
    marks = SMALL_MARKS if small else NODE_MARKS
    emarks = SMALL_MARKS if small else EDGE_MARKS
    L = random_fast_lhs(rng, max_l, small=small)
    kept = [v for v in sorted(L.nodes) if rng.random() < 0.6]
    items = kept + [None] * rng.randint(0, max_new)
    rng.shuffle(items)
    R = Graph()
    interface = {}
    for v, rid in zip(items, rng.sample(range(3 * len(items) + 1),
                                        len(items))):
        if v is not None and rng.random() < 0.5:
            lab = L.nodes[v]
        else:
            lab = Label(rng.choice(atoms), rng.choice(marks))
        root = rng.random() < 0.4
        if v is not None and rng.random() < 0.6:
            root = v in L.roots
        R.add_node(lab, root=root, nid=rid)
        if v is not None:
            interface[v] = rid
    ids = sorted(R.nodes)
    n_edges = rng.randint(0, 2 * len(ids)) if ids else 0
    for eid in rng.sample(range(3 * n_edges + 1), n_edges):
        R.add_edge(rng.choice(ids), rng.choice(ids),
                   Label(rng.choice(atoms), rng.choice(emarks)), eid=eid)
    host = embed_and_grow(rng, L, 4, atoms, marks, emarks)
    return Rule("random", L, R, interface), host


FAMILY_CHANGES = ("node label", "edge label", "root flag", "edge target",
                  "none")


def random_family(rng, size=8):
    """Rules built like the generated `MoveLeft` family: one base left
    side, a root over a tree of 1 to 3 nodes with extra edges between
    them, and variants that each differ from the base in one place: a
    deeper node's label, an edge's label, a deeper node's root flag, an
    extra edge's target, or nowhere.  Rule k relabels the root to the
    atom 10 + k, and some rules delete a deeper node.  Returns the rules
    and the change each made, "base" for the first."""
    atoms, emarks = [0, 1], [None, "red"]
    n = rng.randint(2, 4)
    labels = [Label(rng.choice(atoms)) for _ in range(n)]
    tree = [(rng.randrange(i), i, Label(None, rng.choice(emarks)))
            for i in range(1, n)]
    extra = [(rng.randrange(n), rng.randrange(n),
              Label(None, rng.choice(emarks)))
             for _ in range(rng.randint(1, 2))]
    specs = [(labels, {0}, tree, extra, "base")]
    for _ in range(size - 1):
        labels2, roots2 = list(labels), {0}
        tree2, extra2 = list(tree), list(extra)
        change = rng.choice(FAMILY_CHANGES)
        v = rng.randrange(1, n)
        if change == "node label":
            labels2[v] = Label(1 - labels2[v].atom)
        elif change == "root flag":
            roots2.add(v)
        elif change == "edge target":
            j = rng.randrange(len(extra2))
            s, t, lab = extra2[j]
            extra2[j] = (s, rng.choice([u for u in range(n) if u != t]), lab)
        elif change == "edge label":
            edges = tree2 + extra2
            j = rng.randrange(len(edges))
            s, t, lab = edges[j]
            flipped = (s, t, Label(None, "red" if lab.mark is None else None))
            if j < len(tree2):
                tree2[j] = flipped
            else:
                extra2[j - len(tree2)] = flipped
        specs.append((labels2, roots2, tree2, extra2, change))
    family, changes = [], []
    for k, (labels, roots, tree, extra, change) in enumerate(specs):
        L, R = Graph(), Graph()
        gone = rng.randrange(1, n) if rng.random() < 0.3 else None
        for v, lab in enumerate(labels):
            L.add_node(lab, root=v in roots)
            if v != gone:
                R.add_node(Label(10 + k) if v == 0 else lab, root=v in roots,
                           nid=v)
        for s, t, lab in tree + extra:
            L.add_edge(s, t, lab)
            if gone not in (s, t):
                R.add_edge(s, t, lab)
        family.append(Rule(f"v{k}", L, R,
                           {v: v for v in range(n) if v != gone}))
        changes.append(change)
    return family, changes


def family_hosts(rng, family, count=4):
    """Hosts that each embed the left side of a random member of the
    family, so that it and often some other members match, with extra
    nodes and edges over the family's labels."""
    return [embed_and_grow(rng, rng.choice(family).left, 3, [None, 0, 1],
                           [None], [None, "red"])
            for _ in range(count)]


@dataclass
class PartialMorphism:
    """Injective structure-preserving partial map between two graphs."""

    node_map: dict[int, int] = field(default_factory=dict)
    edge_map: dict[int, int] = field(default_factory=dict)

    def key(self) -> tuple:
        return (tuple(sorted(self.node_map.items())),
                tuple(sorted(self.edge_map.items())))


def check_morphism(h: PartialMorphism, L: Graph, G: Graph) -> bool:
    """True iff h is an injective partial morphism L -> G that preserves
    sources, targets and labels and both preserves and reflects roots."""
    if len(set(h.node_map.values())) != len(h.node_map):
        return False
    if len(set(h.edge_map.values())) != len(h.edge_map):
        return False
    for v, w in h.node_map.items():
        if v not in L.nodes or w not in G.nodes:
            return False
        if L.nodes[v] != G.nodes[w]:
            return False
        if (v in L.roots) != (w in G.roots):
            return False
    for e, f in h.edge_map.items():
        if e not in L.edges or f not in G.edges:
            return False
        ls, lt, llab = L.edges[e]
        gs, gt, glab = G.edges[f]
        if llab != glab:
            return False
        if h.node_map.get(ls) != gs or h.node_map.get(lt) != gt:
            return False
    return True


def match_bruteforce(L: Graph, G: Graph) -> list[PartialMorphism]:
    """Oracle enumerator: every injective node mapping crossed with every
    compatible edge mapping, filtered through check_morphism."""
    lnodes = sorted(L.nodes)
    ledges = sorted(L.edges)
    results = []
    for images in permutations(sorted(G.nodes), len(lnodes)):
        nm = dict(zip(lnodes, images))
        cands = []
        for e in ledges:
            s, t, lab = L.edges[e]
            want = (nm[s], nm[t], lab)
            cands.append([f for f in sorted(G.edges) if G.edges[f] == want])
        for combo in product(*cands):
            if len(set(combo)) != len(combo):
                continue
            h = PartialMorphism(dict(nm), dict(zip(ledges, combo)))
            if check_morphism(h, L, G):
                results.append(h)
    results.sort(key=PartialMorphism.key)
    return results


class PlanMatches(NamedTuple):
    """One plan's matches in search order, and the extensions tried."""

    matches: list
    extensions: int


def match_plan(plan, G) -> PlanMatches:
    """match_all on the plan alone, searched as a one-leaf tree."""
    res = match_all(search_tree([plan]), G)
    return PlanMatches(res.matches.get(0, []), res.extensions)


def morphism(plan, match):
    """The match, a pair of slot tuples from match_all, as the
    PartialMorphism keyed by left-side id that the oracle works with."""
    nimg, eimg = match
    return PartialMorphism(dict(zip(plan.nodes, nimg)),
                           dict(zip(plan.edges, eimg)))


def dangling_ok_reference(match, r, G):
    """The dangling condition, walking the rule's sides on every call."""
    h = morphism(r.plan, match)
    matched_edges = set(h.edge_map.values())
    for lv in r.left.nodes:
        if lv in r.interface:
            continue
        w = h.node_map[lv]
        for e in G.out_edges(w):
            if e not in matched_edges:
                return False
        for e in G.in_edges(w):
            if e not in matched_edges:
                return False
    return True


def candidates_reference(rules, G):
    """The rules whose left-root labels all occur among G's root labels,
    in declared order, testing every rule: the oracle for
    RuleSet.candidates."""
    key = {G.nodes[v] for v in G.roots}
    return tuple(r for r in rules
                 if all(r.left.nodes[v] in key for v in r.left.roots))


def apply_reference(G, r, match, in_place=False):
    """Rule application, re-sorting the rule's sides on every call: the
    oracle for the compiled application script."""
    if not dangling_ok_reference(match, r, G):
        raise DanglingViolation(f"rule {r.name} at {match}")
    h = morphism(r.plan, match)
    H = G if in_place else G.copy()
    for e in sorted(h.edge_map):
        H.remove_edge(h.edge_map[e])
    node_map = {rv: h.node_map[lv] for lv, rv in r.interface.items()}
    for lv in sorted(r.left.nodes):
        if lv not in r.interface:
            H.remove_node(h.node_map[lv])
    for rv in sorted(r.right.nodes):
        if rv in node_map:
            H.relabel_node(node_map[rv], r.right.nodes[rv])
        else:
            node_map[rv] = H.add_node(r.right.nodes[rv])
    for re_ in sorted(r.right.edges):
        s, t, lab = r.right.edges[re_]
        H.add_edge(node_map[s], node_map[t], lab)
    for lv in r.interface:
        H.roots.discard(h.node_map[lv])
    for rv in r.right.roots:
        H.roots.add(node_map[rv])
    return H


def is_static_noop_reference(r):
    """No edges on either side, nothing deleted or added, and interface
    labels and root statuses identical across the two sides."""
    return (not r.left.edges and not r.right.edges
            and set(r.left.nodes) == set(r.interface)
            and set(r.right.nodes) == set(r.interface.values())
            and all(r.left.nodes[lv] == r.right.nodes[rv]
                    and (lv in r.left.roots) == (rv in r.right.roots)
                    for lv, rv in r.interface.items()))


class LengthMismatch(InputError):
    pass


def block_content(symbols, c=None):
    """Ternary value of a block, leftmost digit most significant: the
    oracle of `minigp.encoding.content_digits`."""
    if c is not None and len(symbols) != c:
        raise LengthMismatch(f"expected {c} digits, got {len(symbols)}")
    value = 0
    for d in symbols:
        if d not in (0, 1, 2):
            raise OutOfRange(f"digit {d!r} not in {{0,1,2}}")
        value = value * 3 + d
    return value


def min_k(s):
    """Smallest k whose capacity covers the used work squares."""
    need = max(len(s.work), s.work_head + 1)
    k = 0
    while EncodingParams(k).capacity < need:
        k += 1
    return k


def enc_reference(s, k):
    """enc_k built edge by edge: the oracle for the shared layout."""
    p = EncodingParams(k)
    if max(len(s.work), s.work_head + 1) > p.capacity:
        raise CapacityExceeded(f"{max(len(s.work), s.work_head + 1)} squares exceed {p.capacity}")
    n = len(s.input)
    if n == 0 or set(s.input) - {"0", "1"}:
        raise OutOfRange(f"input must be nonempty binary, got {s.input!r}")
    if not 0 <= s.input_head < n:
        raise OutOfRange(f"input head {s.input_head} outside [0, {n})")

    padded = s.work + str(BLANK) * (p.capacity - len(s.work))
    digits = [[int(ch) for ch in padded[i * p.c:(i + 1) * p.c]] for i in range(p.b)]
    active = s.work_head // p.c
    offset = s.work_head % p.c

    g = Graph()
    central = g.add_node(Label(s.state), root=True)
    inp = [g.add_node(Label(int(ch))) for ch in s.input]
    blocks = [g.add_node(EMPTY) for _ in range(p.b)]
    cache = [g.add_node(Label(d)) for d in digits[active]]

    g.add_edge(central, inp[0], Label("I", "green"))
    g.add_edge(central, inp[s.input_head], Label(None, "green"))
    for i in range(n - 1):
        g.add_edge(inp[i], inp[i + 1], Label(None, "red"))
        g.add_edge(inp[i + 1], inp[i], Label(None, "blue"))
    for i in range(p.b - 1):
        g.add_edge(blocks[i], blocks[i + 1], Label(None, "red"))
        g.add_edge(blocks[i + 1], blocks[i], Label(None, "blue"))
    for i in range(p.b):
        tgt = blocks[0] if i == active else blocks[block_content(digits[i])]
        g.add_edge(blocks[i], tgt, Label(None, "dashed"))
    g.add_edge(central, blocks[0], Label(None, "blue"))
    g.add_edge(central, blocks[active], Label(None, "dashed"))
    for i in range(p.c - 1):
        g.add_edge(cache[i], cache[i + 1], Label(None, "red"))
        g.add_edge(cache[i + 1], cache[i], Label(None, "blue"))
    g.add_edge(central, cache[-1], Label(None, "red"))
    g.add_edge(central, cache[offset], Label(None))
    return g


def _walk_right_reference(g, start, bad, what):
    order = [start]
    seen = {start}
    while True:
        reds = [e for e in g.out_edges(order[-1])
                if g.edges[e][2] == Label(None, "red")]
        if not reds:
            return order
        if len(reds) > 1:
            bad(f"{what}: node {order[-1]} has several red out-edges")
        tgt = g.edges[reds[0]][1]
        if tgt in seen:
            bad(f"{what}: red edges form a cycle at node {tgt}")
        order.append(tgt)
        seen.add(tgt)


def dec_reference(g):
    """Decode by walking the graph, re-encode the result with
    enc_reference, and compare the two graphs' edge multisets: the oracle
    for dec, which checks against the shared layout instead."""
    def bad(reason):
        raise MalformedConfigGraph(reason)

    if len(g.roots) != 1:
        bad(f"expected exactly one root, found {len(g.roots)}")
    central = next(iter(g.roots))
    state = getattr(g.nodes[central], "atom", None)
    if not isinstance(state, int):
        bad(f"central label {g.nodes[central]} is not a state")

    targets = {}
    out = g.out_edges(central)
    if len(out) != 6:
        bad(f"central node has {len(out)} out-edges, expected 6")
    for e in out:
        _, tgt, lab = g.edges[e]
        if lab in targets:
            bad(f"central node has two {lab} out-edges")
        targets[lab] = tgt
    want = [Label("I", "green"), Label(None, "green"), Label(None, "blue"),
            Label(None, "dashed"), Label(None, "red"), Label(None)]
    for lab in want:
        if lab not in targets:
            bad(f"central node lacks a {lab} out-edge")

    inp = _walk_right_reference(g, targets[Label("I", "green")], bad, "INPUT")
    blocks = _walk_right_reference(g, targets[Label(None, "blue")], bad, "BLOCKSET")
    cache_right = targets[Label(None, "red")]
    cache = _walk_right_reference(g, cache_right, bad, "CACHE")
    if len(cache) != 1:
        bad("central red edge does not target the rightmost cache node")
    blues = [e for e in g.out_edges(cache_right)
             if g.edges[e][2] == Label(None, "blue")]
    cache = [cache_right]
    while blues:
        if len(blues) > 1:
            bad(f"CACHE: node {cache[0]} has several blue out-edges")
        tgt = g.edges[blues[0]][1]
        if tgt in cache:
            bad("CACHE: blue edges form a cycle")
        cache.insert(0, tgt)
        blues = [e for e in g.out_edges(tgt)
                 if g.edges[e][2] == Label(None, "blue")]

    c, b, n = len(cache), len(blocks), len(inp)
    if c < 2:
        bad(f"cache has {c} nodes, need at least 2")
    if b != 3 ** c:
        bad(f"blockset has {b} nodes, expected 3^{c}")
    k = c - 2
    sections = [central] + inp + blocks + cache
    if len(set(sections)) != len(sections):
        bad("schema sections overlap")
    if set(sections) != set(g.nodes):
        bad(f"{len(g.nodes) - len(sections)} nodes outside the schema sections")

    bits = [getattr(g.nodes[v], "atom", None) for v in inp]
    if any(x not in (0, 1) for x in bits):
        bad("input node labelled outside {0,1}")
    if targets[Label(None, "green")] not in inp:
        bad("input head edge targets a non-input node")
    input_head = inp.index(targets[Label(None, "green")])

    if targets[Label(None, "dashed")] not in blocks:
        bad("active block edge targets a non-block node")
    active = blocks.index(targets[Label(None, "dashed")])

    digits = [getattr(g.nodes[v], "atom", None) for v in cache]
    if any(d not in (0, 1, 2) for d in digits):
        bad("cache node labelled outside {0,1,2}")
    if targets[Label(None)] not in cache:
        bad("cache head edge targets a non-cache node")
    offset = cache.index(targets[Label(None)])

    contents = []
    block_index = {v: i for i, v in enumerate(blocks)}
    for i, v in enumerate(blocks):
        if i == active:
            contents.extend(digits)
            continue
        dashed = [e for e in g.out_edges(v)
                  if g.edges[e][2] == Label(None, "dashed")]
        if len(dashed) != 1:
            bad(f"block node {v} has {len(dashed)} dashed out-edges")
        tgt = g.edges[dashed[0]][1]
        if tgt not in block_index:
            bad(f"block node {v} points outside the blockset")
        contents.extend(content_digits(block_index[tgt], c))

    work = "".join(str(d) for d in contents).rstrip(str(BLANK))
    s = TMConfiguration(state, "".join(str(x) for x in bits), input_head,
                        work, active * c + offset)

    reference = enc_reference(s, k)
    to_ref = {v: i for i, v in enumerate(sections)}
    for v, i in to_ref.items():
        if g.nodes[v] != reference.nodes[i]:
            bad(f"node {v} labelled {g.nodes[v]}, schema wants {reference.nodes[i]}")
    mine = Counter((to_ref[s_], to_ref[t], lab) for s_, t, lab in g.edges.values())
    ref = Counter((s_, t, lab) for s_, t, lab in reference.edges.values())
    if mine != ref:
        diff = next(iter((mine - ref) or (ref - mine)))
        bad(f"edge structure differs from the schema near {diff}")
    return s, k


def run_program(program, g0, *, mode="semantic", max_rule_calls=None,
                loop_hook=None):
    """One-shot run; returns the terminal configuration and its statistics."""
    interp = Interp(mode=mode, max_rule_calls=max_rule_calls, loop_hook=loop_hook)
    cfg = interp.run(program, g0)
    return cfg, interp.stats


class _Analysis(Interp):
    """Interp that records the snapshot choice of every critical site."""

    def __init__(self):
        super().__init__(mode="efficient")
        self.snapshot = {}

    def _critical(self, site, run, snapshot):
        self.snapshot[site] = snapshot
        return super()._critical(site, run, snapshot)


def analysis(com):
    """What Interp's build pass derives for com and the commands in it: a
    map of each to its effects (may_fail, may_mutate,
    may_fail_after_mutating), and a map of each critical site (If, Try or
    Loop) to whether it saves the host."""
    a, built = _Analysis(), {}
    a._build(com, built)
    return {c: effects for c, (_, effects) in built.items()}, a.snapshot


def restore(g, saved):
    """Make g become saved, a copy of it taken earlier, in O(1) by adopting
    its dicts, roots and id counters; saved must not be used afterwards."""
    g.nodes = saved.nodes
    g.edges = saved.edges
    g.roots = saved.roots
    g._out = saved._out
    g.next_node_id = saved.next_node_id
    g.next_edge_id = saved.next_edge_id


@dataclass(frozen=True)
class Running:
    prog: tuple
    graph: Graph


def is_terminal(cfg):
    """Done, Fail, or a bare break (a loop body that just left its loop)."""
    if isinstance(cfg, (Done, Fail)):
        return True
    return len(cfg.prog) == 1 and isinstance(cfg.prog[0], Break)


def _flatten(com):
    if isinstance(com, Seq):
        return tuple(c for p in com.parts for c in _flatten(p))
    return (com,)


class StepInterp:
    """The paper's small-step relation over configurations
    <program rest, graph>: the reference `Interp.run` is checked against.

    One step resolves the leading command: a rule-set call applies or
    fails, branching runs its condition to a terminal outcome, a loop runs
    one whole body iteration.  Semantic mode is purely functional: each
    rule application rewrites a copy, and conditions and loop bodies run on
    copies.  Efficient mode rewrites the graph in place and raises
    NullFailureViolation where a discarded subprogram mutated.
    `loop_hook(loop, graph, stats)` fires after each completed
    (non-breaking, non-failing) iteration.
    """

    def __init__(self, *, mode="semantic", max_rule_calls=None,
                 loop_hook=None):
        self.mode = mode
        self.max_rule_calls = max_rule_calls
        self.loop_hook = loop_hook
        self.stats = ExecStats()

    def run(self, program, g0):
        if isinstance(program, Program):
            coms = program.main
        elif isinstance(program, Com):
            coms = (program,)
        else:
            coms = tuple(program)
        self._note(g0)
        flat = tuple(c for com in coms for c in _flatten(com))
        cfg = Running(flat, g0) if flat else Done(g0)
        while not is_terminal(cfg):
            cfg = self.step(cfg)
        if isinstance(cfg, Running):
            raise RuntimeError("break escaped the program")
        return cfg

    def step(self, cfg):
        if not isinstance(cfg, Running) or is_terminal(cfg):
            raise ValueError("step needs a non-terminal Running configuration")
        com, rest, G = cfg.prog[0], cfg.prog[1:], cfg.graph
        if isinstance(com, Break):
            return Running((com,), G)
        if isinstance(com, Seq):
            return Running(_flatten(com) + rest, G)
        if isinstance(com, RuleCall):
            H = self._call(com, G)
            if H is None:
                return Fail()
            return Running(rest, H) if rest else Done(H)
        if isinstance(com, If):
            ok, _ = self._condition(com.cond, G, keep=False)
            branch = com.then if ok else com.els
            return Running(_flatten(branch) + rest, G)
        if isinstance(com, Try):
            ok, H = self._condition(com.cond, G, keep=True)
            branch, g = (com.then, H) if ok else (com.els, G)
            return Running(_flatten(branch) + rest, g)
        if isinstance(com, Loop):
            t = self._iteration(com.body, G)
            if isinstance(t, Done):
                if self.loop_hook is not None:
                    self.loop_hook(com, t.graph, self.stats)
                return Running(cfg.prog, t.graph)
            if isinstance(t, Fail):
                return Running(rest, G) if rest else Done(G)
            return Running(rest, t.graph) if rest else Done(t.graph)
        raise TypeError(f"cannot step {com!r}")

    def _subrun(self, com, g):
        cfg = Running(_flatten(com), g)
        while not is_terminal(cfg):
            cfg = self.step(cfg)
        return cfg

    def _condition(self, com, G, keep):
        before = self.stats.mutations
        t = self._subrun(com, G.copy() if self.mode == "semantic" else G)
        if isinstance(t, Running):
            raise RuntimeError("break escaped a condition")
        ok = isinstance(t, Done)
        if self.mode == "efficient" and self.stats.mutations != before:
            if not ok:
                raise NullFailureViolation("failing condition mutated the graph")
            if not keep:
                raise NullFailureViolation("if-condition mutated the graph it discards")
        return ok, (t.graph if ok else None)

    def _iteration(self, body, G):
        before = self.stats.mutations
        t = self._subrun(body, G.copy() if self.mode == "semantic" else G)
        if isinstance(t, Fail) and self.mode == "efficient" \
                and self.stats.mutations != before:
            raise NullFailureViolation("failing loop body mutated the graph")
        return t

    def _call(self, com, G):
        """The rewritten graph, or None if no rule of the set applies."""
        st = self.stats
        if self.max_rule_calls is not None and st.rule_calls >= self.max_rule_calls:
            raise BudgetExceeded(f"rule-call budget {self.max_rule_calls} exhausted")
        st.rule_calls += 1
        H = G.copy() if self.mode == "semantic" else G
        out = apply_ruleset(H, com.rules)
        st.match_multiplicity_max = max(st.match_multiplicity_max, out.total_matches)
        if not out.applied:
            return None
        st.rule_applications[out.rule.name] += 1
        if not out.rule.is_static_noop:
            st.mutations += 1
        self._note(H)
        return H

    def _note(self, g):
        st = self.stats
        st.peak_graph_space = max(st.peak_graph_space, graph_space(g))
        st.peak_nodes = max(st.peak_nodes, len(g.nodes))
