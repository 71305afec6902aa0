"""Rules with relabelling and their application to host graphs.

A rule is a pair of totally labelled graphs sharing an interface of node ids.
Application deletes the matched image of the left side (edges, then non-
interface nodes), adds the right side's new nodes and all of its edges, and
relabels/re-roots the interface images from the right side.

A rule compiles on first use into cached attributes: `plan` holds its
left side's search plan, and `script` the application script that `apply`
and `dangling_ok` replay instead of re-sorting both sides on every call.
A match is the pair of host-id tuples that `match_all` returns, indexed
by the plan's slots, and the script names left items by those slot
numbers, so applying a rule looks nothing up by left-side id.
Compilation is lazy because a generated library holds thousands of
rules, many of which a run never tries: compiling all 2,656 rules of the
filler machine up front takes nearly as long as generating them.  Plans
are built for the rules a run tries, and scripts for the rules that
match or whose no-op test a run's build pass reads.  Equal compiled
pieces are shared between rules, so the compiled form stays small.

`RuleSet.candidates` keeps only the rules whose left-root labels all
occur among the host's root labels, memoized under that set and, from
the first miss on, grouped by their left-root labels.  Each miss also
merges the candidates' plans into one search tree, so `apply_ruleset`
makes one `match_all` call per scan, and none when no rule is a
candidate.  A set whose only rule has two empty sides, GP's `skip`, has
the same outcome on every host and returns it without a scan.
`apply_ruleset` calls `dangling_ok` only for node-deleting rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

from . import graphs
from .errors import InputError, RunError
from .graphs import Graph, Label
from .matching import (Match, SearchPlan, Tree, compile_plan, match_all,
                       search_tree, share)


class DanglingViolation(RunError):
    """A deleted node would leave behind an incident host edge."""


class Script(NamedTuple):
    """What one application of a rule does to the host, in replay order.

    Left nodes are named by their slot in the rule's search plan, which
    indexes the node images of a match.  Every matched edge is deleted, so
    the script does not list them.  Kept nodes and then new nodes form a
    list of images that wire and roots index into: kept holds the slots of
    the interface nodes that right-side edges or roots need, and add the
    labels of the new nodes in ascending right-side id order.

    nodes: slots of the non-interface left nodes to delete.
    relabel: (slot, label) for interface nodes whose label changes.
    wire: (source, target, label) per right-side edge, ascending by id.
    roots: images that become roots; unroot: slots that stop being one.
    """

    nodes: tuple[int, ...]
    relabel: tuple[tuple[int, Optional[Label]], ...]
    kept: tuple[int, ...]
    add: tuple[Optional[Label], ...]
    wire: tuple[tuple[int, int, Label], ...]
    roots: tuple[int, ...]
    unroot: tuple[int, ...]


def compile_script(r: Rule) -> Script:
    """The script that applies r at any match of its search plan."""
    L, R = r.left, r.right
    slot = {lv: i for i, lv in enumerate(r.plan.nodes)}
    back = {rv: lv for lv, rv in r.interface.items()}
    new = [rv for rv in sorted(R.nodes) if rv not in back]
    wired = {v for s, t, _ in R.edges.values() for v in (s, t)}
    kept = [rv for rv in sorted(back)
            if rv in wired or (rv in R.roots and back[rv] not in L.roots)]
    index = {rv: i for i, rv in enumerate(kept + new)}
    return share(Script(
        nodes=tuple(slot[v] for v in sorted(L.nodes) if v not in r.interface),
        relabel=tuple((slot[back[rv]], R.nodes[rv]) for rv in sorted(back)
                      if R.nodes[rv] != L.nodes[back[rv]]),
        kept=tuple(slot[back[rv]] for rv in kept),
        add=tuple(R.nodes[rv] for rv in new),
        wire=tuple((index[s], index[t], lab) for s, t, lab in
                   (R.edges[e] for e in sorted(R.edges))),
        roots=tuple(index[rv] for rv in sorted(R.roots)
                    if rv not in back or back[rv] not in L.roots),
        unroot=tuple(slot[lv] for lv, rv in sorted(r.interface.items())
                     if lv in L.roots and rv not in R.roots),
    ))


@dataclass
class Rule:
    """name, left graph, right graph, and the interface node ids shared by
    both sides (mapped left-id -> right-id; the identity map by convention).

    `plan`, `script`, `is_static_noop` and `may_grow` are cached
    attributes, computed on first read, so the two sides must not change
    after the rule is used."""

    name: str
    left: Graph
    right: Graph
    interface: dict[int, int]

    def __post_init__(self) -> None:
        for lv, rv in self.interface.items():
            if lv not in self.left.nodes or rv not in self.right.nodes:
                raise InputError(f"rule {self.name}: interface {lv}={rv} not in both sides")
        if len(set(self.interface.values())) != len(self.interface):
            raise InputError(f"rule {self.name}: interface is not a bijection")

    @cached_property
    def plan(self) -> SearchPlan:
        """The left side's search plan."""
        return compile_plan(self.left)

    @cached_property
    def script(self) -> Script:
        """The application script."""
        return compile_script(self)

    @cached_property
    def is_static_noop(self) -> bool:
        """True iff applying the rule can never change any host graph: its
        left side has no edge to delete, and its application script deletes,
        adds, relabels and re-roots nothing."""
        return not self.left.edges and not any(self.script)

    @cached_property
    def may_grow(self) -> bool:
        """True iff applying the rule can raise a host's node count or its
        graph space: it adds more nodes than it deletes, or more nodes and
        edges together (an application deletes every left edge)."""
        s = self.script
        added, deleted = len(s.add), len(s.nodes)
        return added > deleted or \
            added + len(s.wire) > deleted + len(self.left.edges)


def dangling_ok(match: Match, r: Rule, G: Graph) -> bool:
    """True iff no node slated for deletion keeps a host edge outside the
    match, a pair of slot tuples from r's search plan: one scan of G's
    edges, since G indexes no in-edges."""
    nimg, eimg = match
    doomed = {nimg[i] for i in r.script.nodes}
    matched = set(eimg)
    return all(e in matched for e, (src, tgt, _) in G.edges.items()
               if src in doomed or tgt in doomed)


def apply(G: Graph, r: Rule, match: Match) -> Graph:
    """Apply r at a total match, the pair of slot tuples from r's search
    plan, by deleting every matched edge and replaying the script; rewrites
    G in place and returns it.  Preserved items keep their ids; new nodes
    and all right-side edges get fresh ids in ascending rule-id order."""
    nodes, relabel, kept, add, wire, roots, unroot = r.script
    if nodes and not dangling_ok(match, r, G):
        raise DanglingViolation(f"rule {r.name} at {match}")
    nimg, eimg = match
    for f in eimg:
        G.remove_edge(f)
    for i in nodes:
        G.remove_node(nimg[i])
    for i, lab in relabel:
        G.relabel_node(nimg[i], lab)
    if add or wire or roots:
        img = [nimg[i] for i in kept]
        img += [G.add_node(lab) for lab in add]
        for a, b, lab in wire:
            G.add_edge(img[a], img[b], lab)
        for i in roots:
            G.roots.add(img[i])
    for i in unroot:
        G.roots.discard(nimg[i])
    return G


class Outcome(NamedTuple):
    applied: bool
    rule: Optional[Rule]
    total_matches: int


_NO_MATCH = Outcome(False, None, 0)


class Candidates:
    """The rules of a set that can match hosts with given root labels, in
    declared order, and `tree`, the search tree of their plans, with leaf
    i for rule i."""

    __slots__ = ("rules", "tree")

    def __init__(self, rules: tuple[Rule, ...]):
        self.rules = rules
        self.tree: Tree = search_tree([r.plan for r in rules])

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)


class RuleSet:
    """Ordered rule list that skips rules which cannot match a host.

    A match maps each left root to a host root with the same label, so a
    rule is a candidate only if all its left-root labels occur among the
    host's root labels.  Skipped rules have zero matches by construction,
    leaving outcomes and counts unchanged.  The first memo miss, not the
    constructor, groups the rules by their left-root labels.

    `outcome` is the outcome of every scan when the only rule has two
    empty sides: it matches once on any host and changes nothing.  It is
    None for every other set."""

    def __init__(self, rules: list[Rule]):
        self.rules = tuple(rules)
        self._memo: dict[frozenset, Candidates] = {}
        self._groups: Optional[list[tuple[frozenset, tuple[int, ...]]]] = None
        self.outcome: Optional[Outcome] = None
        if len(self.rules) == 1:
            (r,) = self.rules
            if not r.left.nodes and not r.right.nodes:
                self.outcome = Outcome(True, r, 1)

    def candidates(self, G: Graph) -> Candidates:
        """The rules that can match G, in declared order, with their search
        tree; memoized under the set of root labels, which is all the
        answer depends on."""
        key = frozenset(map(G.nodes.__getitem__, G.roots))
        found = self._memo.get(key)
        if found is None:
            if self._groups is None:
                groups: dict[frozenset, list[int]] = {}
                for i, r in enumerate(self.rules):
                    need = frozenset([r.left.nodes[v] for v in r.left.roots])
                    groups.setdefault(share(need), []).append(i)
                self._groups = [(need, tuple(at)) for need, at in groups.items()]
            found = Candidates(tuple(map(self.rules.__getitem__, sorted(
                i for need, at in self._groups if need <= key for i in at))))
            self._memo[share(key)] = found
        return found


def apply_ruleset(G: Graph, rules: RuleSet) -> Outcome:
    """Search every candidate rule at once and apply the first match of
    the first rule in declared order that has one satisfying the dangling
    condition, rewriting G in place.  The total number of applicable
    matches across the whole set is reported either way."""
    if rules.outcome is not None:
        return rules.outcome
    cands = rules.candidates(G)
    if not cands.rules:
        return _NO_MATCH
    found = match_all(cands.tree, G).matches
    total = 0
    chosen = None
    for i in sorted(found):
        r, ok = cands.rules[i], found[i]
        if r.script.nodes:
            ok = [m for m in ok if dangling_ok(m, r, G)]
        total += len(ok)
        if ok and chosen is None:
            chosen = (r, ok[0])
    if chosen is None:
        return Outcome(False, None, total)
    r, m = chosen
    apply(G, r, m)
    return Outcome(True, r, total)


def rules_to_text(rules: list[Rule]) -> str:
    """Serialize rules as left/right graph blocks plus an interface line."""
    out = []
    for r in rules:
        out.append(f"rule {r.name}")
        out.append("left")
        out.append(graphs.to_text(r.left).rstrip("\n"))
        out.append("right")
        out.append(graphs.to_text(r.right).rstrip("\n"))
        pairs = " ".join(f"{lv}={rv}" for lv, rv in sorted(r.interface.items()))
        out.append(f"interface {pairs}".rstrip())
        out.append("end")
    return "\n".join(out) + "\n"

