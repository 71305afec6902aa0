"""Programs built from rule-set calls: parser, procedure inlining, and an
evaluator that builds each program into closures once per run.

Commands are rule-set calls, sequencing, if/try branching, as-long-as-
possible loops (`!`), grouping, and break.  At the start of a run every
distinct command becomes one closure from the host graph to a status, with
the mode and each site's choices read then; the run calls the entry
command's closure, which rewrites the one host graph in place.  Conditions
and loop bodies are critical subprograms, whose result a construct may
discard.  The pass that builds the closures also derives each command's
effects from its parts, and from them whether a discarded run at each
critical site could have changed the host.  Semantic mode saves the host
only before such a run, with `Graph.mark`, and rolls back to the mark
when the result is discarded;
the graph copies itself at the outermost open save and journals the
saves nested in it, so only the outermost save costs a copy.  Efficient
mode saves nothing and, at those same sites, insists a save would have
been pointless (no mutation on any path whose result gets discarded).
At every other site both modes run the subprogram bare.  Peak graph
space is noted only after rules that can raise it (the cached
`Rule.may_grow` attribute).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import InputError, ParseError, RunError
from .graphs import Graph, graph_space
from .rules import Rule, RuleSet, apply_ruleset
from .turing import BudgetExceeded


class UnknownRule(ParseError):
    pass


class RecursiveProcedure(ParseError):
    pass


class BreakOutsideLoop(ParseError):
    pass


class NullFailureViolation(RunError):
    """Efficient mode found a discarded-result subprogram that mutated."""


class Com:
    """Base class for commands; instances compare by identity."""


@dataclass(eq=False, frozen=True)
class RuleCall(Com):
    names: tuple[str, ...]
    rules: RuleSet = field(repr=False)


@dataclass(eq=False, frozen=True)
class Seq(Com):
    parts: tuple[Com, ...]


@dataclass(eq=False, frozen=True)
class If(Com):
    """The condition's run is always discarded."""

    cond: Com
    then: Com
    els: Com


@dataclass(eq=False, frozen=True)
class Try(Com):
    """The condition's run is kept when it succeeds."""

    cond: Com
    then: Com
    els: Com


@dataclass(eq=False, frozen=True)
class Loop(Com):
    """Runs its body until the body fails (discarded) or breaks."""

    body: Com


@dataclass(eq=False, frozen=True)
class Break(Com):
    pass


@dataclass(eq=False, frozen=True)
class Program:
    main: tuple[Com, ...]
    procedures: dict[str, tuple[Com, ...]]


@dataclass(frozen=True)
class Done:
    graph: Graph


@dataclass(frozen=True)
class Fail:
    pass


ExecConfiguration = Union[Done, Fail]

# Statuses of a command run by the evaluator.
_OK, _FAIL, _BREAK = "ok", "fail", "break"

# A command built into a closure: runs on the host, returns its status.
Runner = Callable[[Graph], str]

# What a run of a command may do: (fail, change the host, fail after
# changing the host).  A command without the last effect leaves the host as
# it found it when it fails; one without the second always does.
Effects = tuple[bool, bool, bool]


@dataclass
class ExecStats:
    """Counters of a run.  snapshots counts the saves semantic mode makes."""

    rule_calls: int = 0
    mutations: int = 0
    snapshots: int = 0
    restarts: int = 0
    peak_graph_space: int = 0
    peak_nodes: int = 0
    match_multiplicity_max: int = 0
    rule_applications: Counter = field(default_factory=Counter)


_KEYWORDS = frozenset({"if", "then", "else", "try", "break"})
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[(){};,!]|\S")


def _skip_rule() -> Rule:
    return Rule("skip", Graph(), Graph(), {})


class _Builder:
    """Shared state while turning declaration token lists into ASTs."""

    def __init__(self, decls: dict[str, list[str]], library: dict[str, tuple[Rule, ...]]):
        self.decls = decls
        self.library = library
        self.built: dict[str, tuple[Com, ...]] = {}
        self.stack: list[str] = []
        self._sets: dict[tuple[str, ...], RuleSet] = {}

    def procedure(self, name: str) -> tuple[Com, ...]:
        if name in self.built:
            return self.built[name]
        if name in self.stack:
            raise RecursiveProcedure(" -> ".join(self.stack + [name]))
        self.stack.append(name)
        body = _Parser(self, self.decls[name], name).toplevel()
        self.stack.pop()
        self.built[name] = body
        return body

    def rule_call(self, names: Sequence[str]) -> RuleCall:
        key = tuple(names)
        rs = self._sets.get(key)
        if rs is None:
            pool: list[Rule] = []
            for n in key:
                pool.extend(self.library[n])
            rs = self._sets[key] = RuleSet(pool)
        return RuleCall(key, rs)


class _Parser:
    def __init__(self, builder: _Builder, tokens: list[str], where: str):
        self.b = builder
        self.tokens = tokens
        self.pos = 0
        self.where = where

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        t = self.peek()
        if t is None:
            raise ParseError(f"{self.where}: unexpected end of declaration")
        self.pos += 1
        return t

    def expect(self, tok: str) -> None:
        t = self.take()
        if t != tok:
            raise ParseError(f"{self.where}: expected {tok!r}, got {t!r}")

    def toplevel(self) -> tuple[Com, ...]:
        parts = self.seq()
        if self.peek() is not None:
            raise ParseError(f"{self.where}: trailing {self.peek()!r}")
        return tuple(parts)

    def seq(self) -> list[Com]:
        parts = [self.com()]
        while self.peek() == ";":
            self.take()
            parts.append(self.com())
        return parts

    def com(self) -> Com:
        c = self.primary()
        while self.peek() == "!":
            self.take()
            c = Loop(c)
        return c

    def ident(self) -> str:
        t = self.take()
        if not _IDENT.fullmatch(t) or t in _KEYWORDS:
            raise ParseError(f"{self.where}: expected a name, got {t!r}")
        return t

    def skip_call(self) -> Com:
        return self.b.rule_call(("skip",))

    def primary(self) -> Com:
        t = self.take()
        if t == "(":
            parts = self.seq()
            self.expect(")")
            return parts[0] if len(parts) == 1 else Seq(tuple(parts))
        if t == "{":
            names = [self.ident()]
            while self.peek() == ",":
                self.take()
                names.append(self.ident())
            self.expect("}")
            for n in names:
                if n in self.b.decls:
                    raise ParseError(f"{self.where}: procedure {n!r} in a rule set")
                if n not in self.b.library:
                    raise UnknownRule(n)
            return self.b.rule_call(names)
        if t == "if":
            cond = self.com()
            self.expect("then")
            then = self.com()
            els = self.skip_call()
            if self.peek() == "else":
                self.take()
                els = self.com()
            return If(cond, then, els)
        if t == "try":
            cond = self.com()
            then = self.skip_call()
            els = self.skip_call()
            if self.peek() == "then":
                self.take()
                then = self.com()
            if self.peek() == "else":
                self.take()
                els = self.com()
            return Try(cond, then, els)
        if t == "break":
            return Break()
        if _IDENT.fullmatch(t) and t not in _KEYWORDS:
            if t in self.b.decls:
                body = self.b.procedure(t)
                return body[0] if len(body) == 1 else Seq(body)
            if t in self.b.library:
                return self.b.rule_call((t,))
            raise UnknownRule(t)
        raise ParseError(f"{self.where}: unexpected {t!r}")


def _check_breaks(coms: Sequence[Com], in_loop: bool) -> None:
    for c in coms:
        if isinstance(c, Break):
            if not in_loop:
                raise BreakOutsideLoop("break outside any loop body")
        elif isinstance(c, Seq):
            _check_breaks(c.parts, in_loop)
        elif isinstance(c, (If, Try)):
            _check_breaks((c.cond,), False)
            _check_breaks((c.then, c.els), in_loop)
        elif isinstance(c, Loop):
            _check_breaks((c.body,), True)


def parse_program(text: str, library: Mapping[str, Sequence[Rule]]) -> Program:
    """Parse declaration lines (`Name = commands`) against a library that
    maps each rule-set name to a sequence of rules.  The program enters at
    `Main`, the only procedure checked for a break outside any loop, and a
    missing `skip` rule (the desugaring target of absent then/else
    branches) is provided.  Procedures are inlined, so the result is
    recursion-free by construction.
    """
    lib = {name: tuple(rules) for name, rules in library.items()}
    lib.setdefault("skip", (_skip_rule(),))

    decls: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S.*)$", line)
        if not m:
            raise ParseError(f"line {lineno}: expected 'Name = commands'")
        name, body = m.group(1), m.group(2)
        if name in _KEYWORDS:
            raise ParseError(f"line {lineno}: {name!r} is a keyword")
        if name in decls:
            raise ParseError(f"line {lineno}: duplicate declaration {name!r}")
        if name in lib:
            raise ParseError(f"line {lineno}: {name!r} shadows a library rule")
        decls[name] = _TOKEN.findall(body)
    if "Main" not in decls:
        raise ParseError("no declaration named 'Main'")

    builder = _Builder(decls, lib)
    for name in decls:
        builder.procedure(name)
    main = builder.built["Main"]
    _check_breaks(main, False)
    return Program(main, builder.built)


class Interp:
    """Evaluator that builds the program into closures at the start of each
    run, then calls the entry command's closure on the host.

    Each distinct command (by identity, so a procedure body inlined at
    several call sites is built once) becomes one function from the host to
    its status, and its `Effects` are derived from those of its parts; the
    mode, the rule-call budget and both hooks are read when it is built.  A
    loop saves the host when its body may fail after mutating, an if when
    its condition may mutate, a try when its condition may fail after
    mutating.  Both modes rewrite the one host graph in place and differ
    only at the sites that save (`_critical`); there semantic mode saves
    the host with `Graph.mark`, which copies or journals it.
    `loop_hook(loop, graph, stats)` fires after each completed
    (non-breaking, non-failing) iteration, `apply_hook(rule_name, graph)`
    after each applied rule.
    """

    def __init__(
        self,
        *,
        mode: str,
        max_rule_calls: Optional[int] = None,
        loop_hook: Optional[Callable[[Loop, Graph, ExecStats], None]] = None,
        apply_hook: Optional[Callable[[str, Graph], None]] = None,
    ):
        if mode not in ("semantic", "efficient"):
            raise InputError(f"unknown mode {mode!r}")
        if max_rule_calls is not None and max_rule_calls < 0:
            raise InputError(f"rule-call budget must be nonnegative, got {max_rule_calls}")
        self.mode = mode
        self.max_rule_calls = max_rule_calls
        self.loop_hook = loop_hook
        self.apply_hook = apply_hook
        self.stats = ExecStats()

    def run(self, program: Union[Program, Com], g0: Graph) -> ExecConfiguration:
        """Run to a terminal configuration, rewriting g0 in place; a Done
        carries g0 itself."""
        coms = program.main if isinstance(program, Program) else (program,)
        self._note(g0)
        status = self._build(Seq(coms), {})[0](g0)
        if status is _BREAK:
            raise RunError("break escaped the program")
        return Done(g0) if status is _OK else Fail()

    def _build(self, com: Com, built: dict[Com, tuple[Runner, Effects]]
               ) -> tuple[Runner, Effects]:
        """The closure that runs com on a host and returns its status, with
        com's effects; built once per command and kept in built."""
        got = built.get(com)
        if got is None:
            got = built[com] = self._compile(com, built)
        return got

    def _compile(self, com: Com, built: dict[Com, tuple[Runner, Effects]]
                 ) -> tuple[Runner, Effects]:
        if isinstance(com, RuleCall):
            # A failed call changes nothing; a rule with an empty left side
            # always applies.
            rules = com.rules.rules
            return self._rule_call(com), (
                all(r.left.nodes for r in rules),
                not all(r.is_static_noop for r in rules), False)
        if isinstance(com, Seq):
            runs: list[Runner] = []
            fail = mutate = fail_after = False
            for p in com.parts:
                run, (p_fail, p_mutate, p_fail_after) = self._build(p, built)
                runs.append(run)
                fail_after = fail_after or p_fail_after or (mutate and p_fail)
                fail, mutate = fail or p_fail, mutate or p_mutate
            parts = tuple(runs)

            def seq(G: Graph) -> str:
                for part in parts:
                    status = part(G)
                    if status is not _OK:
                        return status
                return _OK
            return seq, (fail, mutate, fail_after)
        if isinstance(com, Loop):
            run, (_, mutate, fail_after) = self._build(com.body, built)
            body = self._critical(com, run, fail_after)
            hook, stats = self.loop_hook, self.stats

            def loop(G: Graph) -> str:
                while body(G) is _OK:
                    if hook is not None:
                        hook(com, G, stats)
                return _OK
            return loop, (False, mutate, False)
        if isinstance(com, (If, Try)):
            is_try = isinstance(com, Try)
            run, (_, c_mutate, c_fail_after) = self._build(com.cond, built)
            cond = self._critical(com, run, c_fail_after if is_try else c_mutate)
            then, (t_fail, t_mutate, t_fail_after) = self._build(com.then, built)
            els, (e_fail, e_mutate, e_fail_after) = self._build(com.els, built)
            kept = is_try and c_mutate  # a try keeps a successful condition's run

            def branch(G: Graph) -> str:
                status = cond(G)
                if status is _OK:
                    return then(G)
                if status is _BREAK:
                    raise RunError("break escaped a condition")
                return els(G)
            return branch, (t_fail or e_fail, kept or t_mutate or e_mutate,
                            t_fail_after or e_fail_after or (kept and t_fail))
        if isinstance(com, Break):
            return (lambda G: _BREAK), (False, False, False)
        raise TypeError(f"cannot run {com!r}")

    def _critical(self, site: Com, run: Runner, snapshot: bool) -> Runner:
        """Wrap run, the condition of site (an If or Try) or its body (a
        Loop).  The host keeps the run's changes after a break, or after
        success at a Try or Loop; otherwise the run is discarded.  Unless
        snapshot is set, the effects prove that a discarded run left the
        host unchanged, and run is returned bare in both modes.  Otherwise
        semantic mode marks the host before the run, rolls back to the mark
        to discard it, and releases the mark.  In efficient mode a
        discarded run that mutated raises NullFailureViolation."""
        if not snapshot:
            return run
        keep = not isinstance(site, If)
        failed = ("failing loop body mutated the graph" if isinstance(site, Loop)
                  else "failing condition mutated the graph")
        stats = self.stats
        if self.mode == "semantic":
            def restoring(G: Graph) -> str:
                stats.snapshots += 1
                mark = G.mark()
                try:
                    status = run(G)
                    if status is _FAIL or (status is _OK and not keep):
                        G.rollback(mark)
                finally:
                    G.release(mark)
                return status
            return restoring

        def checked(G: Graph) -> str:
            before = stats.mutations
            status = run(G)
            if (status is _FAIL or (status is _OK and not keep)) \
                    and stats.mutations != before:
                raise NullFailureViolation(
                    failed if status is _FAIL
                    else "if-condition mutated the graph it discards")
            return status
        return checked

    def _rule_call(self, com: RuleCall) -> Runner:
        rules, stats, hook = com.rules, self.stats, self.apply_hook
        limit = self.max_rule_calls
        note, counts = self._note, stats.rule_applications

        def call(G: Graph) -> str:
            if limit is not None and stats.rule_calls >= limit:
                raise BudgetExceeded(f"rule-call budget {limit} exhausted")
            stats.rule_calls += 1
            # apply_ruleset is looked up in this module at call time, so a
            # wrapper patched in here sees every call.
            applied, rule, matches = apply_ruleset(G, rules)
            if matches > stats.match_multiplicity_max:
                stats.match_multiplicity_max = matches
            if not applied:
                return _FAIL
            counts[rule.name] += 1
            if not rule.is_static_noop:
                stats.mutations += 1
            if rule.may_grow:
                note(G)
            if hook is not None:
                hook(rule.name, G)
            return _OK
        return call

    def _note(self, g: Graph) -> None:
        st = self.stats
        st.peak_graph_space = max(st.peak_graph_space, graph_space(g))
        st.peak_nodes = max(st.peak_nodes, len(g.nodes))
