"""Lockstep verification and run metrics.

`lockstep_verify` replays a machine against its compiled simulator one
simulated transition at a time, comparing the host graph after every
completed step with the layout of the machine's next configuration; it
decodes the graph only where a level starts, where a comparison fails, and
at the end.  `run_sim` runs the simulator to completion and collects
size and time counters.  Both run a machine's program once on one host
graph through `_simulator`, which compiles the machine on its first run and
keeps the program on it for every later run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import compress
from operator import ne
from typing import Callable, Optional, Sequence

from .compiler import gen_sim, initial_graph
from .encoding import (EncodingParams, MalformedConfigGraph, dec, layout,
                       walk_sections)
from .errors import InputError, RunError
from .graphs import Graph
from .lang import (Done, ExecStats, Interp, Loop, NullFailureViolation,
                   Program)
from .turing import (TMConfiguration, TuringMachine, initial_configuration,
                     tm_run, tm_step)

Trace = Callable[[int, TMConfiguration], None]


@dataclass
class Metrics:
    """Counters from one full simulation run.

    uniform_space charges one unit per node and per edge at the peak;
    log_space charges each of the peak_nodes nodes ceil(log2(peak_nodes))
    bits.  per_step_rule_calls has one entry per completed simulated step,
    replayed steps included, so its length can exceed tm_steps.
    """

    rule_calls: int
    tm_steps: int
    restarts: int
    peak_graph_space: int
    tape_squares_used: int
    final_c: int
    final_b: int
    uniform_space: int
    log_space: int
    peak_nodes: int
    per_step_rule_calls: list[int] = field(default_factory=list)


_METRIC_KEYS = tuple(f.name for f in fields(Metrics)
                     if f.name != "per_step_rule_calls")


def metrics_lines(mx: Metrics) -> list[str]:
    """The scalar counters as key=value lines."""
    return [f"{key}={getattr(mx, key)}" for key in _METRIC_KEYS]


def metrics_table(rows: Sequence[tuple[str, Metrics]]) -> str:
    """Labelled runs as a comma-separated table, one line per run."""
    out = ["input," + ",".join(_METRIC_KEYS)]
    for label, mx in rows:
        out.append(label + "," + ",".join(str(getattr(mx, key))
                                          for key in _METRIC_KEYS))
    return "\n".join(out) + "\n"


@dataclass
class VerifyReport:
    """Outcome of one lockstep run.

    first_divergence is None iff the simulation matched the reference
    machine at every checked step; the assertion flags track that failing
    subruns never mutated the graph and that no rule-set call ever saw
    more than one match.
    """

    steps_checked: int = 0
    first_divergence: Optional[tuple[int, TMConfiguration, TMConfiguration]] = None
    null_failure_ok: bool = True
    unique_match_ok: bool = True
    restarts: int = 0
    errors: list[str] = field(default_factory=list)
    final_config: Optional[TMConfiguration] = None

    @property
    def ok(self) -> bool:
        return (self.first_divergence is None and self.null_failure_ok
                and self.unique_match_ok and not self.errors)


class SimulationError(RunError):
    """A full simulator run failed, or its outcome contradicts the machine."""


class _Abort(Exception):
    """Stops the interpreter once the report is settled."""


def _simulator(m: TuringMachine, input: str, mode: str,
               max_rule_calls: Optional[int],
               on_step: Callable[[Graph, ExecStats], None],
               on_restart: Callable[[Graph], None]
               ) -> tuple[Interp, Program, Graph]:
    """Return an interpreter, m's simulator program and the initial host
    graph for input.  The first run of m compiles it and stores the program,
    with its rule sets' memos, on m; later runs of the same object reuse it.
    The interpreter calls on_step after each simulated step, and counts a
    restart then calls on_restart after each pass of the outer loop."""
    sim = vars(m).get("_sim")
    if sim is None:
        sim = gen_sim(m)
        object.__setattr__(m, "_sim", sim)

    def hook(loop: Loop, g: Graph, stats: ExecStats) -> None:
        if loop is sim.simulate_loop:
            on_step(g, stats)
        elif loop is sim.outer_loop:
            stats.restarts += 1
            on_restart(g)

    interp = Interp(mode=mode, max_rule_calls=max_rule_calls, loop_hook=hook)
    return interp, sim.program, initial_graph(input, m.start)


class _LayoutCheck:
    """Compares each new host graph with the layout of the machine's next
    configuration.  At the last check the host, whose edges `edges`
    copies, equalled `prev`, the level-k layout edges, under the node map
    `order`: the host's node ids in layout order, from the walk of a graph
    `dec` accepted.

    Nothing relabels an edge, so an edge keeps its triple under its id,
    and the edges a step changed are among the ids gone since the last
    check and the ids new since then.  A rule application deletes every
    edge it matched and adds back the ones it keeps, so a triple can be
    both gone and new.  The host equals the new layout when its roots,
    node labels and counts match it and the triples that are only gone or
    only new are where the layout changed; with equal edge counts, no new
    triple can repeat.  The layouts of one level list the same edges in
    the same order, so where two of them differ position by position is
    where they differ as sets.
    """

    def __init__(self, g: Graph, s: TMConfiguration, k: int):
        self.order = walk_sections(g)[0]
        self.roots = {self.order[0]}
        self.k = k
        self.prev = layout(s, k)[1]
        self.edges = dict(g.edges)

    def follow(self, g: Graph, m: TuringMachine, s: TMConfiguration
               ) -> Optional[TMConfiguration]:
        """The step after s if g `matches` it; None if g does not, or if
        the machine halts or faults at s."""
        try:
            nxt = tm_step(m, s)
        except RunError:
            return None
        return nxt if nxt is not None and self.matches(g, nxt) else None

    def matches(self, g: Graph, s: TMConfiguration) -> bool:
        """Whether g is the level-k layout of s under the node map; if so,
        g becomes the reference for the next comparison."""
        try:
            labels, edges = layout(s, self.k)
        except InputError:
            return False
        nodes, now, then, h = g.nodes, g.edges, self.edges, self.order
        if (g.roots != self.roots or len(nodes) != len(labels)
                or len(now) != len(edges) or list(map(nodes.get, h)) != labels):
            return False
        changed = list(map(ne, edges, self.prev))
        added = set(map(now.__getitem__, now.keys() - then.keys()))
        dropped = set(map(then.__getitem__, then.keys() - now.keys()))
        if (added - dropped
                != {(h[a], h[b], lab) for a, b, lab in compress(edges, changed)}
                or dropped - added
                != {(h[a], h[b], lab) for a, b, lab in compress(self.prev, changed)}):
            return False
        self.edges = dict(now)
        self.prev = edges
        return True


def lockstep_verify(m: TuringMachine, input: str, max_steps: int = 10_000, *,
                    mode: str = "efficient",
                    max_rule_calls: Optional[int] = None,
                    trace: Optional[Trace] = None) -> VerifyReport:
    """Run the compiled simulator and the machine side by side.

    After every completed step of the simulation loop the host graph is
    compared with the layout of the stepped reference configuration.  The
    first step, a failed comparison and the final graph are decoded with
    `dec` instead, whose verdict and configuration the report then carries;
    a completed restart must decode to the initial configuration one
    capacity level up, after which the reference replays from the start.
    Checking stops cleanly once max_steps steps have been compared, so a
    zero budget compares none.  Efficient mode is the default because only
    it can detect a failing subrun that mutated the graph.
    """
    if max_steps < 0:
        raise InputError(f"step budget must be nonnegative, got {max_steps}")
    report = VerifyReport()
    oracle = initial_configuration(m, input)
    level = 0
    check: Optional[_LayoutCheck] = None

    def decode(g: Graph, where: str) -> tuple[TMConfiguration, int]:
        try:
            return dec(g)
        except MalformedConfigGraph as e:
            report.errors.append(f"{where}: undecodable graph: {e}")
            raise _Abort() from None

    def step_checked(g: Graph, stats: ExecStats) -> None:
        nonlocal oracle, check
        if not max_steps:
            raise _Abort()
        got = nxt = check.follow(g, m, oracle) if check else None
        got_k = level
        if nxt is None:
            got, got_k = decode(g, f"step {report.steps_checked + 1}")
            nxt = tm_step(m, oracle)
            if nxt is None:
                report.first_divergence = (report.steps_checked + 1, got, oracle)
                report.errors.append("simulation stepped past the machine's halt")
                raise _Abort()
        oracle = nxt
        report.steps_checked += 1
        if trace is not None:
            trace(report.steps_checked, got)
        if got is not oracle:
            if got != oracle or got_k != level:
                report.first_divergence = (report.steps_checked, got, oracle)
                raise _Abort()
            check = _LayoutCheck(g, got, level)
        if report.steps_checked >= max_steps:
            raise _Abort()

    def restarted(g: Graph) -> None:
        nonlocal oracle, level, check
        level += 1
        got, got_k = decode(g, f"restart to level {level}")
        fresh = initial_configuration(m, input)
        if got != fresh or got_k != level:
            report.first_divergence = (report.steps_checked, got, fresh)
            report.errors.append("restart did not reproduce the initial "
                                 "configuration at the next level")
            raise _Abort()
        oracle = fresh
        check = _LayoutCheck(g, fresh, level)

    interp, program, g = _simulator(m, input, mode, max_rule_calls,
                                    step_checked, restarted)
    try:
        if isinstance(interp.run(program, g), Done):
            got, got_k = decode(g, "final graph")
            report.final_config = got
            if got != oracle or got_k != level:
                report.first_divergence = (report.steps_checked, got, oracle)
            else:
                nxt = tm_step(m, oracle)
                if nxt is not None:
                    report.first_divergence = (report.steps_checked + 1, got, nxt)
                    report.errors.append("simulation halted before the machine")
        else:
            report.errors.append("simulator program run failed")
    except _Abort:
        pass
    except NullFailureViolation as e:
        report.null_failure_ok = False
        report.errors.append(f"null failure: {e}")
        # A machine fault in the next step also ends the simulator's loop
        # body in failure; name the fault, as semantic mode does.
        try:
            tm_step(m, oracle)
        except RunError as fault:
            report.errors.append(f"{type(fault).__name__}: {fault}")
    except RunError as e:
        report.errors.append(f"{type(e).__name__}: {e}")
    report.restarts = interp.stats.restarts
    report.unique_match_ok = interp.stats.match_multiplicity_max <= 1
    return report


def run_sim(m: TuringMachine, input: str, max_steps: int = 10_000, *,
            mode: str = "efficient", max_rule_calls: Optional[int] = None,
            trace: Optional[Trace] = None
            ) -> tuple[Metrics, TMConfiguration, Graph]:
    """Run the simulator to completion; also returns the decoded final
    configuration and the final host graph.

    The reference machine runs alongside to supply tm_steps and
    tape_squares_used.  Defaults to efficient mode; the test suite
    separately checks that both modes produce the same final graph and
    rule-call count.
    """
    final, tm_steps, squares = tm_run(m, input, max_steps)
    per_step: list[int] = []
    last_mark = [0]

    def count_step(g: Graph, stats: ExecStats) -> None:
        per_step.append(stats.rule_calls - last_mark[0])
        last_mark[0] = stats.rule_calls
        if trace is not None:
            trace(len(per_step), dec(g)[0])

    interp, program, g = _simulator(m, input, mode, max_rule_calls,
                                    count_step, lambda g: None)
    if not isinstance(interp.run(program, g), Done):
        raise SimulationError("simulator run failed")
    got, k = dec(g)
    if got != final:
        raise SimulationError("simulated final configuration diverged")
    st = interp.stats
    if st.restarts != k:
        raise SimulationError("levels climbed and restarts disagree")
    level = EncodingParams(k)
    bits = math.ceil(math.log2(st.peak_nodes)) if st.peak_nodes > 1 else 0
    metrics = Metrics(
        rule_calls=st.rule_calls,
        tm_steps=tm_steps,
        restarts=st.restarts,
        peak_graph_space=st.peak_graph_space,
        tape_squares_used=squares,
        final_c=level.c,
        final_b=level.b,
        uniform_space=st.peak_graph_space,
        log_space=st.peak_nodes * bits,
        peak_nodes=st.peak_nodes,
        per_step_rule_calls=per_step,
    )
    return metrics, got, g

