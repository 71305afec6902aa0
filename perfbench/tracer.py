"""Per-layer tracing of minigp from outside the package.

A `Tracer` replaces named functions and methods where their callers look
them up (a module global, or a class attribute) with wrappers that record
one span per call, and puts the originals back on exit.  Nothing inside
`minigp` changes.  Spans live in parallel compact arrays, because one run
of the larger workloads records about a million of them.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

# 3^c for c = 0..20; `level` maps a node count onto the c it falls in.
_POW3 = [3 ** c for c in range(21)]


def level(nodes: int) -> int:
    """The capacity level c with 3^c <= nodes < 3^(c+1).

    A configuration graph at level c holds b = 3^c block nodes plus a
    central node, the input chain and a c-node cache, so on inputs of
    fewer than 2·3^c - c - 1 symbols its node count falls in that range.
    """
    return bisect_right(_POW3, nodes) - 1


@dataclass(frozen=True)
class Target:
    """One traced name.

    label: span name, `<module>.<qualified name>`.
    owner, attr: where callers look the name up.
    graph_arg: index of the positional argument holding the host graph,
        whose node count is recorded, or None.
    extract: maps the call's result to the span's two counters x and y.
    """

    label: str
    owner: Any
    attr: str
    graph_arg: Optional[int] = None
    extract: Optional[Callable[[Any], tuple[int, int]]] = None


class Spans:
    """One entry per traced call, in call order.

    parent is the index of the enclosing span, -1 at top level; nodes is
    the host graph's node count at entry, -1 where the call has none;
    x and y are the target's counters.
    """

    ARRAYS = (("name", "b"), ("parent", "i"), ("start", "d"), ("end", "d"),
              ("nodes", "i"), ("x", "i"), ("y", "i"))

    def __init__(self, names: list[str]):
        self.names = names
        for attr, code in self.ARRAYS:
            setattr(self, attr, array(code))

    def __len__(self) -> int:
        return len(self.name)

    def add(self, name: int, parent: int, start: float, end: float,
            nodes: int = -1, x: int = 0, y: int = 0) -> int:
        """Append one finished span; used to build span trees by hand."""
        for (attr, _), value in zip(self.ARRAYS, (name, parent, start, end,
                                                  nodes, x, y)):
            getattr(self, attr).append(value)
        return len(self) - 1

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans.

        Calls nest strictly in one thread, so the children of a span cover
        disjoint parts of its interval.
        """
        start, end = self.start, self.end
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def write(self, path: Path) -> dict:
        """Write the arrays back to back and return a description of them."""
        with open(path, "wb") as f:
            for attr, _ in self.ARRAYS:
                getattr(self, attr).tofile(f)
        return {"file": path.name, "count": len(self), "names": self.names,
                "arrays": [[attr, code, array(code).itemsize]
                           for attr, code in self.ARRAYS]}


class Tracer:
    """Context manager that records spans for each target while active."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans = Spans([t.label for t in targets])
        self._saved: list[tuple[Any, str, Any]] = []
        self._stack = [-1]

    def __enter__(self) -> Tracer:
        try:
            for nid, t in enumerate(self.targets):
                original = vars(t.owner)[t.attr]
                self._saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(nid, original, t))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, nid: int, fn: Callable, t: Target) -> Callable:
        sp, stack, clock = self.spans, self._stack, time.perf_counter
        name_a, parent_a, start_a, end_a = sp.name, sp.parent, sp.start, sp.end
        nodes_a, x_a, y_a = sp.nodes, sp.x, sp.y
        gpos, extract = t.graph_arg, t.extract

        def traced(*args, **kwargs):
            i = len(name_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            nodes_a.append(-1 if gpos is None else len(args[gpos].nodes))
            start_a.append(0.0)
            end_a.append(0.0)
            x_a.append(0)
            y_a.append(0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_a[i] = t0
                end_a[i] = t1
            if extract is not None:
                x_a[i], y_a[i] = extract(out)
            return out

        traced.__wrapped__ = fn
        return traced


@dataclass
class Layer:
    """Totals over all spans of one name.

    level_calls and level_total split calls and time by the capacity level
    of the host graph; by_parent splits time by the enclosing span's name.
    """

    calls: int = 0
    total: float = 0.0
    own: float = 0.0
    x: int = 0
    y: int = 0
    level_calls: dict[int, int] = field(default_factory=dict)
    level_total: dict[int, float] = field(default_factory=dict)
    by_parent: dict[str, float] = field(default_factory=dict)


def summarize(spans: Spans) -> dict[str, Layer]:
    """Aggregate spans by name."""
    layers = {name: Layer() for name in spans.names}
    by_id = [layers[name] for name in spans.names]
    own = spans.self_times()
    name, parent, start, end = spans.name, spans.parent, spans.start, spans.end
    for i, nid in enumerate(name):
        lay = by_id[nid]
        dur = end[i] - start[i]
        lay.calls += 1
        lay.total += dur
        lay.own += own[i]
        lay.x += spans.x[i]
        lay.y += spans.y[i]
        n = spans.nodes[i]
        if n > 0:
            c = level(n)
            lay.level_calls[c] = lay.level_calls.get(c, 0) + 1
            lay.level_total[c] = lay.level_total.get(c, 0.0) + dur
        p = parent[i]
        key = spans.names[name[p]] if p >= 0 else ""
        lay.by_parent[key] = lay.by_parent.get(key, 0.0) + dur
    return layers
