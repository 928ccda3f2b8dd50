"""In-memory spans recorded from the benchmark's side of each layer boundary.

A traced run patches a layer's public entry points with thin wrappers
(:meth:`Tracer.wrap`) that record one span per call: ``(id, name, start,
end, parent, rid)``.  Times are ``time.monotonic()`` (CLOCK_MONOTONIC on
Linux), so spans recorded in a server process and the window measured by
the load generator share one clock.  Nothing is written until the run
ends.

:func:`layer_table` turns spans into self times: a span's self time is
its duration minus the union of the intervals its children cover, and
the window's own self time (the part no top-level span covers) is the
``other`` row.  Summed over every row, self times equal the window
exactly when spans nest properly on one thread; the surplus is time that
spans on different threads overlapped, and :func:`coverage_error` is
that surplus as a share of the window.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

clock = time.monotonic

#: Largest allowed |sum of self times - window| / window.
COVERAGE_TOLERANCE = 0.05
#: Row for window time outside every operation span (the timed loop itself).
LOOP_ROW = "perfbench.loop"

Span = Tuple[int, str, float, float, Optional[int], object]


class Tracer:
    """Collects spans in memory; patches and unpatches entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (name, start, end, rid): waits that are not busy time (queueing).
        self.waits: List[Tuple[str, float, float, object]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> Tuple[int, Optional[int], float]:
        """Open a span on this thread; returns the token :meth:`end` takes."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, clock()

    def end(self, token, name: str, rid: object = None) -> None:
        """Close the span ``token`` opened."""
        t1 = clock()
        sid, parent, t0 = token
        self._stack().pop()
        self.spans.append((sid, name, t0, t1, parent, rid))

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call;
        ``on_result`` sees every return value (for counters)."""
        fn = getattr(owner, attr)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                end(token, name)
            if on_result is not None:
                on_result(result)
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)  # it was inherited
            else:
                setattr(owner, attr, original)


_ABSENT = object()


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_table(
    spans: Iterable[Span], window: Tuple[float, float], other: str
) -> Dict[str, float]:
    """Self seconds per span name inside ``window``; ``other`` gets the rest.

    Spans are clipped to the window; a span's self time is its clipped
    duration minus the union of its clipped children.
    """
    w0, w1 = window
    clipped: Dict[int, Tuple[str, float, float, Optional[int]]] = {}
    for sid, name, t0, t1, parent, _rid in spans:
        lo, hi = max(t0, w0), min(t1, w1)
        if hi > lo:
            clipped[sid] = (name, lo, hi, parent)
    children: Dict[Optional[int], List[Tuple[float, float]]] = defaultdict(list)
    for sid, (name, lo, hi, parent) in clipped.items():
        # a parent outside the window (or never closed) makes this top-level
        children[parent if parent in clipped else None].append((lo, hi))
    table: Dict[str, float] = defaultdict(float)
    for sid, (name, lo, hi, _parent) in clipped.items():
        table[name] += (hi - lo) - _union_length(children.get(sid, ()))
    table[other] += (w1 - w0) - _union_length(children.get(None, ()))
    return dict(table)


def coverage_error(table: Dict[str, float], window: Tuple[float, float]) -> float:
    """|sum of self times - window| as a share of the window."""
    wall = window[1] - window[0]
    return abs(sum(table.values()) - wall) / wall


def format_table(
    title: str, table: Dict[str, float], window: Tuple[float, float], n_bills: int
) -> str:
    """The human-readable per-layer table a traced run prints."""
    wall = window[1] - window[0]
    lines = [
        f"{title}: traced window {wall:.3f} s, {n_bills} bills",
        f"  {'layer':<44} {'self s':>9} {'share':>7} {'us/bill':>10}",
    ]
    for name, secs in sorted(table.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {name:<44} {secs:9.4f} {secs / wall:7.1%} "
            f"{1e6 * secs / max(n_bills, 1):10.2f}"
        )
    lines.append(
        f"  sum of self times / window = {sum(table.values()) / wall:.4f} "
        f"(tolerance +-{COVERAGE_TOLERANCE:.0%})"
    )
    return "\n".join(lines)
