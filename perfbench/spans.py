"""Span tracing from outside the program.

:class:`Tracer` replaces public functions and methods of the program
with thin wrappers that record a span per call: its name, start, end,
parent span and job id.  Spans stay in memory (the first
``MAX_SPANS`` of them) and are written out at the end as Chrome
``trace_event`` JSON.  Every call is also folded into per-name
aggregates — calls, inclusive time, self time (duration minus the part
covered by child spans) and elements — whether or not its span is
kept, so the per-layer table covers the whole run.

Wrapping is undone by :meth:`Tracer.restore`; while ``enabled`` is
false a wrapper only forwards the call.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.exporters import write_chrome_trace
from repro.obs.tracing import MASTER_TID

perf_counter = time.perf_counter

#: Spans kept in memory; later ones still count in the aggregates.
MAX_SPANS = 200_000


@dataclass
class SpanStats:
    """Aggregates for one span name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    elements: int = 0


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "parent_id", "job")

    def __init__(self, name, start, span_id, parent_id, job):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent_id = parent_id
        self.job = job


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.enabled = False
        self.phase = "pass"
        #: job id stamped on new spans (set by the job-level wrappers)
        self.job: Optional[int] = None
        #: ``id(job object)`` -> job id, filled as jobs are prepared
        self.job_ids: Dict[int, int] = {}
        self.origin = perf_counter()
        self.stats: Dict[Tuple[str, str], SpanStats] = {}
        self.counters: Dict[str, float] = {}
        #: recorded spans: (name, start, end, span id, parent id, job, phase)
        self.spans: List[Tuple[str, float, float, int, int, Optional[int], str]] = []
        self.dropped = 0
        self._stack: List[_Frame] = []
        self._next_id = 1
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter (only while enabled)."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _enter(self, name: str) -> _Frame:
        stack = self._stack
        parent_id = stack[-1].span_id if stack else 0
        frame = _Frame(name, perf_counter(), self._next_id, parent_id, self.job)
        self._next_id += 1
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, elements: int = 0) -> None:
        end = perf_counter()
        stack = self._stack
        # wrappers exit in try/finally on one thread, so ``frame`` is
        # always the top of the stack
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        key = (self.phase, frame.name)
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = SpanStats()
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - frame.child
        stats.elements += elements
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (
                    frame.name,
                    frame.start - self.origin,
                    end - self.origin,
                    frame.span_id,
                    frame.parent_id,
                    frame.job,
                    self.phase,
                )
            )
        else:
            self.dropped += 1

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        elements: Optional[Callable[[tuple, Any], int]] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
        sets_job: bool = False,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``owner`` is a module (the function is looked up there by its
        callers) or a class (methods; class- and static methods keep
        their descriptor).  ``elements(args, result)`` returns the elements a call touched;
        ``after(args, result)`` runs after each traced call, for
        counters read off the program's public fields.  ``sets_job``
        marks methods of a job object: spans opened inside the call
        carry the id :attr:`job_ids` holds for ``args[0]``.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        descriptor = None
        function = raw
        if isinstance(raw, (classmethod, staticmethod)):
            descriptor = type(raw)
            function = raw.__func__
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            previous_job = tracer.job
            if sets_job:
                tracer.job = tracer.job_ids.get(id(args[0]), previous_job)
            frame = tracer._enter(name)
            n = 0
            try:
                result = function(*args, **kwargs)
                if elements is not None:
                    n = elements(args, result)
            finally:
                tracer._exit(frame, n)
                tracer.job = previous_job
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, descriptor(wrapper) if descriptor else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reading -------------------------------------------------------

    def totals(self, phase: Optional[str] = None) -> Dict[str, SpanStats]:
        """Aggregates per span name, over one phase or all of them."""
        out: Dict[str, SpanStats] = {}
        for (span_phase, name), stats in self.stats.items():
            if phase is not None and span_phase != phase:
                continue
            agg = out.setdefault(name, SpanStats())
            agg.calls += stats.calls
            agg.total_s += stats.total_s
            agg.self_s += stats.self_s
            agg.elements += stats.elements
        return out

    def layer_table(self, walls: Dict[str, float]) -> str:
        """Per-layer and per-span self time, one block per phase.

        ``walls`` maps each phase to its traced wall seconds, the base
        of the share column.
        """
        lines = []
        for phase, wall in walls.items():
            totals = self.totals(phase)
            layers: Dict[str, List[float]] = {}
            for name, stats in totals.items():
                row = layers.setdefault(name.split(".")[0], [0, 0.0])
                row[0] += stats.calls
                row[1] += stats.self_s
            covered = sum(row[1] for row in layers.values())
            lines.append(f"phase {phase}: traced wall {wall:.4f} s, "
                         f"spans' self time {covered:.4f} s")
            lines.append(f"  {'layer':<14}{'calls':>12}{'self_s':>12}{'share':>9}")
            for layer, (calls, self_s) in sorted(
                layers.items(), key=lambda item: -item[1][1]
            ):
                share = self_s / wall if wall > 0 else 0.0
                lines.append(f"  {layer:<14}{calls:>12}{self_s:>12.4f}{share:>9.1%}")
            lines.append(f"  {'span':<44}{'calls':>12}{'self_s':>12}{'total_s':>12}")
            for name, stats in sorted(totals.items(), key=lambda item: -item[1].self_s):
                lines.append(
                    f"  {name:<44}{stats.calls:>12}{stats.self_s:>12.4f}"
                    f"{stats.total_s:>12.4f}"
                )
        lines.append(f"spans kept {len(self.spans)}, dropped {self.dropped}")
        return "\n".join(lines) + "\n"

    def write_chrome(self, path: str) -> None:
        """Write the kept spans as Chrome ``trace_event`` JSON, one
        process per phase."""
        runs: Dict[str, List[Dict[str, Any]]] = {}
        for name, start, end, span_id, parent_id, job, phase in self.spans:
            runs.setdefault(phase, []).append({
                "name": name,
                "cat": name.split(".")[0],
                "tid": MASTER_TID,
                "start": start,
                "end": end,
                "id": span_id,
                "parent": parent_id,
                "args": {"job": job},
            })
        write_chrome_trace(path, [{"name": phase, "spans": spans}
                                  for phase, spans in runs.items()])
