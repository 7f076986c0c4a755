"""Structured JSONL span/event tracing for harness runs.

``SpanTracer`` writes one JSON object per line to a run log
(``--trace-out run.jsonl``), in four record types:

* ``manifest`` — the run manifest (always the first record);
* ``span`` — a named wall-clock interval (trace generation, trace
  compilation, one simulation job, a machine segment, an experiment),
  with ``t0``/``t1``/``dur`` in seconds relative to tracer start and the
  enclosing span's name as ``parent``;
* ``counter`` — a bag of named numeric values at a point in time (the
  per-job ``SimulationStats`` counters: cycle breakdown, protocol and
  cache counters, compiled-path telemetry);
* ``event`` — a point-in-time fact with free-form attributes (e.g. the
  hottest profiled dependence pairs of a job).

All timestamps come from ``time.perf_counter`` — monotonic by
construction, so an NTP step mid-run can never produce a negative span.
Records carry a strictly increasing ``seq`` so truncation and reordering
are detectable; :func:`repro.obs.lint` checks the whole file.  Writes are
buffered and flushed on :meth:`SpanTracer.close`, so read the log after
the run; ``--progress`` is the live view.

Tracing is strictly opt-in.  Every producer call site is guarded by
``tracer is not None``, so a run without ``--trace-out`` executes the
exact pre-observability code path (zero records, zero overhead).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

class SpanTracer:
    """Writes spans/counters/events as JSONL; see the module docstring."""

    def __init__(self, path, manifest: Optional[Dict[str, Any]] = None):
        self.path = os.fspath(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._clock = time.perf_counter
        self._t0 = self._clock()
        self._seq = 0
        self._stack: List[str] = []
        self._closed = False
        if manifest is not None:
            self._write({"type": "manifest", "manifest": manifest})

    # -- plumbing ------------------------------------------------------

    def now(self) -> float:
        """Seconds since tracer start (monotonic)."""
        return round(self._clock() - self._t0, 6)

    def _write(self, record: Dict[str, Any]) -> None:
        if self._closed:
            return
        record["seq"] = self._seq
        self._seq += 1
        self._fh.write(json.dumps(record, sort_keys=True, default=str))
        self._fh.write("\n")

    # -- producers -----------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Record the enclosed block as a span named ``name``."""
        self._stack.append(name)
        t0 = self.now()
        try:
            yield
        finally:
            self._stack.pop()
            self.end_span(name, t0, **attrs)

    def end_span(self, name: str, t0: float, **attrs: Any) -> None:
        """Record a span named ``name`` from ``t0`` (tracer time) to now,
        under the innermost open span.  For work timed where the tracer
        is not, such as a pool worker's job, pass ``now()`` minus its
        duration."""
        t1 = self.now()
        self._write({
            "type": "span",
            "name": name,
            "t0": t0,
            "t1": t1,
            "dur": round(t1 - t0, 6),
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        })

    def counter(self, name: str, values: Dict[str, float],
                **attrs: Any) -> None:
        """Record a bag of named numeric values."""
        self._write({
            "type": "counter",
            "name": name,
            "t": self.now(),
            "values": values,
            "attrs": attrs,
        })

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event with free-form attributes."""
        self._write({
            "type": "event",
            "name": name,
            "t": self.now(),
            "attrs": attrs,
        })

    # -- lifecycle -----------------------------------------------------

    def flush(self) -> None:
        if not self._closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._closed:
            self._fh.flush()
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "SpanTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
