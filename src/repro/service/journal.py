"""Crash-safe append-only journal of sweep/job state transitions.

The sweep service records every state change — sweep accepted, sweep
running, job dispatched, job retried after a worker crash, job
quarantined, sweep done/failed — as one fsynced JSONL append *before*
acting on it.  After a crash (``kill -9`` of the daemon included), the
journal is replayed on startup: sweeps that were accepted or running
with no terminal record are marked ``interrupted``, and re-submitting
them resumes from whatever the result store already committed — the
journal plus the store together make "retried, not rerun-from-scratch"
an invariant rather than a best effort.

Record shape (linted by :func:`repro.obs.lint`)::

    {"type": "service", "event": "start",    "seq": 0, "t": ...}
    {"type": "sweep",   "event": "accepted", "sweep": id, ...}
    {"type": "job",     "event": "retry",    "sweep": id,
     "job": label, "attempt": 2, ...}

``seq`` increases strictly from 0 across the journal's lifetime; each
append is flushed and fsynced, so a well-formed prefix survives any
crash (a torn final line is possible only on media failure and is
skipped by :func:`read_journal`).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Union


class Journal:
    """Append-only, fsync-per-record JSONL journal."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existing = read_journal(self.path) if self.path.exists() else []
        self._seq = existing[-1]["seq"] + 1 if existing else 0
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, type: str, event: str, **attrs: Any) -> Dict[str, Any]:
        record = {"type": type, "event": event, "seq": self._seq,
                  "t": round(time.time(), 3)}
        record.update(attrs)
        self._seq += 1
        self._fh.write(json.dumps(record, sort_keys=True, default=str))
        self._fh.write("\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return record

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_journal(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """All well-formed records of a journal, in order.

    A torn final line (crash mid-append on a non-atomic medium) is
    skipped; anything torn *before* the last line indicates real
    corruption and raises.
    """
    records: List[Dict[str, Any]] = []
    bad_at = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if bad_at is not None:
                raise ValueError(
                    f"{path}: corrupt journal record at line {bad_at} "
                    "followed by more records"
                )
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                bad_at = line_no
                continue
            records.append(record)
    return records


def replay_sweeps(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Final state of every sweep the journal knows about.

    Returns ``{sweep_id: {"state", "spec", "jobs": {label: last event},
    "retries", "quarantined"}}``.  Sweeps whose last sweep-level event
    is non-terminal (``accepted``/``running``) were in flight when the
    journal stopped — the service marks them ``interrupted`` on
    recovery.
    """
    sweeps: Dict[str, Dict[str, Any]] = {}
    for record in records:
        rtype = record.get("type")
        if rtype not in ("sweep", "job"):
            continue
        sweep_id = record.get("sweep")
        if not sweep_id:
            continue
        state = sweeps.setdefault(sweep_id, {
            "state": None, "spec": None, "jobs": {},
            "retries": 0, "quarantined": 0,
        })
        event = record.get("event")
        if rtype == "sweep":
            state["state"] = event
            if record.get("spec") is not None:
                state["spec"] = record["spec"]
        else:
            label = record.get("job", "?")
            state["jobs"][label] = event
            if event == "retry":
                state["retries"] += 1
            elif event == "quarantine":
                state["quarantined"] += 1
    for state in sweeps.values():
        if state["state"] in ("accepted", "running"):
            state["state"] = "interrupted"
    return sweeps
