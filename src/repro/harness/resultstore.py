"""Persistent content-addressed result store (harness ``--result-store``).

``JobRunner`` memoizes simulation results in memory keyed by
``(trace spec key, effective machine config)`` — simulation is
deterministic, so an already-run job is a cache hit.  This module lifts
that memo to disk: the same identity, hashed into a stable content
address, maps to a JSON entry holding the full serialized
:class:`~repro.sim.SimulationStats`.  A repeated sweep (same specs, same
configs) is then a 100% store hit in any later process, and a sweep that
was killed halfway resumes from whatever already committed:
``JobRunner.run`` commits each job as it finishes.

The key is *content-addressed* the same way the trace cache's
``spec_key`` is: it hashes the trace's content key plus the
compare-eligible machine-config fields
(:func:`repro.harness.runner.config_identity_doc`), so provenance-only
fields such as ``mode_label`` can never split the cache, and any change
that affects simulation output must show up in a keyed field (guarded by
``STORE_VERSION`` for changes to the stats schema itself).

Entries are written through :func:`repro.obs.atomicio.atomic_output_file`
— temp file, fsync, atomic rename, directory fsync — so concurrent
writers are safe and a crash can never leave a truncated entry; a
corrupt entry (pre-fsync legacy, disk fault) is treated as a miss and
overwritten on the next commit.

Layout::

    store/
      ab/abcdef0123....json     one entry per (trace, config) identity
      ...

Each entry is self-describing (format, version, key, spec key, config
document, creation time, stats) — the store needs no global index, so
there is nothing to corrupt or lock.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..core.accounting import CycleCounters
from ..obs.atomicio import atomic_write_json
from ..sim import SimulationStats
from .runner import config_identity_doc

STORE_FORMAT = "repro-result-store"
#: Bump whenever serialized ``SimulationStats`` change meaning without
#: any keyed field changing; old entries then stop matching and are
#: re-simulated.  Version 2 dropped six bulk-kernel telemetry fields
#: from the serialized stats; version 3 dropped the two speculative-batch
#: journal counters; version 4 dropped the failed-instruction-replay
#: counter, which no run ever set; version 5 dropped the region-private
#: store counter with the shortcut it counted; version 6 dropped the
#: super-record counter with the super-records it counted.
STORE_VERSION = 6


def stats_to_doc(stats: SimulationStats) -> Dict[str, Any]:
    """Serialize a ``SimulationStats`` to JSON-able plain data.

    Every field round-trips exactly — including ``compare=False``
    telemetry (compiled-path counters, dependence pairs) — so a store
    hit is indistinguishable from a re-simulation, byte-for-byte, in
    every exported artifact and traced counter record.
    """
    doc: Dict[str, Any] = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if f.name == "per_cpu":
            value = [dict(c.cycles) for c in value]
        elif f.name == "dependence_pairs":
            value = [list(pair) for pair in value]
        doc[f.name] = value
    return doc


def stats_from_doc(doc: Dict[str, Any]) -> SimulationStats:
    """Rebuild a ``SimulationStats`` from :func:`stats_to_doc` output."""
    kwargs = dict(doc)
    kwargs["per_cpu"] = [
        CycleCounters(cycles=dict(c)) for c in doc.get("per_cpu", [])
    ]
    kwargs["dependence_pairs"] = [
        tuple(pair) for pair in doc.get("dependence_pairs", [])
    ]
    return SimulationStats(**kwargs)


def result_key(spec_key: str, config) -> str:
    """Content address of one (trace, machine config) simulation."""
    blob = json.dumps(
        {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "spec": spec_key,
            "config": config_identity_doc(config),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:40]


class ResultStore:
    """Disk-backed simulation-result cache; see the module docstring.

    The files are shared freely between processes: each entry is one
    atomic write, and a reader sees either nothing or a whole entry.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get_stats(self, spec_key: str, config) -> Optional[SimulationStats]:
        """Store lookup by (trace spec key, effective machine config)."""
        key = result_key(spec_key, config)
        try:
            with open(self._path(key), encoding="utf-8") as fh:
                entry = json.load(fh)
            if (
                entry.get("format") != STORE_FORMAT
                or entry.get("version") != STORE_VERSION
                or entry.get("key") != key
            ):
                raise ValueError("foreign or stale store entry")
            return stats_from_doc(entry["stats"])
        except (FileNotFoundError, ValueError, KeyError, TypeError):
            # Absent, corrupt or incompatible entry (JSONDecodeError is
            # a ValueError): a miss, rewritten on commit.
            return None

    def put_stats(self, spec_key: str, config,
                  stats: SimulationStats) -> Path:
        """Commit one simulation result under its content address."""
        key = result_key(spec_key, config)
        path = self._path(key)
        atomic_write_json(path, {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "key": key,
            "spec_key": spec_key,
            "config": config_identity_doc(config),
            "created_unix": round(time.time(), 3),
            "stats": stats_to_doc(stats),
        })
        return path
