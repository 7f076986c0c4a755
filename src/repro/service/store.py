"""Persistent content-addressed result store.

``JobRunner`` has always memoized simulation results in memory keyed by
``(trace spec key, effective machine config)`` — simulation is
deterministic, so an already-run job is a cache hit.  This module lifts
that memo to disk: the same identity, hashed into a stable content
address, maps to a JSON entry holding the full serialized
:class:`~repro.sim.SimulationStats`.  A re-submitted sweep (same specs,
same configs) is then a 100% store hit in any later process, and a sweep
that crashed halfway resumes from whatever already committed.

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
there is nothing to corrupt or lock; ``scan()`` walks the tree when a
manifest of the store's contents is wanted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..core.accounting import CycleCounters
from ..harness.runner import config_identity_doc
from ..obs.atomicio import atomic_write_json
from ..sim import SimulationStats

STORE_FORMAT = "repro-result-store"
#: Bump whenever serialized ``SimulationStats`` change meaning without
#: any keyed field changing; old entries then stop matching and are
#: re-simulated.  Version 2 dropped six bulk-kernel telemetry fields
#: from the serialized stats; version 3 dropped the two speculative-batch
#: journal counters.
STORE_VERSION = 3


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

    ``hits``/``misses``/``puts`` count this instance's traffic (the
    service snapshots them per sweep); the files themselves are shared
    freely between processes.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- raw key interface ---------------------------------------------

    def get(self, key: str) -> Optional[SimulationStats]:
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            if (
                entry.get("format") != STORE_FORMAT
                or entry.get("version") != STORE_VERSION
                or entry.get("key") != key
            ):
                raise ValueError("foreign or stale store entry")
            stats = stats_from_doc(entry["stats"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, json.JSONDecodeError):
            # Corrupt/incompatible entry: a miss, rewritten on commit.
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def put(self, key: str, stats: SimulationStats,
            spec_key: Optional[str] = None,
            config_doc: Optional[Dict[str, Any]] = None) -> Path:
        path = self._path(key)
        entry = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "key": key,
            "spec_key": spec_key,
            "config": config_doc,
            "created_unix": round(time.time(), 3),
            "stats": stats_to_doc(stats),
        }
        atomic_write_json(path, entry)
        self.puts += 1
        return path

    # -- JobRunner interface -------------------------------------------

    def get_stats(self, spec_key: str, config) -> Optional[SimulationStats]:
        """Store lookup by (trace spec key, effective machine config)."""
        return self.get(result_key(spec_key, config))

    def put_stats(self, spec_key: str, config,
                  stats: SimulationStats) -> Path:
        """Commit one simulation result under its content address."""
        return self.put(
            result_key(spec_key, config), stats,
            spec_key=spec_key, config_doc=config_identity_doc(config),
        )

    # -- introspection -------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts}

    def keys(self) -> Iterator[str]:
        """Keys of every committed entry (walks the tree; no index)."""
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield path.stem

    def scan(self) -> Dict[str, Any]:
        """A manifest of the store's contents (entry count, spec keys)."""
        entries = 0
        spec_keys: List[str] = []
        for key in self.keys():
            entries += 1
            try:
                with open(self._path(key), encoding="utf-8") as fh:
                    entry = json.load(fh)
                if entry.get("spec_key"):
                    spec_keys.append(entry["spec_key"])
            except (OSError, json.JSONDecodeError):
                continue
        return {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "root": os.fspath(self.root),
            "entries": entries,
            "trace_spec_keys": sorted(set(spec_keys)),
        }
