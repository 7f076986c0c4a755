"""Persistent on-disk workload-trace cache.

Trace generation (running TPC-C or the KV workload against minidb) is by
far the most expensive part of a harness invocation, yet its output is a
pure function of a small set of knobs.  ``TraceSpec`` names those knobs
exactly — benchmark, software mode, transaction count, seed, scale,
engine options, CPU count, cost scale — and :func:`spec_key` hashes the
fully-resolved spec so that equal specs (however their defaults were
spelled) share one cache entry and different specs can never collide.

Entries are stored via :mod:`repro.trace.serialize` under
``~/.cache/repro-traces`` (override with ``--trace-cache DIR`` or the
``REPRO_TRACE_CACHE`` environment variable).  Writes are atomic
(temp file + ``os.replace``) so concurrent harness workers can share a
cache directory safely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..kv import KVSpec, generate_kv_workload
from ..minidb import EngineOptions
from ..obs.atomicio import atomic_output_file
from ..tpcc import TPCCScale, generate_workload
from ..trace import DEFAULT_SCALE, WorkloadTrace, default_costs
from ..trace.serialize import FORMAT_VERSION, load_workload, save_workload

#: Bump whenever trace *generation* changes observable output without any
#: ``TraceSpec`` field changing (engine tweaks, cost-model edits, record
#: layout changes).  Old cache entries then stop matching and are simply
#: regenerated.
GENERATOR_VERSION = 1

ENV_CACHE_DIR = "REPRO_TRACE_CACHE"

#: Process-wide disk-cache telemetry, emitted into traced run logs as
#: the ``tracecache`` counter record.  Plain ints; per-worker in
#: parallel runs (each process counts its own loads/generations).
STATS = {"disk_hits": 0, "generated": 0}


def default_cache_dir() -> Path:
    """``$REPRO_TRACE_CACHE`` if set, else ``~/.cache/repro-traces``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-traces"


@dataclass(frozen=True)
class TraceSpec:
    """Everything that determines the content of one workload trace.

    ``kind`` selects the generator: ``"tpcc"`` (per-benchmark TPC-C via
    :func:`repro.tpcc.generate_workload`) or ``"kv"`` (the YCSB-style
    workload via :func:`repro.kv.generate_kv_workload`, for which
    ``benchmark`` is ignored and ``n_transactions`` counts request
    batches).  ``scale``/``options`` of ``None`` mean the generator's
    defaults; :meth:`resolved` spells them out so the cache key is
    independent of how the caller phrased the defaults.
    """

    kind: str = "tpcc"
    benchmark: str = "new_order"
    tls_mode: bool = True
    n_transactions: int = 4
    seed: int = 42
    scale: Optional[TPCCScale] = None
    options: Optional[EngineOptions] = None
    n_cpus: int = 4
    cost_scale: float = DEFAULT_SCALE
    kv: Optional[KVSpec] = None

    def resolved(self) -> "TraceSpec":
        """The same spec with every defaulted field made explicit."""
        options = self.options
        if options is None:
            options = (
                EngineOptions.optimized()
                if self.tls_mode
                else EngineOptions.unoptimized()
            )
        if self.kind == "kv":
            scale = None
            kv = self.kv or KVSpec()
        else:
            scale = self.scale or TPCCScale()
            kv = None
        return dataclasses.replace(
            self, scale=scale, options=options, kv=kv
        )


def spec_key(spec: TraceSpec) -> str:
    """Content-hash key: same trace content <=> same key."""
    resolved = spec.resolved()
    doc = dataclasses.asdict(resolved)
    doc["_trace_format"] = FORMAT_VERSION
    doc["_generator"] = GENERATOR_VERSION
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def cache_path(spec: TraceSpec, cache_dir: Union[str, Path]) -> Path:
    """Cache file for a spec (human-greppable name + content hash)."""
    prefix = spec.kind if spec.kind == "kv" else spec.benchmark
    mode = "tls" if spec.tls_mode else "seq"
    return Path(cache_dir) / f"{prefix}-{mode}-{spec_key(spec)}.json"


def generate_trace(spec: TraceSpec) -> WorkloadTrace:
    """Generate the trace a spec describes (no caching)."""
    if spec.kind == "kv":
        return generate_kv_workload(
            spec=spec.kv,
            tls_mode=spec.tls_mode,
            options=spec.options,
            n_batches=spec.n_transactions,
            seed=spec.seed,
            n_cpus=spec.n_cpus,
        ).trace
    if spec.kind != "tpcc":
        raise ValueError(f"unknown trace kind {spec.kind!r}")
    return generate_workload(
        spec.benchmark,
        tls_mode=spec.tls_mode,
        options=spec.options,
        n_transactions=spec.n_transactions,
        seed=spec.seed,
        scale=spec.scale,
        costs=default_costs(spec.cost_scale),
        n_cpus=spec.n_cpus,
    ).trace


def materialize(
    spec: TraceSpec, cache_dir: Optional[Union[str, Path]] = None
) -> WorkloadTrace:
    """The trace for ``spec``, from the disk cache when possible.

    With ``cache_dir=None`` this is plain generation.  A corrupt or
    truncated cache file (e.g. from an interrupted process on a
    filesystem without atomic rename) is treated as a miss and rewritten.

    Each call returns a new trace object.  The machine caches compiled
    regions on the trace's segments, so callers that replay one spec
    under many configurations (the :class:`~repro.harness.runner.
    JobRunner` memo) keep the returned object and lower each region once
    per cache geometry.
    """
    if cache_dir is None:
        STATS["generated"] += 1
        return generate_trace(spec)
    path = cache_path(spec, cache_dir)
    if path.exists():
        try:
            trace = load_workload(path)
            STATS["disk_hits"] += 1
            return trace
        except (ValueError, KeyError, TypeError, json.JSONDecodeError):
            pass
    STATS["generated"] += 1
    trace = generate_trace(spec)
    with atomic_output_file(path) as tmp:
        save_workload(trace, tmp)
    return trace
