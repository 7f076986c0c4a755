"""A key-value (YCSB-style) workload on minidb.

Section 1.3 of the paper: "We believe that the proposed hardware can be
used to support large and dependent speculative threads in other
application domains as well, expanding the scope for TLS."  This package
tests that claim on a second domain: a key-value store servicing
read/update/insert/scan request batches with a Zipf-skewed key
popularity, the standard YCSB shape.

The TLS decomposition mirrors the database work: a client *request
batch* is the transaction; chunks of operations become speculative
threads.  Under skew, concurrent epochs collide on the hot keys (and on
the B-tree leaves that hold them) — large speculative threads with
frequent unpredictable dependences, exactly the regime sub-threads
target.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Optional

from ..minidb import Database, EngineOptions, KeyNotFound
from ..trace import (
    TraceRecorder,
    TransactionTraceBuilder,
    WorkloadTrace,
    default_costs,
)


@dataclass(frozen=True)
class KVSpec:
    """Workload shape parameters (YCSB-style)."""

    n_keys: int = 400
    #: Operations per request batch (= per transaction).
    ops_per_batch: int = 48
    #: Operations per speculative thread.
    ops_per_epoch: int = 6
    #: Operation mix (fractions; the remainder is reads).
    update_fraction: float = 0.4
    insert_fraction: float = 0.05
    scan_fraction: float = 0.05
    #: Zipf exponent for key popularity (0 = uniform; ~0.99 = YCSB
    #: default; higher = hotter hot keys, more cross-epoch dependences).
    zipf_theta: float = 0.99
    #: Short range scans touch this many keys.
    scan_length: int = 8

    def __post_init__(self):
        total = (
            self.update_fraction + self.insert_fraction
            + self.scan_fraction
        )
        if total > 1.0:
            raise ValueError("operation fractions exceed 1.0")


#: YCSB core-workload presets (operation mixes; all use the default
#: Zipf skew of 0.99 as YCSB does).
def ycsb_preset(name: str) -> KVSpec:
    """KVSpec for a YCSB core workload: A (update-heavy), B (read-
    mostly), C (read-only), D (read-latest-ish: read-mostly with
    inserts), or E (short scans with inserts)."""
    presets = {
        "A": dict(update_fraction=0.5, insert_fraction=0.0,
                  scan_fraction=0.0),
        "B": dict(update_fraction=0.05, insert_fraction=0.0,
                  scan_fraction=0.0),
        "C": dict(update_fraction=0.0, insert_fraction=0.0,
                  scan_fraction=0.0),
        "D": dict(update_fraction=0.0, insert_fraction=0.05,
                  scan_fraction=0.0),
        "E": dict(update_fraction=0.0, insert_fraction=0.05,
                  scan_fraction=0.95),
    }
    key = name.upper()
    if key not in presets:
        raise ValueError(
            f"unknown YCSB preset {name!r}; choose from A-E"
        )
    return KVSpec(**presets[key])


class ZipfSampler:
    """Zipf-distributed ranks via an inverse-CDF table (seeded)."""

    def __init__(self, n: int, theta: float, rng: random.Random):
        if n < 1:
            raise ValueError("need at least one key")
        self.rng = rng
        weights = [1.0 / (rank ** theta) for rank in range(1, n + 1)]
        total = sum(weights)
        cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        self._cdf = cdf

    def sample(self) -> int:
        """A 0-based rank; rank 0 is the hottest."""
        return bisect.bisect_left(self._cdf, self.rng.random())


@dataclass
class GeneratedKVWorkload:
    trace: WorkloadTrace
    db: Database
    recorder: TraceRecorder
    spec: KVSpec
    operations: int = 0


def generate_kv_workload(
    spec: Optional[KVSpec] = None,
    tls_mode: bool = True,
    options: Optional[EngineOptions] = None,
    n_batches: int = 4,
    seed: int = 42,
    n_cpus: int = 4,
) -> GeneratedKVWorkload:
    """Build the trace for ``n_batches`` request batches.

    Same conventions as the TPC-C driver: ``tls_mode=False`` gives the
    unmodified sequential program; TLS mode defaults to the optimized
    engine.
    """
    spec = spec or KVSpec()
    if options is None:
        options = (
            EngineOptions.optimized() if tls_mode
            else EngineOptions.unoptimized()
        )
    rng = random.Random(seed)
    recorder = TraceRecorder(costs=default_costs())
    recorder.scratch_arenas = max(1, n_cpus)
    db = Database(recorder=recorder, options=options)
    table = db.create_table("kv", entry_size=64)
    # Load phase (untraced): keys are spread so ranks map to scattered
    # B-tree positions, as a hashed key space would.
    recorder.set_target(None)
    positions = list(range(spec.n_keys))
    rng.shuffle(positions)
    for rank, pos in enumerate(positions):
        table.insert((pos,), {"rank": rank, "value": rank, "version": 0})
    rank_to_key = {rank: (pos,) for rank, pos in enumerate(positions)}
    sampler = ZipfSampler(spec.n_keys, spec.zipf_theta, rng)

    workload = WorkloadTrace(name=f"kv-theta{spec.zipf_theta}")
    result = GeneratedKVWorkload(
        trace=workload, db=db, recorder=recorder, spec=spec
    )
    next_insert_key = spec.n_keys + 1_000_000
    costs = recorder.costs

    for batch_idx in range(n_batches):
        builder = TransactionTraceBuilder(
            f"kv[{batch_idx}]", recorder, tls_mode=tls_mode
        )
        builder.begin_serial()
        txn = db.begin()
        recorder.compute(costs.app_work)
        ops = []
        for _ in range(spec.ops_per_batch):
            draw = rng.random()
            if draw < spec.update_fraction:
                ops.append(("update", sampler.sample()))
            elif draw < spec.update_fraction + spec.insert_fraction:
                ops.append(("insert", None))
            elif draw < (
                spec.update_fraction + spec.insert_fraction
                + spec.scan_fraction
            ):
                ops.append(("scan", sampler.sample()))
            else:
                ops.append(("read", sampler.sample()))
        builder.begin_parallel()
        for lo in range(0, len(ops), spec.ops_per_epoch):
            builder.begin_epoch()
            recorder.compute(costs.app_work)
            for op, rank in ops[lo:lo + spec.ops_per_epoch]:
                result.operations += 1
                if op == "read":
                    try:
                        table.get(rank_to_key[rank])
                    except KeyNotFound:
                        pass
                elif op == "update":
                    key = rank_to_key[rank]

                    def bump(row):
                        row["version"] += 1
                        return row

                    table.read_modify_write(key, bump)
                    txn.log("kv.update", key)
                elif op == "insert":
                    key = (next_insert_key,)
                    next_insert_key += 1
                    table.insert(key, {"rank": -1, "value": 0,
                                       "version": 0})
                    txn.log("kv.insert", key)
                else:  # scan
                    start = rank_to_key[rank]
                    for _k, _v in table.scan_range(
                        start, limit=spec.scan_length
                    ):
                        recorder.compute(costs.key_compare)
                recorder.store(
                    recorder.scratch_addr(0x600), 8, "kv.batch_result"
                )
        builder.end_parallel()
        builder.begin_serial()
        txn.commit()
        db.commit_epilogue()
        workload.transactions.append(builder.finish())
    return result
