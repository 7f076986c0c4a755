"""Benchmark driver: turn TPC-C transactions into workload traces.

A *benchmark* is one transaction type run repeatedly (the paper measures
latency, running transactions one at a time): NEW ORDER, NEW ORDER 150,
DELIVERY, DELIVERY OUTER, STOCK LEVEL, PAYMENT, ORDER STATUS.

Each call to :func:`generate_workload` loads a fresh database (same
seed -> identical initial state across software modes) and runs the
transaction sequence under the recorder, producing a
:class:`~repro.trace.events.WorkloadTrace` ready for simulation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..minidb import Database, EngineOptions
from ..trace import (
    CostModel,
    TraceRecorder,
    TransactionTraceBuilder,
    WorkloadTrace,
    default_costs,
)
from .delivery import delivery, delivery_outer
from .inputs import InputGenerator
from .loader import fresh_database
from .neworder import new_order, new_order_150
from .orderstatus import order_status
from .payment import payment
from .schema import TPCCScale
from .stocklevel import stock_level

#: Benchmark name -> transaction function.
BENCHMARKS: Dict[str, Callable] = {
    "new_order": new_order,
    "new_order_150": new_order_150,
    "delivery": delivery,
    "delivery_outer": delivery_outer,
    "stock_level": stock_level,
    "payment": payment,
    "order_status": order_status,
}

#: Paper display names (Figure 5 / Table 2 row labels).
DISPLAY_NAMES = {
    "new_order": "NEW ORDER",
    "new_order_150": "NEW ORDER 150",
    "delivery": "DELIVERY",
    "delivery_outer": "DELIVERY OUTER",
    "stock_level": "STOCK LEVEL",
    "payment": "PAYMENT",
    "order_status": "ORDER STATUS",
}


#: The standard TPC-C transaction mix (clause 5.2.3 minimums; NEW ORDER
#: is "almost half of the TPC-C workload", as the paper notes).
STANDARD_MIX = {
    "new_order": 0.45,
    "payment": 0.43,
    "order_status": 0.04,
    "delivery": 0.04,
    "stock_level": 0.04,
}


@dataclass
class GeneratedWorkload:
    """A workload trace plus the artifacts tests may want to inspect."""

    trace: WorkloadTrace
    db: Database
    recorder: TraceRecorder
    results: list


def _generate(
    name: str,
    pick: Callable[[int, InputGenerator], str],
    tls_mode: bool,
    options: Optional[EngineOptions],
    n_transactions: int,
    seed: int,
    scale: Optional[TPCCScale],
    costs: Optional[CostModel],
    n_cpus: int,
    label: bool,
    record_indices: Optional[Set[int]] = None,
) -> GeneratedWorkload:
    """The one generation loop behind every ``generate_*`` function.

    Loads a fresh database, then runs transaction ``i`` of type
    ``pick(i, gen)`` under the recorder; ``pick`` may draw from ``gen``,
    the input generator the transactions share.  Only indices in
    ``record_indices`` keep their records (``None`` keeps all).  With
    ``label``, each result is copied into a dict that gains a
    ``"_type"`` key naming its transaction.
    """
    if options is None:
        options = (
            EngineOptions.optimized()
            if tls_mode
            else EngineOptions.unoptimized()
        )
    scale = scale or TPCCScale()
    recorder = TraceRecorder(costs=costs or default_costs())
    recorder.scratch_arenas = max(1, n_cpus)
    db, state = fresh_database(scale, recorder=recorder, options=options)
    gen = InputGenerator(scale, seed=seed)
    workload = WorkloadTrace(name=name)
    results = []
    for i in range(n_transactions):
        kind = pick(i, gen)
        builder = TransactionTraceBuilder(
            f"{kind}[{i}]", recorder, tls_mode=tls_mode,
            record=record_indices is None or i in record_indices,
        )
        result = BENCHMARKS[kind](db, state, builder, gen)
        if label:
            result = dict(result)
            result["_type"] = kind
        results.append(result)
        workload.transactions.append(builder.finish())
    return GeneratedWorkload(
        trace=workload, db=db, recorder=recorder, results=results
    )


def generate_workload(
    benchmark: str,
    tls_mode: bool = True,
    options: Optional[EngineOptions] = None,
    n_transactions: int = 6,
    seed: int = 42,
    scale: Optional[TPCCScale] = None,
    costs: Optional[CostModel] = None,
    n_cpus: int = 4,
) -> GeneratedWorkload:
    """Generate the trace for one benchmark under one software mode.

    ``tls_mode=False`` produces the SEQUENTIAL trace: the unmodified
    program (no epoch markers, no TLS overhead instructions), which by
    default also uses the unoptimized engine.  ``tls_mode=True`` produces
    the TLS-transformed trace, by default against the fully-optimized
    engine (the paper evaluates hardware on fully-optimized benchmarks).

    ``n_cpus`` must match the CMP the trace will run on: the engine's
    thread-local scratch arenas are reused round-robin across epochs the
    way worker threads are reused across CPUs, so a trace generated for
    4 CPUs would alias concurrent epochs' arenas on a wider machine.
    """
    if benchmark not in BENCHMARKS:
        raise ValueError(
            f"unknown benchmark {benchmark!r}; "
            f"choose from {sorted(BENCHMARKS)}"
        )
    return _generate(
        benchmark, lambda i, gen: benchmark, tls_mode, options,
        n_transactions, seed, scale, costs, n_cpus, label=False,
    )


def _mix_weights(
    mix: Optional[Dict[str, float]],
) -> Tuple[List[str], List[float]]:
    """A mix's transaction names, sorted, and their normalized weights
    (``None`` is :data:`STANDARD_MIX`)."""
    mix = mix or STANDARD_MIX
    total = sum(mix.values())
    if total <= 0:
        raise ValueError("mix weights must be positive")
    names = sorted(mix)
    for name in names:
        if name not in BENCHMARKS:
            raise ValueError(f"unknown transaction {name!r} in mix")
    return names, [mix[name] / total for name in names]


def generate_mix_workload(
    mix: Optional[Dict[str, float]] = None,
    tls_mode: bool = True,
    options: Optional[EngineOptions] = None,
    n_transactions: int = 10,
    seed: int = 42,
    scale: Optional[TPCCScale] = None,
    costs: Optional[CostModel] = None,
    n_cpus: int = 4,
) -> GeneratedWorkload:
    """A weighted TPC-C transaction mix against one shared database.

    The paper runs transactions one at a time but notes the standard mix
    shape; this driver interleaves the types (deterministically, by
    seeded weighted draw) so mixed-workload latency can be studied with
    the same machinery.  Each transaction's result dict gains a
    ``"_type"`` key naming its transaction.
    """
    names, weights = _mix_weights(mix)
    cumulative = list(itertools.accumulate(weights))

    def pick(i: int, gen: InputGenerator) -> str:
        # Drawn on the shared input RNG, interleaved with execution.
        draw = gen.rng.random()
        for name, edge in zip(names, cumulative):
            if draw < edge:
                return name
        return names[-1]

    return _generate(
        "tpcc_mix", pick, tls_mode, options, n_transactions, seed,
        scale, costs, n_cpus, label=True,
    )


def mix_type_sequence(
    mix: Optional[Dict[str, float]] = None,
    n_transactions: int = 10,
    seed: int = 42,
) -> List[str]:
    """The transaction-type sequence of a sampled mix workload.

    Unlike :func:`generate_mix_workload` (whose per-transaction draw
    interleaves with transaction execution on the shared
    ``InputGenerator`` RNG), the sampled driver path draws every type
    up front from a dedicated seeded ``random.Random`` — so the
    sampler can stratify hundreds of thousands of transactions by type
    before a single one has been generated.
    """
    names, weights = _mix_weights(mix)
    rng = random.Random(f"tpcc-mix-types:{seed}")
    return rng.choices(names, weights=weights, k=n_transactions)


def generate_sampled_mix_workload(
    mix: Optional[Dict[str, float]] = None,
    tls_mode: bool = True,
    options: Optional[EngineOptions] = None,
    n_transactions: int = 10,
    seed: int = 42,
    scale: Optional[TPCCScale] = None,
    costs: Optional[CostModel] = None,
    n_cpus: int = 4,
    record_indices: Optional[Set[int]] = None,
) -> GeneratedWorkload:
    """A mix workload that *records* only the transactions a sampler
    will simulate.

    Every transaction executes against the shared database as usual —
    the recorder is passive, so database state, input-generator draws,
    and address-map evolution are identical whether or not a
    transaction's records are kept — but only indices in
    ``record_indices`` retain their trace (the rest come back as empty
    placeholder transactions).  Memory therefore scales with the
    sample + warmup windows, not the workload, which is what makes
    ``--scale huge`` runs of hundreds of thousands of transactions
    feasible.  ``record_indices=None`` records everything.

    The type sequence is :func:`mix_type_sequence`; pass the same mix,
    count, and seed to both to plan the sample before generating.
    """
    types = mix_type_sequence(mix, n_transactions, seed)
    return _generate(
        "tpcc_mix_sampled", lambda i, gen: types[i], tls_mode, options,
        n_transactions, seed, scale, costs, n_cpus, label=True,
        record_indices=record_indices,
    )
