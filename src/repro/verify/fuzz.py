"""Differential trace fuzzer: ``python -m repro.verify.fuzz``.

Each seed deterministically draws a random workload trace (hot shared
words, private scratch, latches under a global ordering discipline) and
a random machine/TLS configuration, lints the trace, then replays it
under every :class:`~repro.sim.ExecutionMode` with the commit-log
observer attached and the serial-replay oracle checking the result.
Each (mode, config) case runs twice — with compiled traces and under
interpreted replay (the same event loop without compiled entries or
chaining) — and the two runs must agree on every simulation statistic,
making the trace compiler and the fast paths it feeds a fuzzed axis.
With ``--check-invariants`` the cycle-level invariant checker runs as
well, at a tight sweep interval.

On a failure the driver re-runs the failing (trace, config, mode) while
shrinking the workload (drop transactions, then segments, then epochs,
then bisect record lists) and writes a self-contained JSON repro file —
the minimized trace in :mod:`repro.trace.serialize` format plus the full
machine configuration — which ``--repro FILE`` replays directly.

``--profile high-violation`` biases both draws toward squash pressure:
epochs contend almost entirely on the shared hot words, the L2 is drawn
tiny (overflow squashes), and the TLS config always has many sub-thread
contexts at tight spacing.  That regime squashes epochs in the middle of
chained compiled dispatch on nearly every seed, and each squash must
leave the compiled run exactly where the interpreted run would be.

Exit status is 0 when every seed passes, 1 otherwise, so CI can run a
fixed seed batch as a regression gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from pathlib import Path
from typing import List, Optional

from ..core.engine import TLSConfig
from ..cpu.pipeline import PipelineConfig
from ..sim import ExecutionMode, Machine, MachineConfig
from ..trace.addressmap import AddressMap
from ..trace.events import (
    EpochTrace,
    Op,
    ParallelRegion,
    Rec,
    SerialSegment,
    TransactionTrace,
    WorkloadTrace,
)
from ..trace.serialize import workload_from_dict, workload_to_dict
from .invariants import InvariantError
from .lint import TraceLintError, assert_clean
from .oracle import OracleMismatch, run_with_oracle

REPRO_FORMAT = "repro-verify-fuzz-repro"

#: Shared hot words the random epochs contend on (classic TLS hot spots).
_AMAP = AddressMap()
_SHARED_WORDS = (
    [_AMAP.log_tail_addr(), _AMAP.lru_head_addr(), _AMAP.lru_tail_addr(),
     _AMAP.txn_counter_addr(), _AMAP.results_tail_addr()]
    + [_AMAP.page_addr(page, 32 + slot * 4)
       for page in range(3) for slot in range(6)]
    + [_AMAP.fsm_addr(page) for page in range(3)]
)
_PC_BASE = 0x0040_0000


# ----------------------------------------------------------------------
# Random draws
# ----------------------------------------------------------------------


#: Named generator biases.  ``high-violation`` is the squash-pressure
#: regime: small L2, many sub-threads, shared-word-heavy epochs.
PROFILES = ("default", "high-violation")


def _random_records(
    rng: random.Random, owner: int, n_ops: int,
    shared_bias: float = 0.55,
) -> List[tuple]:
    """A record list mixing compute, shared/private memory ops, latches.

    Latches are acquired in increasing latch-id order and released LIFO,
    so every random trace respects the global-order discipline the
    linter enforces (deadlock-freedom); contention and violations come
    from the shared words, not from broken latch nesting.
    """
    records: List[tuple] = []
    held: List[int] = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.30:
            records.append((Rec.COMPUTE, rng.randint(1, 120)))
        elif roll < 0.34:
            records.append(
                (Rec.OP, rng.choice((Op.INT_MUL, Op.FP)), rng.randint(1, 4))
            )
        elif roll < 0.40:
            records.append(
                (Rec.BRANCH, _PC_BASE + rng.randrange(64) * 16,
                 rng.random() < 0.8)
            )
        elif roll < 0.85:
            kind = Rec.LOAD if rng.random() < 0.6 else Rec.STORE
            if rng.random() < shared_bias:
                addr = rng.choice(_SHARED_WORDS)
            else:
                addr = _AMAP.app_scratch_addr(
                    owner, rng.randrange(32) * 4
                )
            size = rng.choice((1, 4, 4, 8))
            pc = _PC_BASE + rng.randrange(64) * 16
            records.append((kind, addr, size, pc))
        elif roll < 0.92 and len(held) < 2:
            # Acquire a latch above everything currently held.
            floor = (held[-1] + 1) if held else 0
            latch = rng.randrange(floor, floor + 4)
            records.append(
                (Rec.LATCH_ACQ, latch, _PC_BASE + rng.randrange(64) * 16)
            )
            held.append(latch)
        elif held:
            records.append((Rec.LATCH_REL, held.pop()))
        else:
            records.append((Rec.TLS_OVERHEAD, rng.randint(1, 20)))
    while held:
        records.append((Rec.LATCH_REL, held.pop()))
    return records


def random_workload(
    rng: random.Random, profile: str = "default",
    n_transactions: Optional[int] = None,
) -> WorkloadTrace:
    """A random workload; ``n_transactions`` overrides the default 1-2
    draw (the sampling axis needs a population worth stratifying)."""
    high_violation = profile == "high-violation"
    shared_bias = 0.85 if high_violation else 0.55
    min_ops, max_ops = (12, 60) if high_violation else (4, 40)
    workload = WorkloadTrace(name="fuzz")
    if n_transactions is None:
        n_transactions = rng.randint(1, 2)
    for t in range(n_transactions):
        txn = TransactionTrace(name=f"FUZZ-{t}")
        txn.segments.append(
            SerialSegment(records=_random_records(rng, owner=99, n_ops=rng.randint(1, 8)))
        )
        for _ in range(rng.randint(1, 2)):
            n_epochs = rng.randint(2, 6)
            region = ParallelRegion(
                epochs=[
                    EpochTrace(
                        epoch_id=e,
                        records=_random_records(
                            rng, owner=e,
                            n_ops=rng.randint(min_ops, max_ops),
                            shared_bias=shared_bias,
                        ),
                    )
                    for e in range(n_epochs)
                ]
            )
            txn.segments.append(region)
        txn.segments.append(
            SerialSegment(records=_random_records(rng, owner=99, n_ops=rng.randint(1, 6)))
        )
        workload.transactions.append(txn)
    return workload


def random_machine_config(
    rng: random.Random, profile: str = "default"
) -> MachineConfig:
    """A random (but always geometrically valid) machine configuration.

    Caches are drawn tiny so evictions, victim-cache spills, and
    overflow squashes actually happen on short fuzz traces.  The
    ``high-violation`` profile pins the draws at the squashy end: the
    smallest L2 geometries (speculative state overflows constantly) and
    always-many sub-thread contexts at tight spacing, so nearly every
    speculative epoch races a rewind.
    """
    high_violation = profile == "high-violation"
    line_size = rng.choice((16, 32, 64))
    l1_assoc = rng.choice((1, 2, 4))
    l1_sets = rng.choice((4, 8, 16))
    l2_assoc = 2 if high_violation else rng.choice((2, 4))
    l2_sets = rng.choice((4, 8)) if high_violation else rng.choice((8, 16, 32))
    tls = TLSConfig(
        max_subthreads=(
            rng.choice((4, 8, 8)) if high_violation
            else rng.choice((1, 2, 4, 8))
        ),
        subthread_spacing=(
            rng.choice((10, 25)) if high_violation
            else rng.choice((10, 25, 100))
        ),
        spec_slice_limit=rng.choice((25, 100)),
        adaptive_spacing=rng.random() < 0.3,
        subthread_start_cost=rng.choice((0, 0, 5)),
        violation_penalty=rng.choice((5, 20)),
        spawn_latency=rng.choice((0, 20, 60)),
        start_tables=rng.random() < 0.8,
        line_granularity_loads=rng.random() < 0.7,
        predictor_subthreads=rng.random() < 0.3,
        sync_predicted_loads=rng.random() < 0.2,
        value_predict_loads=rng.random() < 0.2,
    )
    return MachineConfig(
        n_cpus=rng.choice((2, 4)),
        line_size=line_size,
        l1_size=l1_assoc * l1_sets * line_size,
        l1_assoc=l1_assoc,
        l2_size=l2_assoc * l2_sets * line_size,
        l2_assoc=l2_assoc,
        victim_entries=(
            rng.choice((0, 2)) if high_violation
            else rng.choice((0, 2, 8, 64))
        ),
        pipeline=PipelineConfig(),
        tls=tls,
        overlap_loads=rng.random() < 0.3,
        mshr_entries=rng.choice((2, 8)),
        l1_subthread_tracking=rng.random() < 0.2,
    )


# ----------------------------------------------------------------------
# Running and shrinking
# ----------------------------------------------------------------------


def _run_case(
    workload: WorkloadTrace, config: MachineConfig
) -> Optional[str]:
    """Run one (workload, config) under the oracle; returns the failure
    message, or None when the run is equivalent.

    Every case runs twice under the oracle — once through the
    compiled-trace fast paths and once under interpreted replay — and
    both runs must produce equal simulation statistics;
    ``SimulationStats.__eq__`` already ignores the compile telemetry
    counters, which are the only fields allowed to differ.
    """
    try:
        compiled = run_with_oracle(
            workload, dataclasses.replace(config, compile_traces=True)
        )
        interpreted = run_with_oracle(
            workload, dataclasses.replace(config, compile_traces=False)
        )
        if compiled.stats != interpreted.stats:
            return (
                "CompiledPathMismatch: compiled-trace stats differ from "
                "the interpreted path"
            )
    except (OracleMismatch, InvariantError, AssertionError) as exc:
        return f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # simulator crash is a finding too
        return f"{type(exc).__name__}: {exc}"
    return None


def _shrink(
    workload: WorkloadTrace,
    config: MachineConfig,
    budget: int = 150,
) -> WorkloadTrace:
    """Greedy structural shrink keeping the failure alive.

    Drops transactions, then segments, then epochs, then bisects record
    lists.  ``budget`` caps the number of simulation re-runs.
    """
    runs = 0

    def fails(candidate: WorkloadTrace) -> bool:
        nonlocal runs
        if runs >= budget:
            return False
        runs += 1
        return _run_case(candidate, config) is not None

    def rebuild(transactions) -> WorkloadTrace:
        return WorkloadTrace(name=workload.name, transactions=transactions)

    current = workload
    # 1/2: drop whole transactions, then whole segments.
    changed = True
    while changed and runs < budget:
        changed = False
        txns = current.transactions
        for i in range(len(txns) - 1, -1, -1):
            if len(txns) <= 1:
                break
            candidate = rebuild(txns[:i] + txns[i + 1:])
            if fails(candidate):
                current = candidate
                txns = current.transactions
                changed = True
        for t_idx, txn in enumerate(current.transactions):
            for s_idx in range(len(txn.segments) - 1, -1, -1):
                if len(txn.segments) <= 1:
                    break
                new_txn = TransactionTrace(
                    name=txn.name,
                    segments=txn.segments[:s_idx]
                    + txn.segments[s_idx + 1:],
                )
                candidate = rebuild(
                    current.transactions[:t_idx]
                    + [new_txn]
                    + current.transactions[t_idx + 1:]
                )
                if fails(candidate):
                    current = candidate
                    txn = new_txn
                    changed = True
    # 3: drop epochs inside surviving parallel regions.
    changed = True
    while changed and runs < budget:
        changed = False
        for t_idx, txn in enumerate(current.transactions):
            for s_idx, seg in enumerate(txn.segments):
                if not isinstance(seg, ParallelRegion):
                    continue
                for e_idx in range(len(seg.epochs) - 1, -1, -1):
                    if len(seg.epochs) <= 1:
                        break
                    new_seg = ParallelRegion(
                        epochs=seg.epochs[:e_idx] + seg.epochs[e_idx + 1:]
                    )
                    new_txn = TransactionTrace(
                        name=txn.name,
                        segments=txn.segments[:s_idx]
                        + [new_seg]
                        + txn.segments[s_idx + 1:],
                    )
                    candidate = rebuild(
                        current.transactions[:t_idx]
                        + [new_txn]
                        + current.transactions[t_idx + 1:]
                    )
                    if fails(candidate):
                        current = candidate
                        txn = new_txn
                        seg = new_seg
                        changed = True
    # 4: halve record lists while the failure survives.
    def shrink_records(records: List[tuple]) -> List[tuple]:
        return records[: max(1, len(records) // 2)]

    changed = True
    while changed and runs < budget:
        changed = False
        for t_idx, txn in enumerate(current.transactions):
            for s_idx, seg in enumerate(txn.segments):
                if isinstance(seg, SerialSegment):
                    if len(seg.records) <= 1:
                        continue
                    new_seg = SerialSegment(
                        records=shrink_records(seg.records)
                    )
                elif isinstance(seg, ParallelRegion):
                    new_seg = ParallelRegion(
                        epochs=[
                            EpochTrace(
                                epoch_id=e.epoch_id,
                                records=shrink_records(e.records),
                            )
                            for e in seg.epochs
                        ]
                    )
                    if all(
                        len(e.records) <= 1 for e in seg.epochs
                    ):
                        continue
                else:
                    continue
                new_txn = TransactionTrace(
                    name=txn.name,
                    segments=txn.segments[:s_idx]
                    + [new_seg]
                    + txn.segments[s_idx + 1:],
                )
                candidate = rebuild(
                    current.transactions[:t_idx]
                    + [new_txn]
                    + current.transactions[t_idx + 1:]
                )
                if fails(candidate):
                    current = candidate
                    changed = True
    return current


# ----------------------------------------------------------------------
# Repro files
# ----------------------------------------------------------------------


def config_to_dict(config: MachineConfig) -> dict:
    return dataclasses.asdict(config)


#: ``MachineConfig`` fields that once chose an execution strategy (the
#: columnar load/store kernels, journaled speculative batches) and never
#: changed a result.  Repro files written while they existed still carry
#: them; ``config_from_dict`` drops them so those files keep replaying.
RETIRED_CONFIG_FIELDS = ("columnar", "columnar_stores", "speculative_batches")


def config_from_dict(doc: dict) -> MachineConfig:
    doc = {k: v for k, v in doc.items() if k not in RETIRED_CONFIG_FIELDS}
    doc["pipeline"] = PipelineConfig(**doc["pipeline"])
    doc["tls"] = TLSConfig(**doc["tls"])
    return MachineConfig(**doc)


def write_repro(
    path: Path,
    workload: WorkloadTrace,
    config: MachineConfig,
    mode: str,
    seed: Optional[int],
    error: str,
) -> None:
    from ..obs.atomicio import atomic_write_json
    from ..obs.manifest import build_manifest

    doc = {
        "format": REPRO_FORMAT,
        "version": 1,
        "seed": seed,
        "mode": mode,
        "error": error,
        "config": config_to_dict(config),
        "workload": workload_to_dict(workload),
        # Provenance: which code/version produced this repro case.
        "manifest": build_manifest(
            command=["python", "-m", "repro.verify.fuzz"],
            config={"mode": mode},
            seed=seed,
        ),
    }
    atomic_write_json(path, doc, sort_keys=False, trailing_newline=False)


def run_repro(path: Path) -> Optional[str]:
    """Replay a repro file; returns the failure message or None (fixed)."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != REPRO_FORMAT:
        raise ValueError(f"{path} is not a fuzz repro file")
    workload = workload_from_dict(doc["workload"])
    config = config_from_dict(doc["config"])
    return _run_case(workload, config)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def run_seed(
    seed: int,
    check_invariants: bool = False,
    out_dir: Optional[Path] = None,
    profile: str = "default",
) -> List[str]:
    """Fuzz one seed through every execution mode; returns failures."""
    rng = random.Random(seed)
    workload = random_workload(rng, profile=profile)
    base = random_machine_config(rng, profile=profile)
    failures: List[str] = []
    try:
        assert_clean(workload)
    except TraceLintError as exc:
        # Generator bug: the random workload itself broke discipline.
        failures.append(f"seed {seed}: lint: {exc}")
        return failures
    for mode in ExecutionMode.ALL:
        config = MachineConfig.for_mode(mode, base=base)
        if check_invariants:
            config = dataclasses.replace(
                config, check_invariants=True, invariant_interval=16
            )
        error = _run_case(workload, config)
        if error is None:
            continue
        small = _shrink(workload, config)
        message = f"seed {seed} mode {mode}: {error}"
        if out_dir is not None:
            path = out_dir / f"fuzz-seed{seed}-{mode}.json"
            write_repro(path, small, config, mode, seed, error)
            message += f" [repro: {path}]"
        failures.append(message)
    return failures


def run_sampling_seed(seed: int, profile: str = "default"
                      ) -> Optional[str]:
    """The sampling fuzz axis: exhaustive vs. estimated metric totals.

    Draws a random workload big enough to stratify (8-14 transactions)
    and runs it under the BASELINE mode three ways:

    1. **Exhaustively** — the reference totals.
    2. **Per unit, exactly** — every transaction's marginal value via
       full-prefix warmup (``warmup=-1``).  These must sum back to the
       exhaustive totals *exactly* (the telescoping identity); any gap
       is a warmup/slicing bug, flagged at float tolerance.
    3. **Sampled at rate 0.25** — the estimate must land inside a
       widened 3-sigma interval around the exhaustive value, where
       sigma is the *true* stratified sampling deviation computed from
       the step-2 unit values (the estimator's own reported std error
       is useless on spiky fuzz workloads: a stratum whose two sampled
       values happen to agree reports zero variance).  A zero true
       sigma therefore demands near-exact equality — a strong check.

    Returns the failure message, or None when every metric agrees.
    """
    import math

    from ..harness.runner import JobRunner
    from ..harness.sampled import (
        METRICS,
        append_unit_jobs,
        estimate_workload,
        metric_vector,
        unit_values,
    )
    from ..trace.sampling import (
        SamplerConfig,
        build_plan,
        transaction_density,
    )

    rng = random.Random(f"sampling-axis:{seed}")
    workload = random_workload(
        rng, profile=profile, n_transactions=rng.randint(8, 14)
    )
    try:
        assert_clean(workload)
    except TraceLintError as exc:
        return f"seed {seed}: lint: {exc}"
    base = random_machine_config(rng, profile=profile)
    config = MachineConfig.for_mode(ExecutionMode.BASELINE, base=base)
    n = len(workload.transactions)
    runner = JobRunner()
    exact_cfg = SamplerConfig(rate=1.0, warmup=-1, functional_window=-1)
    try:
        exact = metric_vector(Machine(config).run(workload))
        full_plan = build_plan(n, exact_cfg)
        jobs: List = []
        pairs = append_unit_jobs(workload, config, full_plan, jobs)
        values = unit_values(runner.run(jobs), pairs)
        sampler = SamplerConfig(
            rate=0.25, strata=2, seed=seed, warmup=-1,
            functional_window=-1,
        )
        plan = build_plan(
            n, sampler, density=transaction_density(workload)
        )
        estimates, _plan, _acct = estimate_workload(
            workload, config, sampler, runner=runner, plan=plan
        )
    except Exception as exc:  # sampler crash is a finding too
        return f"seed {seed}: {type(exc).__name__}: {exc}"
    bad = []
    for metric in METRICS:
        telescoped = math.fsum(values[i][metric] for i in range(n))
        if abs(telescoped - exact[metric]) > 1e-6 * max(
            1.0, abs(exact[metric])
        ):
            bad.append(
                f"{metric}: unit values sum to {telescoped:.6g}, "
                f"exhaustive total is {exact[metric]:.6g}"
            )
            continue
        variance = 0.0
        for stratum in plan.strata:
            xs = [values[i][metric] for i in stratum.units]
            n_pop, n_smp = len(xs), len(stratum.sampled)
            if n_smp == 0 or n_smp >= n_pop or n_pop < 2:
                continue
            mean = math.fsum(xs) / n_pop
            s2 = math.fsum((x - mean) ** 2 for x in xs) / (n_pop - 1)
            variance += n_pop * (n_pop - n_smp) * s2 / n_smp
        sigma = math.sqrt(variance)
        est = estimates[metric]
        tolerance = (
            3.0 * sigma
            + sampler.guard * abs(est.point)
            + 1e-6 * max(1.0, abs(exact[metric]))
        )
        if abs(est.point - exact[metric]) > tolerance:
            bad.append(
                f"{metric}: estimate {est.point:.6g} vs exhaustive "
                f"{exact[metric]:.6g} (tolerance {tolerance:.6g})"
            )
    if bad:
        return f"seed {seed}: sampled estimate off: " + "; ".join(bad)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.fuzz",
        description=(
            "Differential fuzzing of the TLS simulator against the "
            "serial-replay oracle."
        ),
    )
    parser.add_argument("--seeds", type=int, default=25,
                        help="number of seeds to run (default 25)")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed (default 0)")
    parser.add_argument("--check-invariants", action="store_true",
                        help="also run the cycle-level invariant checker")
    parser.add_argument("--profile", choices=PROFILES, default="default",
                        help="generator bias; high-violation draws small "
                             "L2s, many sub-threads, and shared-word-"
                             "heavy epochs (squash-pressure regime)")
    parser.add_argument("--out", type=Path, default=Path("fuzz-failures"),
                        metavar="DIR",
                        help="directory for minimized repro files")
    parser.add_argument("--repro", type=Path, default=None, metavar="FILE",
                        help="replay one repro file instead of fuzzing")
    parser.add_argument("--sampling", action="store_true",
                        help="fuzz the statistical sampler instead: per "
                             "seed, compare exhaustive metric totals "
                             "against rate-0.25 stratified estimates "
                             "(repro.trace.sampling) and flag any metric "
                             "outside a widened 3-sigma interval")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.sampling:
        sampling_failures: List[str] = []
        for seed in range(args.start, args.start + args.seeds):
            error = run_sampling_seed(seed, profile=args.profile)
            if error is not None:
                sampling_failures.append(error)
                print(f"FAIL {error}")
            elif not args.quiet:
                print(f"ok   seed {seed}")
        if sampling_failures:
            print(f"\n{len(sampling_failures)} failure(s) over "
                  f"{args.seeds} seeds")
            return 1
        print(f"\nall {args.seeds} sampling seeds passed")
        return 0

    if args.repro is not None:
        error = run_repro(args.repro)
        if error is None:
            print(f"{args.repro}: PASS (failure no longer reproduces)")
            return 0
        print(f"{args.repro}: FAIL\n{error}")
        return 1

    all_failures: List[str] = []
    for seed in range(args.start, args.start + args.seeds):
        failures = run_seed(
            seed,
            check_invariants=args.check_invariants,
            out_dir=args.out,
            profile=args.profile,
        )
        if failures:
            all_failures.extend(failures)
            for failure in failures:
                print(f"FAIL {failure}")
        elif not args.quiet:
            print(f"ok   seed {seed}")
    total = args.seeds
    if all_failures:
        print(f"\n{len(all_failures)} failure(s) over {total} seeds")
        return 1
    print(f"\nall {total} seeds passed "
          f"({len(ExecutionMode.ALL)} modes each)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
