"""Sampled experiment drivers: Figure 5 estimates and the huge-scale run.

This is the harness half of :mod:`repro.trace.sampling`.  The sampler
module decides *which* transactions to simulate and turns their metric
values into interval estimates; this module decides *how* each sampled
transaction is simulated so its value approximates the marginal cost the
transaction has inside the full run:

* the prefix ``[wlo, lo)`` is replayed **functionally** (un-timed cache
  and predictor warming, ``Machine.functional_warm``), with the window
  bounds given by :func:`unit_window`;
* the tail ``[lo, i]`` is **detail-simulated twice** — once stopping
  just before the measured transaction *i* and once including it — and
  the unit value is the difference.  With ``warmup=-1`` the tail is the
  whole prefix and the differences telescope exactly to the exhaustive
  totals; the default short tail trades a small residual bias (absorbed
  by ``SamplerConfig.guard``) for O(1) cost per unit.

Every run is an ordinary :class:`~repro.harness.runner.SimJob`, so the
existing ``--jobs`` fan-out, trace cache, and progress machinery apply
unchanged and estimates are independent of worker count (results come
back in job order).  On the serial path the two detailed runs share one
machine: the run including the unit continues the run without it
(:meth:`~repro.harness.runner.JobRunner.run_one`), so each unit's
prefix is warmed once and its tail simulated once.  A pool worker
simulates each run on a machine of its own, with the same result.

``run_figure5_sampled`` estimates the Figure-5 cycle breakdown per
(benchmark, mode) with one shared plan per benchmark — the same
transaction indices across all execution modes — so speedups are paired
ratios with jackknife intervals.  ``run_huge`` is the ``--scale huge``
path: a standard-mix TPC-C workload of (up to) hundreds of thousands of
transactions, generated with muted recording so only the sampled
windows are ever held in memory, stratified by transaction type.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.accounting import Category
from ..sim import ExecutionMode, MachineConfig, SimulationStats
from ..tpcc import (
    BENCHMARKS,
    DISPLAY_NAMES,
    TPCCScale,
    generate_sampled_mix_workload,
    mix_type_sequence,
)
from ..trace import WorkloadTrace
from ..trace.sampling import (
    Estimate,
    SamplePlan,
    SamplerConfig,
    build_plan,
    estimate_total,
    jackknife_statistic,
    transaction_density,
    transaction_records,
)
from .figure5 import MODE_LABELS
from .report import render_table
from .runner import ExperimentContext, JobRunner, SimJob

#: Metrics estimated per (benchmark, mode): the Figure-5 breakdown plus
#: run totals and violation counts.
CYCLE_METRICS = tuple(f"cycles.{c}" for c in Category.ALL)
METRICS = (
    ("total_cycles",)
    + CYCLE_METRICS
    + ("primary_violations", "secondary_violations")
)

#: Functional-warming window of the huge-scale path, in transactions
#: (see :func:`run_huge`).
HUGE_FUNCTIONAL_WINDOW = 16


def metric_vector(stats: SimulationStats) -> Dict[str, float]:
    """The estimated metric set of one run as a flat dict."""
    vector = {"total_cycles": stats.total_cycles}
    summed = stats.breakdown()
    for category in Category.ALL:
        vector[f"cycles.{category}"] = summed.get(category)
    vector["primary_violations"] = float(stats.primary_violations)
    vector["secondary_violations"] = float(stats.secondary_violations)
    return vector


def estimate_json(estimate: Estimate) -> Dict[str, object]:
    """Manifest/report-friendly view of one interval estimate."""
    return {
        "point": estimate.point,
        "low": estimate.low,
        "high": estimate.high,
        "std_error": estimate.std_error,
        "df": estimate.df,
        "method": estimate.method,
    }


def _difference(a: Dict[str, float], b: Optional[Dict[str, float]]
                ) -> Dict[str, float]:
    if b is None:
        return dict(a)
    return {k: a[k] - b[k] for k in a}


@dataclass
class _UnitJobs:
    """Bookkeeping for one sampled unit's job pair."""

    unit: int
    job_with: int            # index of the run including the unit
    job_without: Optional[int]  # index of the run stopping before it
    detailed_records: int
    warmed_records: int


def _slice(trace: WorkloadTrace, lo: int, hi: int, unit: int
           ) -> WorkloadTrace:
    """Transactions ``[lo, hi)`` of ``trace``, named after the unit
    they serve, so every job of a sampled run has its own label."""
    return WorkloadTrace(
        name=f"{trace.name} unit={unit}",
        transactions=trace.transactions[lo:hi],
    )


def _records(trace: WorkloadTrace, lo: int, hi: int) -> int:
    return sum(transaction_records(t) for t in trace.transactions[lo:hi])


def unit_window(sampler: SamplerConfig, unit: int) -> Tuple[int, int]:
    """The warming window ``(wlo, lo)`` of one sampled unit.

    Transactions ``[wlo, lo)`` are replayed functionally and
    ``[lo, unit]`` are detail-simulated.  A ``-1`` warmup or functional
    window reaches back to the start of the trace.
    """
    lo = 0 if sampler.warmup < 0 else max(0, unit - sampler.warmup)
    if sampler.functional_window < 0:
        return 0, lo
    return max(0, lo - sampler.functional_window), lo


def append_unit_jobs(
    trace: WorkloadTrace,
    config: MachineConfig,
    plan: SamplePlan,
    jobs: List[SimJob],
) -> List[_UnitJobs]:
    """Append the job pair for every sampled unit; returns the pairing.

    A unit's pair is the run stopping just before the unit, then the
    run including it: the same warmup object, the same config and a
    trace one transaction longer, so :meth:`JobRunner.run_one` runs the
    second as a continuation of the first (the unit's transaction only,
    on the first run's warmed machine).  A unit with an empty tail gets
    the second run only.

    Job lists from several (benchmark, mode) combinations can share one
    ``jobs`` list — the returned indices are absolute — so a whole
    sampled sweep runs under a single ``JobRunner.run`` fan-out.
    """
    units: List[_UnitJobs] = []
    for unit in plan.sampled_units:
        wlo, lo = unit_window(plan.config, unit)
        warm = _slice(trace, wlo, lo, unit) if lo > wlo else None
        ends = [unit + 1] if lo == unit else [unit, unit + 1]
        units.append(_UnitJobs(
            unit=unit,
            job_with=len(jobs) + len(ends) - 1,
            job_without=len(jobs) if lo < unit else None,
            detailed_records=sum(_records(trace, lo, hi) for hi in ends),
            warmed_records=len(ends) * _records(trace, wlo, lo),
        ))
        jobs.extend(
            SimJob(config=config, trace=_slice(trace, lo, hi, unit),
                   warmup=warm)
            for hi in ends
        )
    return units


def unit_values(
    results: Sequence[SimulationStats], units: Sequence[_UnitJobs]
) -> Dict[int, Dict[str, float]]:
    """Warmup-corrected metric vectors per sampled unit."""
    out: Dict[int, Dict[str, float]] = {}
    for pair in units:
        with_unit = metric_vector(results[pair.job_with])
        without = (
            None if pair.job_without is None
            else metric_vector(results[pair.job_without])
        )
        out[pair.unit] = _difference(with_unit, without)
    return out


def _estimates(
    plan: SamplePlan, values: Dict[int, Dict[str, float]]
) -> Dict[str, Estimate]:
    """The HT total estimate of every metric in :data:`METRICS`."""
    return {
        m: estimate_total(plan, {i: v[m] for i, v in values.items()})
        for m in METRICS
    }


def _paired(
    seq: Dict[int, Dict[str, float]], cur: Dict[int, Dict[str, float]]
) -> Dict[int, Dict[str, float]]:
    """Each unit's SEQUENTIAL and measured-mode vectors merged under
    ``seq.*`` and ``cur.*`` keys.

    The units were sampled in lockstep across modes, so a ratio of the
    two is paired: the jackknife deletes a unit from numerator and
    denominator together.
    """
    return {
        unit: {
            **{f"seq.{k}": v for k, v in seq[unit].items()},
            **{f"cur.{k}": v for k, v in cur[unit].items()},
        }
        for unit in cur
    }


def _speedup(plan: SamplePlan, paired: Dict[int, Dict[str, float]]
             ) -> Estimate:
    """Jackknife CI of the paired speedup over SEQUENTIAL."""
    return jackknife_statistic(
        plan, paired,
        lambda total: total("seq.total_cycles") / total("cur.total_cycles"),
    )


def _sampler_params(sampler: SamplerConfig) -> Dict[str, object]:
    """The sampling parameters a result reports."""
    return {
        "rate": sampler.rate,
        "strata": sampler.strata,
        "seed": sampler.seed,
        "warmup": sampler.warmup,
        "functional_window": sampler.functional_window,
        "guard": sampler.guard,
    }


@dataclass
class SampleAccounting:
    """How much work the sampled run actually did vs. the full trace."""

    transactions_total: int
    transactions_sampled: int
    #: Records the detailed runs hold (both runs of every unit's tail).
    #: A continued run (see :func:`append_unit_jobs`) simulates only
    #: its last transaction, so a serial run simulates fewer.
    records_detailed: int
    #: Records of the warming windows, once per detailed run (a
    #: continued run does not warm again).
    records_warmed: int
    #: Exact record count of the full trace when it was fully recorded,
    #: else None (huge-scale runs mute unsampled transactions).
    records_total: Optional[int]
    #: HT estimate of the full trace's record count from the sampled
    #: units — always available, exact when the trace was recorded.
    records_total_estimated: float

    @property
    def detailed_fraction(self) -> float:
        """Fraction of (estimated) total records detail-simulated —
        the manifest's ``achieved_coverage``."""
        if self.records_total_estimated <= 0:
            return 1.0
        return self.records_detailed / self.records_total_estimated

    def manifest_fields(self) -> Dict[str, object]:
        """The accounting fields of a manifest's sampler section."""
        return {
            "achieved_coverage": self.detailed_fraction,
            "transactions_sampled": self.transactions_sampled,
            "transactions_total": self.transactions_total,
            "records_detailed": self.records_detailed,
        }

    def summary(self) -> str:
        """One line for a rendered report."""
        return (
            f"sampled {self.transactions_sampled}/"
            f"{self.transactions_total} transactions; "
            f"detail-simulated {self.records_detailed} records = "
            f"{self.detailed_fraction:.1%} of the estimated "
            f"~{self.records_total_estimated:.0f}-record trace"
        )


def _accounting(
    parts: Sequence[Tuple[WorkloadTrace, SamplePlan, Sequence[_UnitJobs]]],
    fully_recorded: bool,
) -> SampleAccounting:
    """The accounting of (trace, plan, unit jobs) parts, summed."""
    units = [u for _trace, _plan, part_units in parts for u in part_units]
    return SampleAccounting(
        transactions_total=sum(plan.n_units for _t, plan, _u in parts),
        transactions_sampled=sum(
            len(plan.sampled_units) for _t, plan, _u in parts
        ),
        records_detailed=sum(u.detailed_records for u in units),
        records_warmed=sum(u.warmed_records for u in units),
        records_total=(
            sum(
                transaction_records(t)
                for trace, _p, _u in parts for t in trace.transactions
            )
            if fully_recorded else None
        ),
        records_total_estimated=sum(
            estimate_total(plan, {
                i: float(transaction_records(trace.transactions[i]))
                for i in plan.sampled_units
            }).point
            for trace, plan, _u in parts
        ),
    )


def estimate_workload(
    trace: WorkloadTrace,
    config: MachineConfig,
    sampler: SamplerConfig,
    runner: Optional[JobRunner] = None,
    plan: Optional[SamplePlan] = None,
) -> Tuple[Dict[str, Estimate], SamplePlan, SampleAccounting]:
    """Sampled metric estimates for one trace under one configuration.

    The single-trace entry point (the fuzzer's sampling axis and the
    differential tests use it); the figure drivers below build the same
    jobs across many (benchmark, mode) pairs and run them together.
    """
    runner = runner or JobRunner()
    if plan is None:
        plan = build_plan(
            len(trace.transactions), sampler,
            density=transaction_density(trace),
        )
    jobs: List[SimJob] = []
    units = append_unit_jobs(trace, config, plan, jobs)
    values = unit_values(runner.run(jobs), units)
    return _estimates(plan, values), plan, _accounting(
        [(trace, plan, units)], True
    )


@dataclass
class SampledBar:
    """One (benchmark, mode) bar of the sampled Figure 5."""

    benchmark: str
    mode: str
    #: Metric name -> interval estimate (totals via stratified variance,
    #: ratios — fractions / normalized time / speedup — via jackknife).
    estimates: Dict[str, Estimate]

    def estimate(self, metric: str) -> Estimate:
        return self.estimates[metric]


@dataclass
class SampledFigure5Result:
    """Figure 5 estimated from a stratified transaction sample."""

    sampler: Dict[str, object]
    bars: List[SampledBar] = field(default_factory=list)
    plans: Dict[str, Dict[str, object]] = field(default_factory=dict)
    accounting: Optional[SampleAccounting] = None

    def bar(self, benchmark: str, mode: str) -> SampledBar:
        for b in self.bars:
            if b.benchmark == benchmark and b.mode == mode:
                return b
        raise KeyError((benchmark, mode))

    def manifest_block(self) -> Dict[str, object]:
        """Sampler section of the manifest sidecar: the sampling params,
        every metric's interval estimate, and the achieved record
        coverage (what fraction of the trace was detail-simulated)."""
        block: Dict[str, object] = {
            "params": dict(self.sampler),
            "plans": self.plans,
            "estimates": {
                f"{b.benchmark}/{b.mode}": {
                    m: estimate_json(e)
                    for m, e in sorted(b.estimates.items())
                }
                for b in self.bars
            },
        }
        if self.accounting is not None:
            block.update(self.accounting.manifest_fields())
        return block

    def render(self) -> str:
        sections = []
        for benchmark in dict.fromkeys(b.benchmark for b in self.bars):
            bars = [b for b in self.bars if b.benchmark == benchmark]
            rows = []
            for b in bars:
                total = b.estimates["total_cycles"]
                speedup = b.estimates["speedup"]
                rows.append([
                    MODE_LABELS[b.mode],
                    f"{total.point:.0f} ±{total.half_width:.0f}",
                    f"{speedup.point:.2f} ±{speedup.half_width:.2f}",
                ])
            sections.append(render_table(
                ["mode", "total cycles (95% CI)", "speedup (95% CI)"],
                rows,
                title=(
                    f"Figure 5 (sampled) — "
                    f"{DISPLAY_NAMES.get(benchmark, benchmark)}"
                ),
            ))
            sections.append("")
        if self.accounting is not None:
            sections.append(self.accounting.summary())
        return "\n".join(sections)


def _ratio_estimates(
    plan: SamplePlan,
    mode_values: Dict[str, Dict[int, Dict[str, float]]],
    mode: str,
    n_cpus: int,
) -> Dict[str, Estimate]:
    """Jackknife CIs for the mode's ratio metrics (fractions, speedup),
    paired with SEQUENTIAL (see :func:`_paired`)."""
    merged = _paired(
        mode_values[ExecutionMode.SEQUENTIAL], mode_values[mode]
    )
    out: Dict[str, Estimate] = {"speedup": _speedup(plan, merged)}
    out["normalized"] = jackknife_statistic(
        plan, merged,
        lambda total: total("cur.total_cycles") / total("seq.total_cycles"),
    )
    for category in Category.ALL:
        metric = f"cur.cycles.{category}"
        out[f"fraction.{category}"] = jackknife_statistic(
            plan, merged,
            lambda total, m=metric: (
                total(m) / (n_cpus * total("cur.total_cycles"))
            ),
        )
    return out


def run_figure5_sampled(
    ctx: Optional[ExperimentContext] = None,
    sampler: Optional[SamplerConfig] = None,
    benchmarks: Optional[List[str]] = None,
    modes: Optional[List[str]] = None,
) -> SampledFigure5Result:
    """Estimate Figure 5 from a stratified transaction sample.

    Callers are expected to check ``--sample-rate`` first and run the
    exhaustive :func:`~repro.harness.figure5.run_figure5` when the rate
    covers everything — this function always runs the sampled machinery
    (even on plans that happen to cover every unit, e.g. tiny traces
    under ``min_per_stratum``), which is *statistically* exact there
    but takes the sliced-and-warmed code path.
    """
    ctx = ctx or ExperimentContext()
    sampler = sampler or SamplerConfig()
    benchmarks = benchmarks or list(BENCHMARKS)
    modes = modes or list(ExecutionMode.ALL)
    if ExecutionMode.SEQUENTIAL not in modes:
        raise ValueError(
            "sampled Figure 5 needs SEQUENTIAL for speedup pairing"
        )

    jobs: List[SimJob] = []
    plans: Dict[str, SamplePlan] = {}
    pairing: Dict[Tuple[str, str], List[_UnitJobs]] = {}
    parts = []  # (trace, plan, unit jobs) of every bar
    for benchmark in benchmarks:
        tls = ctx.trace(benchmark, tls_mode=True)
        seq = ctx.trace(benchmark, tls_mode=False)
        # One plan per benchmark, stratified by the TLS trace's
        # dependence density; reused across modes so every mode
        # simulates the same transactions (paired speedups).
        plans[benchmark] = build_plan(
            len(tls.transactions), sampler,
            density=transaction_density(tls),
        )
        for mode in modes:
            trace = seq if mode == ExecutionMode.SEQUENTIAL else tls
            pairing[(benchmark, mode)] = append_unit_jobs(
                trace, MachineConfig.for_mode(mode), plans[benchmark],
                jobs,
            )
            parts.append(
                (trace, plans[benchmark], pairing[(benchmark, mode)])
            )
    results = ctx.run(jobs)

    result = SampledFigure5Result(sampler=_sampler_params(sampler))
    n_cpus = MachineConfig.for_mode(ExecutionMode.BASELINE).n_cpus
    for benchmark in benchmarks:
        plan = plans[benchmark]
        mode_values = {
            mode: unit_values(results, pairing[(benchmark, mode)])
            for mode in modes
        }
        for mode in modes:
            estimates = _estimates(plan, mode_values[mode])
            estimates.update(
                _ratio_estimates(plan, mode_values, mode, n_cpus)
            )
            result.bars.append(SampledBar(
                benchmark=benchmark, mode=mode, estimates=estimates,
            ))
        result.plans[benchmark] = plan.describe()
    result.accounting = _accounting(parts, True)
    return result


@dataclass
class HugeRunResult:
    """Sampled estimates for the huge-scale standard-mix workload."""

    n_transactions: int
    scale: str
    sampler: Dict[str, object]
    #: Mode -> metric -> interval estimate.
    estimates: Dict[str, Dict[str, Estimate]] = field(
        default_factory=dict
    )
    #: Paired SEQUENTIAL/BASELINE speedup.
    speedup: Optional[Estimate] = None
    plan: Dict[str, object] = field(default_factory=dict)
    accounting: Optional[SampleAccounting] = None

    def manifest_block(self) -> Dict[str, object]:
        """Sampler section of the manifest sidecar (see
        :meth:`SampledFigure5Result.manifest_block`)."""
        block: Dict[str, object] = {
            "params": dict(self.sampler),
            "plan": self.plan,
            "estimates": {
                mode: {
                    m: estimate_json(e)
                    for m, e in sorted(metrics.items())
                }
                for mode, metrics in self.estimates.items()
            },
        }
        if self.speedup is not None:
            block["speedup"] = estimate_json(self.speedup)
        if self.accounting is not None:
            block.update(self.accounting.manifest_fields())
        return block

    def render(self) -> str:
        rows = []
        for mode, metrics in self.estimates.items():
            total = metrics["total_cycles"]
            rows.append([
                MODE_LABELS.get(mode, mode),
                f"{total.point:.3e} ±{total.half_width:.2e}",
                f"{metrics['cycles.failed'].point:.2e}",
                f"{metrics['primary_violations'].point:.0f}",
            ])
        out = [render_table(
            ["mode", "total cycles (95% CI)", "failed cycles",
             "violations"],
            rows,
            title=(
                f"Huge-scale TPC-C mix — {self.n_transactions} "
                f"transactions (sampled)"
            ),
        )]
        if self.speedup is not None:
            out.append(
                f"BASELINE speedup over SEQUENTIAL: "
                f"{self.speedup.point:.2f} "
                f"±{self.speedup.half_width:.2f} (95% CI)"
            )
        if self.accounting is not None:
            out.append(self.accounting.summary())
        return "\n".join(out)


def run_huge(
    n_transactions: int = 200_000,
    seed: int = 42,
    sampler: Optional[SamplerConfig] = None,
    runner: Optional[JobRunner] = None,
    scale: Optional[TPCCScale] = None,
    modes: Sequence[str] = (
        ExecutionMode.SEQUENTIAL, ExecutionMode.BASELINE
    ),
) -> HugeRunResult:
    """The ``--scale huge`` driver path: a standard-mix TPC-C workload
    of hundreds of thousands of transactions, feasible only sampled.

    Transactions are stratified by type (the mix's five transaction
    programs — a compile-time trace-spec key), planned *before*
    generation from the precomputed type sequence, and generation mutes
    every transaction outside the sampled warmup windows, so neither
    time nor memory is spent recording work that will never be
    simulated.  The functional-warming window is capped at
    :data:`HUGE_FUNCTIONAL_WINDOW` (unlike the mid-size default of "the
    whole prefix") because an O(prefix) warm per unit would make the
    whole run quadratic.
    """
    sampler = sampler or SamplerConfig(
        rate=0.01, warmup=4, functional_window=HUGE_FUNCTIONAL_WINDOW
    )
    if sampler.functional_window < 0 or sampler.warmup < 0:
        # A full-prefix window would re-record (and re-warm) nearly the
        # whole workload per unit — quadratic, and incompatible with
        # muted generation.  Cap it rather than silently thrash.
        raise ValueError(
            "huge-scale sampling needs bounded warmup windows "
            "(warmup >= 0 and functional_window >= 0)"
        )
    runner = runner or JobRunner()
    scale = scale or TPCCScale.huge()
    types = mix_type_sequence(n_transactions=n_transactions, seed=seed)
    plan = build_plan(n_transactions, sampler, labels=types)
    # Record exactly the transactions some unit's jobs replay.
    record: set = set()
    for unit in plan.sampled_units:
        record.update(range(unit_window(sampler, unit)[0], unit + 1))

    jobs: List[SimJob] = []
    pairing: Dict[str, List[_UnitJobs]] = {}
    parts = []
    for mode in modes:
        span = (
            contextlib.nullcontext() if runner.tracer is None
            else runner.tracer.span(
                "harness.trace", kind="mix", mode=mode,
                recorded=len(record),
            )
        )
        with span:
            trace = generate_sampled_mix_workload(
                tls_mode=mode != ExecutionMode.SEQUENTIAL,
                n_transactions=n_transactions,
                seed=seed,
                scale=scale,
                record_indices=record,
            ).trace
        pairing[mode] = append_unit_jobs(
            trace, MachineConfig.for_mode(mode), plan, jobs
        )
        parts.append((trace, plan, pairing[mode]))
    results = runner.run(jobs)
    values = {mode: unit_values(results, pairing[mode]) for mode in modes}

    result = HugeRunResult(
        n_transactions=n_transactions,
        scale="huge",
        sampler=_sampler_params(sampler),
        estimates={mode: _estimates(plan, values[mode]) for mode in modes},
        plan=plan.describe(),
        accounting=_accounting(parts, False),
    )
    if (
        ExecutionMode.SEQUENTIAL in values
        and ExecutionMode.BASELINE in values
    ):
        result.speedup = _speedup(plan, _paired(
            values[ExecutionMode.SEQUENTIAL], values[ExecutionMode.BASELINE]
        ))
    return result
