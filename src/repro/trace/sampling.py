"""Statistical sampling of workload traces with validated error bounds.

Exhaustive replay of every transaction caps experiments at toy scale.
This module implements SMARTS-style *stratified sampling over the
transactions of a workload trace*: pick a subset of transactions, detail-
simulate only those (each behind a warmup prefix, see
:mod:`repro.harness.sampled`), and estimate every whole-trace metric as a
Horvitz-Thompson total with a confidence interval.

Design points, all pinned by ``tests/test_sampling.py`` and the
hypothesis suite in ``tests/test_sampling_property.py``:

* **Unit = transaction.**  The machine runs one continuous timeline, so
  epochs within a transaction interact (same region, same caches); the
  transaction is the smallest unit whose marginal cost is well-defined
  given a warm machine state.
* **Strata** combine a discrete label (benchmark / transaction type —
  a compile-time trace-spec key proxy) with quantile buckets of a
  per-transaction *dependence density* feature computed by
  :func:`repro.trace.analysis.dependence_stats`.  Dependence-heavy
  transactions have chaotic Failed/Sync cycles; giving them their own
  stratum keeps their variance from widening every estimate.
* **Determinism.**  All randomness flows through one seeded
  ``random.Random``; strata are iterated in sorted key order and unit
  lists are kept sorted, so a plan is a pure function of
  ``(n_units, features, SamplerConfig)`` — independent of
  ``PYTHONHASHSEED`` and of how many worker processes later run the
  jobs.
* **Honest intervals.**  Stratified variance with finite-population
  correction, Student-t quantiles on Satterthwaite effective degrees of
  freedom (pooled df under-covers when one noisy stratum dominates), and
  a small multiplicative *warmup guard* (``SamplerConfig.guard``)
  acknowledging that truncated warmup leaves a residual bias the
  sampling variance cannot see.  Ratio metrics (fractions, speedups) get
  delete-one jackknife intervals instead, since a ratio of HT totals is
  not itself an HT total.
* **Full coverage short-circuits.**  When the plan selects every unit
  (``rate >= 1`` or tiny traces) callers must bypass sampling entirely
  and run the exhaustive path — ``SamplePlan.covers_all`` makes that
  decision explicit, and the harness uses it to keep
  ``--sample-rate 1.0`` byte-identical to an unsampled run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .analysis import dependence_stats
from .events import WorkloadTrace

#: Two-sided 95% Student-t quantiles by degrees of freedom; falls back
#: to the normal quantile above the table.  Hard-coded so the module
#: needs no scipy (the container has none).
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
    25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}


def t_quantile_95(df: int) -> float:
    """Two-sided 95% t quantile (conservative between table rows)."""
    if df <= 0:
        return float("inf")
    if df in _T95:
        return _T95[df]
    larger = [k for k in _T95 if k >= df]
    if larger:
        # Round *down* in df => round the quantile up: conservative.
        return _T95[min(larger)]
    return 1.96


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs of one sampling run (harness ``--sample-*`` flags).

    ``warmup`` is the *detailed* warmup tail: how many predecessor
    transactions are detail-simulated (and subtracted out) before each
    measured transaction; ``-1`` means the full prefix, which makes each
    unit value exact by the telescoping identity but costs O(N) per
    unit.  ``functional_window`` bounds the *functional* warming prefix
    replayed un-timed before the detailed tail (``-1`` = the whole
    prefix).
    """

    rate: float = 0.1
    strata: int = 3
    seed: int = 0
    warmup: int = 4
    functional_window: int = -1
    min_per_stratum: int = 2
    #: Cold-start certainty stratum: the first ``cold_units`` units are
    #: *always* sampled (a take-all stratum contributing zero sampling
    #: variance).  The start of a trace runs against cold caches and
    #: predictors, making the first transactions systematic outliers on
    #: miss-driven metrics; no density feature captures that, so random
    #: strata either miss the outlier mass (underestimate) or overweight
    #: it — the textbook fix is to enumerate such units outright.  They
    #: are also the cheapest units to simulate (shortest prefixes).
    cold_units: int = 2
    #: Residual-warmup guard: every CI half-width is widened by this
    #: fraction of |point estimate|.  Covers the bias a truncated warmup
    #: leaves behind, which no variance estimate can observe.  Zero when
    #: ``warmup == -1`` would be defensible, but we keep the guard
    #: uniform so intervals never tighten when the user shortens warmup.
    guard: float = 0.02

    def __post_init__(self) -> None:
        if not (0.0 < self.rate):
            raise ValueError(f"sample rate must be positive, got {self.rate}")
        if self.strata < 1:
            raise ValueError("strata count must be >= 1")
        if self.warmup < -1:
            raise ValueError("warmup must be >= 0, or -1 for full prefix")
        if self.functional_window < -1:
            raise ValueError("functional window must be >= 0 or -1")
        if self.min_per_stratum < 1:
            raise ValueError("min_per_stratum must be >= 1")
        if self.cold_units < 0:
            raise ValueError("cold_units must be >= 0")
        if self.guard < 0:
            raise ValueError("guard must be >= 0")


@dataclass(frozen=True)
class Stratum:
    """One stratum: its key, full unit population, and sampled units."""

    key: Tuple
    units: Tuple[int, ...]
    sampled: Tuple[int, ...]


@dataclass(frozen=True)
class SamplePlan:
    """A deterministic assignment of units to strata and samples."""

    n_units: int
    strata: Tuple[Stratum, ...]
    config: SamplerConfig

    @property
    def sampled_units(self) -> Tuple[int, ...]:
        """All sampled unit indices, ascending."""
        out: List[int] = []
        for s in self.strata:
            out.extend(s.sampled)
        return tuple(sorted(out))

    @property
    def covers_all(self) -> bool:
        """True when every unit is sampled (estimation degenerates to
        the exhaustive sum; callers should run the exhaustive path)."""
        return sum(len(s.sampled) for s in self.strata) == self.n_units

    def describe(self) -> Dict[str, object]:
        """JSON-able summary for manifests."""
        return {
            "n_units": self.n_units,
            "n_sampled": len(self.sampled_units),
            "strata": [
                {
                    "key": [str(k) for k in s.key],
                    "population": len(s.units),
                    "sampled": len(s.sampled),
                }
                for s in self.strata
            ],
        }


def transaction_density(trace: WorkloadTrace) -> List[float]:
    """Per-transaction dependence density (dependent loads per epoch).

    The paper's tuning metric (Section 3.2) repurposed as a stratum
    feature: transactions with many cross-epoch dependent loads are the
    ones whose Failed/Sync cycles dominate the variance.
    """
    out = []
    for txn in trace.transactions:
        single = WorkloadTrace(name=trace.name, transactions=[txn])
        out.append(dependence_stats(single).dependent_loads_per_epoch())
    return out


def transaction_records(txn) -> int:
    """Number of trace records in one transaction."""
    total = 0
    for seg in txn.segments:
        epochs = getattr(seg, "epochs", None)
        if epochs is None:
            total += len(seg.records)
        else:
            total += sum(len(e.records) for e in epochs)
    return total


def build_plan(
    n_units: int,
    config: SamplerConfig,
    density: Optional[Sequence[float]] = None,
    labels: Optional[Sequence[Hashable]] = None,
) -> SamplePlan:
    """Partition units into strata and draw the sample, deterministically.

    The first ``config.cold_units`` units form a take-all certainty
    stratum (cold-start outliers, see :class:`SamplerConfig`).  The
    rest are ``(label, density-bucket)`` groups: units are first
    grouped by ``labels`` (transaction type; all-same when omitted),
    then each group is split into up to ``config.strata`` equal-count
    buckets by ascending ``density``.  Every unit lands in exactly one
    stratum (pinned by the hypothesis partition test).  Within each
    stratum ``n_h = min(N_h, max(min_per_stratum, round(rate * N_h)))``
    units are drawn without replacement by a ``random.Random`` seeded
    from ``config.seed`` alone.
    """
    if n_units <= 0:
        raise ValueError("need at least one unit to sample")
    if density is not None and len(density) != n_units:
        raise ValueError("density length must equal n_units")
    if labels is not None and len(labels) != n_units:
        raise ValueError("labels length must equal n_units")

    cold = min(config.cold_units, n_units)
    strata: List[Stratum] = []
    if cold > 0:
        cold_members = tuple(range(cold))
        strata.append(
            Stratum(key=("__cold__", 0), units=cold_members,
                    sampled=cold_members)
        )

    groups: Dict[Tuple, List[int]] = {}
    for i in range(cold, n_units):
        label = "" if labels is None else str(labels[i])
        groups.setdefault((label,), []).append(i)
    for gkey in sorted(groups):
        members = groups[gkey]
        if density is None or config.strata == 1 or len(members) == 1:
            buckets = [sorted(members)]
        else:
            # Equal-count buckets by ascending density; ties broken by
            # unit index so the split never depends on sort stability.
            order = sorted(members, key=lambda i: (density[i], i))
            n_buckets = min(config.strata, len(order))
            per = math.ceil(len(order) / n_buckets)
            buckets = [
                sorted(order[b * per:(b + 1) * per])
                for b in range(n_buckets)
            ]
            buckets = [b for b in buckets if b]
        for b_idx, units in enumerate(buckets):
            strata.append(
                Stratum(key=gkey + (b_idx,), units=tuple(units),
                        sampled=())
            )

    # One RNG for the whole plan, consumed in sorted-stratum order: the
    # draw is a pure function of (n_units, features, config).
    rng = random.Random(
        f"repro-sampler:{config.seed}:{config.rate}:{config.strata}"
    )
    drawn: List[Stratum] = []
    for s in strata:
        if s.sampled:
            # Certainty stratum: already take-all, no draw to make.
            drawn.append(s)
            continue
        n_h = len(s.units)
        want = min(
            n_h, max(config.min_per_stratum, round(config.rate * n_h))
        )
        sampled = tuple(sorted(rng.sample(s.units, want)))
        drawn.append(Stratum(key=s.key, units=s.units, sampled=sampled))
    return SamplePlan(
        n_units=n_units, strata=tuple(drawn), config=config
    )


@dataclass(frozen=True)
class Estimate:
    """One estimated metric: point value and 95% confidence interval."""

    point: float
    half_width: float
    std_error: float
    df: int
    method: str = "stratified"

    @property
    def low(self) -> float:
        return self.point - self.half_width

    @property
    def high(self) -> float:
        return self.point + self.half_width

    def contains(self, value: float, slack: float = 1e-9) -> bool:
        return self.low - slack <= value <= self.high + slack


def _ht_total(
    plan: SamplePlan,
    values: Dict[int, float],
    omit: Optional[int] = None,
) -> float:
    """Horvitz-Thompson total over the plan, optionally deleting a unit."""
    total = 0.0
    for s in plan.strata:
        xs = [values[i] for i in s.sampled if i != omit]
        if not xs:
            continue
        total += len(s.units) * (math.fsum(xs) / len(xs))
    return total


def estimate_total(
    plan: SamplePlan, values: Dict[int, float]
) -> Estimate:
    """Stratified HT total with FPC variance and a t-based 95% CI.

    ``values`` maps every sampled unit index to its (warmup-corrected)
    metric value.  Estimates are invariant under permutation of the
    mapping's insertion order (pinned by the hypothesis suite):
    everything iterates the plan's sorted strata, and within-stratum
    sums use ``math.fsum``.
    """
    point = 0.0
    variance = 0.0
    sat_denom = 0.0
    for s in plan.strata:
        xs = [values[i] for i in s.sampled]
        n_h, N_h = len(xs), len(s.units)
        if n_h == 0:
            raise ValueError(f"stratum {s.key} has no sampled values")
        mean = math.fsum(xs) / n_h
        point += N_h * mean
        if n_h > 1 and n_h < N_h:
            s2 = math.fsum((x - mean) ** 2 for x in xs) / (n_h - 1)
            v_h = N_h * N_h * (1 - n_h / N_h) * s2 / n_h
            variance += v_h
            sat_denom += v_h * v_h / (n_h - 1)
    # Satterthwaite effective df: when one noisy, lightly-sampled
    # stratum dominates the variance, pooling all strata's df would
    # pretend the CI rests on observations it never used — the classic
    # small-sample under-coverage mode for stratified designs.
    if sat_denom > 0:
        df = max(1, int(variance * variance / sat_denom))
    else:
        df = 1
    std_error = math.sqrt(variance)
    half = t_quantile_95(df) * std_error
    half += plan.config.guard * abs(point)
    return Estimate(
        point=point, half_width=half, std_error=std_error, df=df,
        method="stratified",
    )


def jackknife_statistic(
    plan: SamplePlan,
    values: Dict[int, Dict[str, float]],
    stat_fn: Callable[[Callable[[str], float]], float],
) -> Estimate:
    """Delete-one jackknife CI for a smooth function of HT totals.

    ``stat_fn`` receives a ``total(metric) -> float`` accessor and
    returns the statistic (e.g. a cycle fraction or a speedup ratio).
    The grouped jackknife deletes one sampled unit at a time,
    reweighting its stratum, and pools the per-stratum pseudo-value
    variance; units sampled in lockstep across execution modes make
    paired ratios (speedups) directly jackknifable by keying both
    modes' metrics into each unit's vector.
    """
    def totals_with(omit: Optional[int]) -> Callable[[str], float]:
        cache: Dict[str, float] = {}

        def total(metric: str) -> float:
            if metric not in cache:
                cache[metric] = _ht_total(
                    plan, {i: v[metric] for i, v in values.items()}, omit
                )
            return cache[metric]

        return total

    point = stat_fn(totals_with(None))
    variance = 0.0
    df = 0
    for s in plan.strata:
        n_h = len(s.sampled)
        if n_h < 2 or n_h == len(s.units):
            # A fully-enumerated (or single-sample) stratum contributes
            # no sampling variance the jackknife can see.
            df += max(0, n_h - 1)
            continue
        loo = [stat_fn(totals_with(i)) for i in s.sampled]
        mean_loo = math.fsum(loo) / n_h
        variance += (
            (n_h - 1) / n_h
            * math.fsum((v - mean_loo) ** 2 for v in loo)
            * (1 - n_h / len(s.units))
        )
        df += n_h - 1
    std_error = math.sqrt(variance)
    half = t_quantile_95(max(df, 1)) * std_error
    half += plan.config.guard * abs(point)
    return Estimate(
        point=point, half_width=half, std_error=std_error, df=df,
        method="jackknife",
    )
