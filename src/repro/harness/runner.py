"""Shared experiment plumbing: trace caching, job lists, job execution.

Drivers describe their sweeps as lists of :class:`SimJob` (one trace, one
machine configuration) and hand them to a :class:`JobRunner`, which runs
them serially or over a process pool (``--jobs N``) and optionally backs
trace generation with the persistent disk cache in
:mod:`repro.harness.tracecache`.  :meth:`JobRunner.run_one` is the only
code that simulates a job — in this process or in a pool worker — so
the harness-wide switches (``--check-invariants``,
``--no-compile-traces``, ``--trace-out``) reach every experiment.
Results always come back in job order, so serial and parallel runs are
bit-identical.  With a result store
(:mod:`repro.harness.resultstore`, harness ``--result-store``) every job
is committed to disk as it finishes, so rerunning a sweep that was
killed midway simulates only the jobs it had not finished.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Optional, Set, Tuple, Union,
)

from ..minidb import EngineOptions
from ..sim import ExecutionMode, Machine, MachineConfig, SimulationStats
from ..tpcc import TPCCScale
from ..trace import WorkloadTrace
from .tracecache import TraceSpec, materialize, spec_key


def config_identity_doc(config) -> Dict[str, object]:
    """Identity of a config: its compare-eligible fields, by name.

    ``dataclasses.asdict`` would also capture ``compare=False``
    provenance fields such as ``MachineConfig.mode_label``, so two
    configs that compare equal (``==``) could still get different keys
    and miss legitimate dedup hits.  This walks nested dataclasses
    recursively, keeping exactly the fields that take part in equality:
    same ``==`` means same identity, by construction.  The in-memory
    result memo keys on it, and the persistent result store
    (:mod:`repro.harness.resultstore`) hashes it into its content
    address, so the on-disk key is stable across processes and runs.
    """
    doc: Dict[str, object] = {}
    for f in dataclasses.fields(config):
        if not f.compare:
            continue
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = config_identity_doc(value)
        doc[f.name] = value
    return doc


@dataclass
class SimJob:
    """One simulation: a trace under one machine configuration.

    The trace is named either by a :class:`TraceSpec` (preferred — small,
    picklable, cacheable) or inline as a ``WorkloadTrace`` (for traces
    that are sliced or synthesized by the driver itself).  Exactly one of
    the two must be given.
    """

    config: MachineConfig
    spec: Optional[TraceSpec] = None
    trace: Optional[WorkloadTrace] = None
    #: Optional warmup prefix replayed *un-timed* through
    #: ``Machine.functional_warm`` before the measured trace — the
    #: sampled-simulation path (:mod:`repro.harness.sampled`) warms
    #: L1/L2/predictor state this way so a sliced trace starts from
    #: realistic mid-workload state.  None (the default) runs the
    #: original cold-start path.
    warmup: Optional[WorkloadTrace] = None

    def __post_init__(self) -> None:
        if (self.spec is None) == (self.trace is None):
            raise ValueError("SimJob needs exactly one of spec= or trace=")


def describe_job(job: SimJob) -> str:
    """Short human label identifying a job in errors/heartbeats.

    An inline-trace job is named by its slice: the trace name, its first
    and last transactions, its warmup length and its mode, as in
    ``inline-trace tpcc_mix_sampled unit=41 new_order[37]..payment[41]
    warm=16 baseline cpus=4`` (the sampler names each slice after its
    unit).
    """
    if job.spec is not None:
        name = "kv" if job.spec.kind == "kv" else job.spec.benchmark
        parts = [f"{name}[{spec_key(job.spec)[:8]}]"]
    else:
        transactions = job.trace.transactions
        parts = ["inline-trace", job.trace.name]
        if transactions:
            first, last = transactions[0].name, transactions[-1].name
            parts.append(first if len(transactions) == 1
                         else f"{first}..{last}")
        if job.warmup is not None:
            parts.append(f"warm={len(job.warmup.transactions)}")
        if job.config.mode_label is not None:
            parts.append(job.config.mode_label)
    parts.append(f"cpus={job.config.n_cpus}")
    return " ".join(parts)


def _continues(kept: Tuple, job: SimJob, config: MachineConfig) -> bool:
    """Whether ``job`` continues the job ``kept`` describes, or repeats
    it (see :meth:`JobRunner.run_one`)."""
    _machine, warmup, kept_config, done = kept
    if job.trace is None or warmup is not job.warmup or kept_config != config:
        return False
    transactions = job.trace.transactions
    return len(done) <= len(transactions) and all(
        a is b for a, b in zip(done, transactions)
    )


@dataclass
class JobRunner:
    """Executes job lists; owns parallelism and trace caching policy.

    ``jobs`` is the worker-process count (1 = in-process serial).
    ``trace_cache`` is a directory for the persistent disk cache, or
    ``None`` to keep traces purely in memory.  Traces materialized
    in-process are memoized by content-hash key, so a sweep that replays
    one trace under many configurations generates it once.

    An inline-trace job whose trace starts with the previous inline-trace
    job's, under the same warmup object and an equal effective config,
    continues that job's machine instead of building, warming and
    re-simulating the shared prefix (:meth:`run_one`); the sampler
    orders each unit's job pair so the second continues the first, and
    a unit's run without it that equals the previous unit's run with it
    continues that run and simulates nothing.
    """

    jobs: int = 1
    trace_cache: Optional[Union[str, Path]] = None
    #: Field overrides applied (dataclasses.replace) to every job's
    #: MachineConfig just before simulation — how harness-wide switches
    #: such as ``--check-invariants`` reach configs the drivers build
    #: themselves.
    config_overrides: Optional[Dict[str, object]] = None
    #: Optional repro.obs.tracer.SpanTracer — spans for trace
    #: materialization and each job, plus a per-job counter record of the
    #: SimulationStats.  None (the default) runs the original code path.
    tracer: Optional[object] = field(default=None, repr=False,
                                     compare=False)
    #: Render live progress/heartbeats to stderr (harness ``--progress``).
    progress: bool = False
    #: Optional :class:`repro.harness.resultstore.ResultStore` — the
    #: in-memory result memo lifted to disk.  Misses fall through to
    #: simulation and each result commits back to the store as soon as
    #: its job finishes, so an identical sweep re-run (even in a
    #: different process, after a crash) is a store hit instead of a
    #: re-simulation.  None (the default) keeps results in memory only.
    result_store: Optional[object] = field(default=None, repr=False,
                                           compare=False)
    #: Jobs actually sent to a simulator by this runner (memo and store
    #: hits excluded) — the number a repeated sweep over a warm result
    #: store drives to zero.
    dispatched: int = field(default=0, compare=False)
    #: Jobs answered from the persistent result store.
    store_hits: int = field(default=0, compare=False)
    #: Dispatched jobs answered, without a simulation, from an earlier
    #: job whose smaller sub-thread budget never bound (see
    #: :meth:`_simulate`), in this process or in its pool workers.
    derived: int = field(default=0, compare=False)
    _memo: Dict[str, WorkloadTrace] = field(
        default_factory=dict, repr=False
    )
    #: spec_key of every trace this runner touched — the manifest's
    #: ``trace_spec_keys`` provenance list.
    _spec_keys: Set[str] = field(default_factory=set, repr=False)
    #: (trace spec key, effective machine config) → stats.  Simulation
    #: is deterministic, so a job already run by this runner — the
    #: SEQUENTIAL baseline a benchmark shares across the figure6 and
    #: ablation grids, say — is a cache hit, not a re-simulation.
    #: Inline-trace and warmup jobs are never memoized (their inputs
    #: aren't captured by the key).
    _results: Dict[Tuple, SimulationStats] = field(
        default_factory=dict, repr=False
    )
    #: ``(machine, warmup, effective config, transactions run)`` of the
    #: last inline-trace job :meth:`run_one` simulated, which the next
    #: job may continue; None when there is nothing to continue.
    _kept: Optional[Tuple] = field(default=None, repr=False, compare=False)
    #: (trace spec key, effective config with its budget set to 1) →
    #: (budget, stats) of the smallest-budget spec job simulated so far
    #: whose budget never bound.
    _unbound: Dict[Tuple, Tuple[int, SimulationStats]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def trace_for(self, spec: TraceSpec) -> WorkloadTrace:
        key = spec_key(spec)
        self._spec_keys.add(key)
        trace = self._memo.get(key)
        if trace is None:
            if self.tracer is not None:
                with self.tracer.span(
                    "harness.trace", key=key, kind=spec.kind,
                    benchmark=spec.benchmark,
                ):
                    trace = materialize(spec, self.trace_cache)
            else:
                trace = materialize(spec, self.trace_cache)
            self._memo[key] = trace
        return trace

    def trace_spec_keys(self) -> List[str]:
        """Content-hash keys of every trace used so far (sorted)."""
        return sorted(self._spec_keys)

    def _effective_config(self, config: MachineConfig) -> MachineConfig:
        if not self.config_overrides:
            return config
        return dataclasses.replace(config, **self.config_overrides)

    def _emit_job_telemetry(self, job: "SimJob", label: str,
                            stats: SimulationStats) -> None:
        # The execution-mode label lets the report group Figure-5 cycle
        # breakdowns per mode instead of summing across modes.
        self.tracer.counter(
            "sim.stats", stats.counters(), job=label,
            mode=job.config.mode_label,
        )
        if stats.dependence_pairs:
            self.tracer.event(
                "sim.dependences", job=label,
                pairs=[list(p) for p in stats.dependence_pairs],
            )

    def run_one(self, job: SimJob) -> SimulationStats:
        """Simulate one job.

        An inline-trace job *continues* the inline-trace job this runner
        simulated just before it when it has the same ``warmup`` object,
        an equal effective config, and a trace that starts with the
        previous job's transactions (the same objects, in the same
        order), with or without more after them.  It then runs only its
        remaining transactions on the previous job's machine: no build,
        no warm, no re-simulation of the shared prefix.  A machine
        accumulates every statistic over its ``Machine.run`` calls, so
        the result equals a fresh run's, and a job equal to the previous
        one runs nothing and gets the same statistics again.  This is how
        the sampler's run with a unit resumes its run without it, and how
        unit 1's run without it (``[t0]``, no warmup) reuses unit 0's
        identical run.  Any other job drops the kept machine before it
        builds a new one, and :meth:`run` releases it when it returns,
        so at most one machine is alive.
        """
        trace = job.trace if job.trace is not None else self.trace_for(job.spec)
        config = self._effective_config(job.config)
        if self.tracer is None:
            return self._simulate(job, config, trace)
        label = describe_job(job)
        with self.tracer.span("harness.job", job=label):
            stats = self._simulate(job, config, trace)
        self._emit_job_telemetry(job, label, stats)
        return stats

    def _simulate(self, job: SimJob, config: MachineConfig,
                  trace: WorkloadTrace) -> SimulationStats:
        """Run ``trace`` on the kept machine when ``job`` continues it
        (see :meth:`run_one`), else on a new, warmed machine; or answer
        a spec job from a smaller sub-thread budget that never bound.

        A spec job with no warmup gets an earlier spec job's stats,
        building no machine, when both replay the same trace, their
        effective configs differ only in a larger
        ``tls.max_subthreads``, and the earlier run's budget never bound
        (``TLSEngine.budget_bound``).  This is exact.  The budget is
        read in five places: the event loop's sub-thread start guard,
        its compute-slice guard, ``maybe_start_subthread`` and
        ``maybe_start_predictor_subthread``, adaptive ``spacing_for``,
        and the context pool, which is empty exactly when every context
        is live.  Adaptive spacing and predictor-placed checkpoints
        count as bound.  With fixed spacing, the other places act
        differently under a larger budget only once an epoch holding
        every context reaches its spacing, and the engine sees that when
        the interval ends.  Until then both runs allocate the same
        context slots, so the only difference is the contexts' numbers,
        which the L2 uses as dictionary keys and never orders by.
        """
        kept, self._kept = self._kept, None
        budget = config.tls.max_subthreads
        unbound_key = smaller = None
        if job.spec is not None and job.warmup is None:
            unbound_key = (
                spec_key(job.spec), config.with_tls(max_subthreads=1)
            )
            smaller = self._unbound.get(unbound_key)
            if smaller is not None and smaller[0] < budget:
                self.derived += 1
                return smaller[1]
        if kept is not None and _continues(kept, job, config):
            machine, done = kept[0], len(kept[3])
            trace = WorkloadTrace(
                name=trace.name, transactions=trace.transactions[done:]
            )
        else:
            kept = None  # drop the old machine before building one
            machine = Machine(config, tracer=self.tracer)
            if job.warmup is not None:
                machine.functional_warm(job.warmup)
        stats = machine.run(trace)
        if job.trace is not None:
            self._kept = (machine, job.warmup, config, job.trace.transactions)
        elif unbound_key is not None and not machine.engine.budget_bound:
            if smaller is None or budget < smaller[0]:
                self._unbound[unbound_key] = (budget, stats)
        return stats

    def _result_key(self, job: SimJob) -> Optional[Tuple]:
        """Memo key for a job, or None when the job is not memoizable
        (inline traces and warmup prefixes live outside the key).

        The config half of the key is :func:`config_identity_doc`, the
        identity the persistent result store keys on too.
        """
        if job.spec is None or job.warmup is not None:
            return None
        doc = config_identity_doc(self._effective_config(job.config))
        return (spec_key(job.spec), json.dumps(doc, sort_keys=True))

    def _store_lookup(self, job: SimJob) -> Optional[SimulationStats]:
        """Consult the persistent result store for a memoizable job."""
        if self.result_store is None:
            return None
        return self.result_store.get_stats(
            spec_key(job.spec), self._effective_config(job.config)
        )

    def _store_commit(self, job: SimJob, stats: SimulationStats) -> None:
        if self.result_store is None:
            return
        self.result_store.put_stats(
            spec_key(job.spec), self._effective_config(job.config), stats
        )

    def run(self, sim_jobs: Iterable[SimJob]) -> List[SimulationStats]:
        """Run jobs, returning stats in job order regardless of ``jobs``.

        Duplicate jobs — same trace spec, same effective config — are
        simulated once, within a job list and across calls (the shared
        SEQUENTIAL baselines of a multi-sweep run).  Results are
        byte-identical either way: the simulator is deterministic, so
        the deduped job's stats equal a re-run's.

        Each simulated job enters the memo and the result store the
        moment it finishes, before the next one is awaited: if the run
        dies midway, everything it finished is kept, and rerunning the
        same sweep over the same store simulates only the rest.  Nothing
        is retried — a deterministic job that raised raises again.
        """
        sim_jobs = list(sim_jobs)
        for job in sim_jobs:
            # Provenance covers deduped jobs too: their trace is an
            # input of the run even when the simulation is a memo hit.
            if job.spec is not None:
                self._spec_keys.add(spec_key(job.spec))
        keys = [self._result_key(job) for job in sim_jobs]
        slots: List[Optional[SimulationStats]] = [None] * len(sim_jobs)
        pending: List[SimJob] = []
        pending_slots: Dict[int, List[int]] = {}
        first_seen: Dict[Tuple, int] = {}
        for i, (job, key) in enumerate(zip(sim_jobs, keys)):
            if key is not None:
                cached = self._results.get(key)
                if cached is None:
                    # Memo miss: the persistent store may still know
                    # this job from an earlier run (or an earlier,
                    # killed attempt at this sweep).
                    cached = self._store_lookup(job)
                    if cached is not None:
                        self._results[key] = cached
                        self.store_hits += 1
                if cached is not None:
                    slots[i] = cached
                    continue
                dup = first_seen.get(key)
                if dup is not None:
                    pending_slots[dup].append(i)
                    continue
                first_seen[key] = len(pending)
            pending_slots[len(pending)] = [i]
            pending.append(job)
        self.dispatched += len(pending)

        def finished(pi: int, stats: SimulationStats) -> None:
            for i in pending_slots[pi]:
                slots[i] = stats
            key = keys[pending_slots[pi][0]]
            if key is not None:
                self._results[key] = stats
                self._store_commit(pending[pi], stats)

        try:
            self._dispatch(pending, finished)
        finally:
            self._kept = None
        if self.tracer is not None:
            # Deduped jobs still emit their per-job counters (the
            # report's per-mode sums must not depend on memo hits).
            ran = {pending_slots[pi][0] for pi in range(len(pending))}
            for i, job in enumerate(sim_jobs):
                if i not in ran:
                    self._emit_job_telemetry(
                        job, describe_job(job), slots[i]
                    )
        return slots

    def _dispatch(
        self,
        sim_jobs: List[SimJob],
        finished: Callable[[int, SimulationStats], None],
    ) -> None:
        """Simulate ``sim_jobs``, calling ``finished(index, stats)`` as
        each one completes: in order on the serial path, in completion
        order under ``--jobs N``."""
        reporter = None
        if self.progress and sim_jobs:
            from ..obs.progress import ProgressReporter

            reporter = ProgressReporter(total=len(sim_jobs))
        if self.jobs > 1 and len(sim_jobs) > 1:
            from .parallel import run_jobs_parallel

            tracer = self.tracer

            def done(i: int, stats: SimulationStats, seconds: float,
                     derived: int) -> None:
                self.derived += derived
                if tracer is not None:
                    # Workers can't share the tracer: as each result
                    # arrives, write the job's span, ending now and
                    # starting its worker run time earlier, and its
                    # counters.
                    job = sim_jobs[i]
                    label = describe_job(job)
                    tracer.end_span(
                        "harness.job",
                        round(max(0.0, tracer.now() - seconds), 6),
                        job=label,
                    )
                    self._emit_job_telemetry(job, label, stats)
                finished(i, stats)

            run_jobs_parallel(
                sim_jobs, self.jobs, self.trace_cache,
                config_overrides=self.config_overrides,
                progress=reporter, on_done=done,
            )
        else:
            for i, job in enumerate(sim_jobs):
                finished(i, self.run_one(job))
                if reporter is not None:
                    reporter.job_done()
                    reporter.maybe_render()
        if reporter is not None:
            reporter.finish()


@dataclass
class ExperimentContext:
    """The sweep settings every driver shares, and the runner its jobs
    go through.

    One trace per (benchmark, software mode, engine options) triple is
    enough: all hardware configurations replay the same trace, exactly as
    the paper replays the same binaries, and the runner's memo generates
    it once.  :meth:`spec` names that trace; its key includes the
    resolved :class:`EngineOptions` because drivers (e.g. Figure 2's
    tuning ladder) vary software optimizations against one benchmark.
    """

    n_transactions: int = 4
    seed: int = 42
    scale: Optional[TPCCScale] = None
    runner: JobRunner = field(default_factory=JobRunner)

    def spec(
        self,
        benchmark: str,
        tls_mode: Optional[bool] = None,
        mode: Optional[str] = None,
        options: Optional[EngineOptions] = None,
        n_cpus: int = 4,
    ) -> TraceSpec:
        """The :class:`TraceSpec` for one benchmark under this context.

        Pass either ``tls_mode`` directly or a hardware ``mode`` (every
        mode except SEQUENTIAL replays the TLS-transformed trace).
        """
        if tls_mode is None:
            tls_mode = mode != ExecutionMode.SEQUENTIAL
        return TraceSpec(
            kind="tpcc",
            benchmark=benchmark,
            tls_mode=tls_mode,
            n_transactions=self.n_transactions,
            seed=self.seed,
            scale=self.scale,
            options=options,
            n_cpus=n_cpus,
        )

    def trace(
        self,
        benchmark: str,
        tls_mode: bool,
        options: Optional[EngineOptions] = None,
    ) -> WorkloadTrace:
        return self.runner.trace_for(
            self.spec(benchmark, tls_mode=tls_mode, options=options)
        )

    def run(self, sim_jobs: Iterable[SimJob]) -> List[SimulationStats]:
        return self.runner.run(sim_jobs)


def mode_trace(ctx: ExperimentContext, benchmark: str, mode: str
               ) -> WorkloadTrace:
    """The right software trace for a hardware mode (SEQUENTIAL uses the
    unmodified program; every other mode uses the TLS-transformed one)."""
    return ctx.trace(benchmark, tls_mode=(mode != ExecutionMode.SEQUENTIAL))
