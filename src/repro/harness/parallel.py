"""Process-pool fan-out for simulation job lists.

Every simulation job is a pure function of (trace, MachineConfig), so the
sweep drivers are embarrassingly parallel once their traces exist — the
same property the paper exploits by replaying one set of binaries across
all hardware configurations.  This module fans a job list over a
``ProcessPoolExecutor`` while keeping the results in submission order, so
a parallel run is bit-identical to a serial one.

Each result is handed to the caller's ``on_done`` callback the moment
its job completes, so :class:`~repro.harness.runner.JobRunner` can
commit it to the result store before waiting on the next one.

Failure handling is first-class:

* an exception inside a worker surfaces as :class:`JobFailure` naming
  the failing job (benchmark, trace-spec key, config shape) and
  carrying the worker's traceback;
* a worker process that dies outright (``kill -9``, the OOM killer)
  breaks the whole pool; that too surfaces as :class:`JobFailure`, not
  an anonymous ``BrokenProcessPool``, naming every job that had not
  finished;
* the first failure cancels every not-yet-started job instead of
  grinding through the rest of the sweep; jobs already running finish
  and still reach ``on_done``;
* ``KeyboardInterrupt`` shuts the pool down without waiting for queued
  *or in-flight* work — the interrupt path skips the usual blocking
  ``shutdown(wait=True)``, so ^C returns promptly even mid-simulation.

Nothing is retried: the simulator is deterministic, so a job that
raised raises again, and a killed run is resumed by rerunning it over
the same ``--result-store``.

Workers return each result with its tracecache delta: each process
counts its own :data:`repro.harness.tracecache.STATS` movement per job
and the parent folds the deltas back in, so traced parallel runs report
the same disk-hit/generation totals a serial run would.  A job's result
also says whether the worker's runner derived it from an earlier job
(``JobRunner.derived``), which the parent adds to its own count.

With a :class:`~repro.obs.progress.ProgressReporter` (harness
``--progress``), workers stamp per-process heartbeats into a shared
mapping so the parent can render jobs done/total, ETA, and flag hung
workers.  Without one, no Manager process is started and workers run the
original code path.

Each worker process runs its jobs through one
:class:`~repro.harness.runner.JobRunner` of its own, built by the pool
initializer with the parent's trace cache and config overrides, so a
job runs the same code in a worker as in the parent.  Three rules keep
the workers cheap and picklable:

* jobs that reference a :class:`~repro.harness.tracecache.TraceSpec`
  ship the (small) spec, not the (large) trace, and each worker
  materializes it locally through its runner's trace memo — when a
  shared disk cache is in use the trace is generated once and loaded
  everywhere else;
* compiled entry lists never cross the process boundary: segments strip
  their ``_compile_cache`` when pickled, and each worker compiles the
  regions it runs onto its own copy of the trace;
* all worker entry points are module-level functions.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
    TYPE_CHECKING,
)

from ..sim import SimulationStats
from .runner import JobRunner, SimJob, describe_job
from .tracecache import STATS as TRACECACHE_STATS
from .tracecache import TraceSpec, spec_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.progress import ProgressReporter


class JobFailure(RuntimeError):
    """A worker crashed on an identifiable job.

    Carries a single pre-formatted string (job label + worker traceback)
    so the exception round-trips through pickling between processes.
    """


# Per-worker state, installed by the pool initializer.
_worker_runner: Optional[JobRunner] = None
#: Shared heartbeat mapping (pid -> (job label, monotonic stamp)), or
#: None when progress reporting is off.
_worker_heartbeats = None


def _init_worker(cache_dir, config_overrides=None, heartbeats=None) -> None:
    """Install this worker's runner: the parent's trace cache and config
    overrides, a trace memo of its own, and no tracer (the parent emits
    the per-job span and telemetry from the returned stats and time)."""
    global _worker_runner, _worker_heartbeats
    _worker_runner = JobRunner(
        trace_cache=cache_dir, config_overrides=config_overrides
    )
    _worker_heartbeats = heartbeats


def _beat(label: str) -> None:
    """Stamp this worker's heartbeat (best-effort; never fails a job)."""
    if _worker_heartbeats is None:
        return
    try:
        _worker_heartbeats[os.getpid()] = (label, time.monotonic())
    except Exception:  # Manager gone during shutdown, etc.
        pass


def _stats_delta(before: Dict[str, int]) -> Dict[str, int]:
    """This worker's tracecache counter movement since ``before``.

    Worker processes mutate their *own* copy of
    :data:`repro.harness.tracecache.STATS`, which dies with the process
    — so every worker return value carries the per-call delta and the
    parent folds it back into its counters (otherwise traced ``--jobs N``
    runs under-report disk hits and generations).
    """
    return {
        key: TRACECACHE_STATS[key] - before.get(key, 0)
        for key in TRACECACHE_STATS
    }


def merge_tracecache_stats(delta: Optional[Dict[str, int]]) -> None:
    """Fold a worker's tracecache counter delta into this process."""
    if not delta:
        return
    for key, value in delta.items():
        if value:
            TRACECACHE_STATS[key] = TRACECACHE_STATS.get(key, 0) + value


def _warm_spec(spec: TraceSpec):
    """Materialize one spec into the shared disk cache.

    Returns ``(None, tracecache delta)`` — warm-phase generations count
    toward the parent's disk-cache telemetry too.
    """
    label = f"trace {spec_key(spec)[:8]}"
    _beat(label)
    before = dict(TRACECACHE_STATS)
    try:
        _worker_runner.trace_for(spec)
    except Exception:
        raise JobFailure(
            f"trace generation failed for {label}:\n"
            + traceback.format_exc()
        ) from None
    return None, _stats_delta(before)


def _run_job(job: SimJob):
    """Simulate one job; returns ``(SimulationStats, tracecache delta,
    seconds, derived)``, where ``seconds`` is the wall time ``run_one``
    took and ``derived`` is 1 when the worker answered the job from an
    earlier one (``JobRunner.derived``), else 0."""
    label = describe_job(job)
    _beat(label)
    before = dict(TRACECACHE_STATS)
    derived = _worker_runner.derived
    try:
        start = time.perf_counter()
        stats = _worker_runner.run_one(job)
        return (stats, _stats_delta(before), time.perf_counter() - start,
                _worker_runner.derived - derived)
    except Exception:
        raise JobFailure(
            f"job {label} failed in worker {os.getpid()}:\n"
            + traceback.format_exc()
        ) from None


def _drain(futures, progress: Optional["ProgressReporter"],
           heartbeats) -> Iterator[Tuple[int, object]]:
    """Yield ``(index, result)`` for each future as it completes.

    The first failure cancels every job not yet started; the jobs
    already running still finish and are yielded, then the failure is
    raised.
    """
    index = {future: i for i, future in enumerate(futures)}
    pending = set(futures)
    failure = None
    while pending:
        timeout = None if progress is None else progress.interval
        done, pending = wait(
            pending, timeout=timeout, return_when=FIRST_COMPLETED
        )
        for future in sorted(done, key=index.__getitem__):
            if future.cancelled():
                continue
            exc = future.exception()
            if exc is None:
                yield index[future], future.result()
            elif failure is None:
                failure = exc
                for other in pending:
                    other.cancel()
        if progress is not None:
            progress.set_done(sum(1 for f in futures if f.done()))
            if heartbeats is not None:
                progress.observe_heartbeats(dict(heartbeats))
            progress.maybe_render()
    if failure is not None:
        raise failure


def run_jobs_parallel(
    jobs: Sequence[SimJob],
    n_workers: int,
    trace_cache=None,
    config_overrides=None,
    progress: Optional["ProgressReporter"] = None,
    on_done: Optional[
        Callable[[int, SimulationStats, float, int], None]
    ] = None,
) -> List[SimulationStats]:
    """Run a job list over ``n_workers`` processes, results in job order.

    ``on_done(index, stats, seconds, derived)`` is called in this
    process as each job completes, in completion order; ``seconds`` is
    the wall time the job took in its worker, and ``derived`` is 1 when
    the worker answered it from an earlier job without a simulation.
    """
    jobs = list(jobs)
    n_workers = max(1, min(n_workers, len(jobs)))
    results: List[Optional[SimulationStats]] = [None] * len(jobs)
    manager = None
    heartbeats = None
    if progress is not None:
        import multiprocessing

        manager = multiprocessing.Manager()
        heartbeats = manager.dict()
    pool = ProcessPoolExecutor(
        max_workers=n_workers,
        initializer=_init_worker,
        initargs=(trace_cache, config_overrides, heartbeats),
    )
    interrupted = False
    try:
        if trace_cache is not None:
            # Pre-warm the disk cache so each unique trace is generated
            # exactly once instead of once per worker that needs it.
            unique = {}
            for job in jobs:
                if job.spec is not None:
                    unique.setdefault(spec_key(job.spec), job.spec)
            warm = [
                pool.submit(_warm_spec, spec) for spec in unique.values()
            ]
            for _, (_, delta) in _drain(warm, None, None):
                merge_tracecache_stats(delta)
        futures = [pool.submit(_run_job, job) for job in jobs]
        for i, (stats, delta, seconds, derived) in _drain(
            futures, progress, heartbeats
        ):
            merge_tracecache_stats(delta)
            results[i] = stats
            if on_done is not None:
                on_done(i, stats, seconds, derived)
        return results
    except BrokenProcessPool as exc:
        unfinished = [
            describe_job(job)
            for job, stats in zip(jobs, results) if stats is None
        ]
        raise JobFailure(
            f"a worker process died abruptly ({exc}); "
            f"{len(unfinished)} unfinished job(s): "
            f"{', '.join(unfinished)}.  Rerunning the same command "
            "with the same --result-store resumes from the jobs that "
            "finished."
        ) from exc
    except KeyboardInterrupt:
        # Don't wait for queued jobs on ^C — drop them and let the
        # already-running workers be reaped.  The flag keeps the
        # ``finally`` below from immediately re-waiting on the in-flight
        # jobs (``shutdown(wait=True)`` would block until the running
        # simulations finish, turning ^C on a long sweep into a hang).
        interrupted = True
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        if not interrupted:
            # cancel_futures: if ``on_done`` raised, queued jobs must
            # not run to completion before the error propagates.
            pool.shutdown(wait=True, cancel_futures=True)
        if manager is not None:
            manager.shutdown()
