"""Wall-clock speed benchmark for the experiment harness.

Times three things and writes them to ``results/perf.json`` so the
performance trajectory is tracked across PRs:

1. **Serial harness time** — Figure 5 + Figure 6 with ``jobs=1``.
2. **Parallel harness time** — the same sweep with ``--jobs N``
   (default: all CPUs), which must produce bit-identical results.
   Each timed sweep runs on a fresh ``JobRunner`` whose result memo is
   empty, so it simulates every job.
3. **Inner-loop throughput** — trace records simulated per second by
   ``Machine.run`` on a pre-generated TLS workload under the default
   ``MachineConfig`` (the Figure-5 TLS sub-thread, i.e. baseline,
   mode), timed two ways: compiled (chained dispatch, the default) and
   fully interpreted (``compile_traces=False``).  The variants are
   interleaved per repetition so thermal/frequency drift cannot skew
   the ratio.  Both throughputs land in the trajectory entry;
   ``--spec-min-vs-interpreted`` turns the compiled-vs-interpreted
   ratio into a CI gate.

One run of the inner-loop workload lasts only ~15 ms, too short to time
with a small spread, so each sample runs the trace back to back until
it lasts at least 0.2 s.  The run count is picked once per variant,
after warmup, the way ``timeit.Timer.autorange`` does, and each sample
reports seconds per run.  Every timed scenario reports best-of-N (the
headline and gate input) plus the median and records/second stdev of
the repetitions, and
``--json`` echoes the whole perf document to stdout.  Trajectory
appends are checked with ``repro.obs.lint`` before the script exits.

Unlike the pytest-benchmark files next to it this is a plain script
(it writes an artifact, not a benchmark table):

    PYTHONPATH=src python benchmarks/bench_speed.py --tiny

Traces are pre-generated by an untimed warm sweep, which also writes
them to a temporary trace cache, before the timed harness runs.  The
timed sweeps then measure simulation fan-out, not workload generation;
under ``--jobs N`` the workers load their traces from that cache.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import tempfile
import time
import timeit

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.harness import ExperimentContext, JobRunner  # noqa: E402
from repro.harness.export import result_to_dict  # noqa: E402
from repro.obs import (  # noqa: E402
    atomic_write_json,
    build_manifest,
    finish_manifest,
    lint,
)
from repro.harness.figure5 import run_figure5  # noqa: E402
from repro.harness.figure6 import run_figure6  # noqa: E402
from repro.harness.tracecache import TraceSpec, materialize, spec_key  # noqa: E402
from repro.sim import ExecutionMode, Machine, MachineConfig  # noqa: E402
from repro.tpcc import TPCCScale  # noqa: E402
from repro.trace.events import (  # noqa: E402
    ParallelRegion,
    SerialSegment,
    WorkloadTrace,
)


def count_records(trace: WorkloadTrace) -> int:
    total = 0
    for txn in trace.transactions:
        for segment in txn.segments:
            if isinstance(segment, SerialSegment):
                total += len(segment.records)
            elif isinstance(segment, ParallelRegion):
                total += sum(len(e.records) for e in segment.epochs)
    return total


def make_context(args, runner: JobRunner) -> ExperimentContext:
    scale = TPCCScale.tiny() if args.tiny else None
    return ExperimentContext(
        n_transactions=args.transactions, seed=args.seed, scale=scale,
        runner=runner,
    )


def run_sweep(ctx: ExperimentContext):
    return run_figure5(ctx), run_figure6(ctx)


def time_harness(args, warm: JobRunner, jobs: int, spec_keys: set):
    """Time one figure5+figure6 sweep with the given fan-out.

    The sweep runs on a fresh runner seeded with the traces of the
    untimed ``warm`` runner.  Its result memo is empty, so every job is
    simulated rather than answered from a memo.  Every trace the runner
    touches is recorded into ``spec_keys`` so the manifest's
    ``trace_spec_keys`` provenance survives the bench bypassing the
    harness CLI.
    """
    runner = JobRunner(jobs=jobs, trace_cache=warm.trace_cache)
    runner._memo.update(warm._memo)
    ctx = make_context(args, runner)
    t0 = time.perf_counter()
    results = run_sweep(ctx)
    elapsed = time.perf_counter() - t0
    spec_keys.update(runner.trace_spec_keys())
    return elapsed, results


def runs_per_sample(config: MachineConfig, trace: WorkloadTrace) -> int:
    """Back-to-back runs that make one timing sample last >= 0.2 s.

    ``timeit.Timer.autorange`` tries 1, 2, 5, 10, 20, 50, ... runs until
    their total reaches 0.2 s.  Call it after warmup, so one-time costs
    do not shrink the count.
    """
    number, _ = timeit.Timer(lambda: Machine(config).run(trace)).autorange()
    return number


def time_sample(config: MachineConfig, trace: WorkloadTrace,
                runs: int) -> float:
    """Seconds per ``Machine.run``, averaged over ``runs`` runs.

    Each run gets a fresh Machine, built outside the timed region.
    """
    total = 0.0
    for _ in range(runs):
        machine = Machine(config)
        t0 = time.perf_counter()
        machine.run(trace)
        total += time.perf_counter() - t0
    return total / runs


def time_inner_loop(args):
    """Per-repetition seconds of one Machine.run, compiled vs interpreted.

    Returns ``(records, samples)`` where ``samples`` maps ``compiled``
    (the default: chained compiled dispatch) and ``interpreted`` to
    per-repetition seconds lists; use :func:`summarize` for
    best/median/stdev.  ``--warmup`` interleaved repetitions run first
    and are excluded from the samples: the first run pays one-time
    costs (trace compilation into the process-wide memo, branch-
    predictor warm allocation) that are not inner-loop throughput.
    Each sample averages enough back-to-back runs to last at least
    0.2 s (:func:`runs_per_sample`), and the variants run interleaved
    inside each repetition so slow drift of the host clock speed hits
    both equally.
    """
    trace = materialize(_bench_spec(args), cache_dir=None)
    records = count_records(trace)
    variants = {
        "compiled": MachineConfig(),
        "interpreted": MachineConfig(compile_traces=False),
    }
    for _ in range(max(0, args.warmup)):
        for config in variants.values():
            Machine(config).run(trace)
    runs = {
        name: runs_per_sample(config, trace)
        for name, config in variants.items()
    }
    samples = {name: [] for name in variants}
    for _ in range(max(1, args.repeat)):
        for name, config in variants.items():
            samples[name].append(time_sample(config, trace, runs[name]))
    return records, samples


def summarize(records: int, samples) -> dict:
    """Best-of/median/stdev throughput summary of timing ``samples``.

    Best-of-N stays the headline number (and the regression-gate
    input): it is the least noise-contaminated estimate of the true
    cost on a busy runner.  Median and the records/second stdev ride
    along so the trajectory records how noisy each measurement was —
    a regression with stdev near the delta is runner noise, one with
    tight samples is real.
    """
    rps = [records / s for s in samples if s > 0]
    best = min(samples)
    return {
        "seconds": round(best, 5),
        "median_seconds": round(statistics.median(samples), 5),
        "records_per_second": round(max(rps), 1) if rps else 0.0,
        "median_records_per_second": round(
            statistics.median(rps), 1
        ) if rps else 0.0,
        "stdev_records_per_second": round(
            statistics.pstdev(rps), 1
        ) if rps else 0.0,
    }


def _bench_spec(args) -> TraceSpec:
    return TraceSpec(
        benchmark="new_order",
        tls_mode=True,
        n_transactions=args.transactions,
        seed=args.seed,
        scale=TPCCScale.tiny() if args.tiny else None,
    )


def runner_class() -> str:
    """Coarse machine identity for the BENCH_speed.json trajectory.

    Throughput is only comparable between runs on the same kind of
    machine, so trajectory regression checks are scoped to this key.
    """
    return (
        f"{platform.system()}-{platform.machine()}"
        f"-cpu{os.cpu_count() or 1}"
    )


def append_trajectory(path: pathlib.Path, entries, min_ratio: float) -> int:
    """Append ``entries`` to the append-only trajectory file.

    The regression gate is per scenario: each new entry is compared
    against the most recent previous entry with the same runner class,
    scale, ``scenario`` and ``records`` (a different input size is a
    different measurement, not a regression).  Returns 1 when any
    scenario's records/second fell below ``min_ratio`` times its
    previous entry, else 0.  The file is never rewritten — entries only accumulate,
    preserving the full performance history.
    """
    history = []
    if path.exists():
        with open(path) as fh:
            history = json.load(fh)
    status = 0
    for entry in entries:
        scenario = entry["scenario"]
        previous = None
        for old in reversed(history):
            if (
                old.get("runner") == entry["runner"]
                and old.get("scale") == entry["scale"]
                and old.get("scenario") == scenario
                and old.get("records") == entry["records"]
            ):
                previous = old
                break
        if previous:
            prev_rps = previous.get("records_per_second") or 0.0
            ratio = (
                entry["records_per_second"] / prev_rps if prev_rps else None
            )
            if ratio is not None:
                entry["ratio_to_previous"] = round(ratio, 3)
                if ratio < min_ratio:
                    print(
                        f"ERROR: {scenario} throughput regressed to "
                        f"{ratio:.2f}x of the previous entry on "
                        f"{entry['runner']} (threshold {min_ratio}x)",
                        file=sys.stderr,
                    )
                    status = 1
        history.append(entry)
    atomic_write_json(path, history)
    print(f"appended to {path} ({len(history)} entries)")
    issues = lint(path, kind="trajectory")
    if issues:
        print(
            f"ERROR: {path} fails the trajectory schema lint:",
            file=sys.stderr,
        )
        for issue in issues[:20]:
            print(f"  {issue}", file=sys.stderr)
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transactions", type=int, default=2)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tiny", action="store_true",
                        help="use the tiny TPC-C scale")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="parallel worker count (0 = all CPUs)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="inner-loop timing repetitions (best-of)")
    parser.add_argument(
        "--warmup", type=int, default=1, metavar="N",
        help=("untimed repetitions before each best-of measurement "
              "(default 1; they absorb one-time compile/allocation "
              "costs so the best-of measures steady state)"),
    )
    parser.add_argument(
        "--json", action="store_true",
        help=("print the full perf document as JSON to stdout after "
              "the human-readable summary (machine-readable output "
              "for tooling that does not want to read --out)"),
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "results" / "perf.json",
    )
    parser.add_argument(
        "--trajectory", type=pathlib.Path, default=None, metavar="FILE",
        help=("append the inner-loop result to this append-only JSON "
              "trajectory and fail if it regressed below --min-ratio of "
              "the previous entry on the same runner class"),
    )
    parser.add_argument(
        "--min-ratio", type=float, default=0.7,
        help=("trajectory regression threshold relative to the previous "
              "same-runner same-scenario entry (default 0.7)"),
    )
    parser.add_argument(
        "--spec-min-vs-interpreted", type=float, default=None,
        metavar="RATIO",
        help=("fail unless the inner loop's compiled throughput is at "
              "least RATIO times its interpreted throughput measured in "
              "the same run (CI gate; off by default)"),
    )
    args = parser.parse_args(argv)

    real_stdout = sys.stdout
    if args.json:
        # All human-readable progress moves to stderr so stdout
        # carries exactly one JSON document.
        sys.stdout = sys.stderr

    n_cpus = os.cpu_count() or 1
    jobs = args.jobs if args.jobs > 0 else n_cpus
    bench_t0 = time.perf_counter()
    manifest = build_manifest(
        command=["python", "benchmarks/bench_speed.py"]
        + (list(argv) if argv is not None else sys.argv[1:]),
        config={
            "transactions": args.transactions,
            "seed": args.seed,
            "scale": "tiny" if args.tiny else "default",
            "jobs": jobs,
            "repeat": args.repeat,
            "warmup": args.warmup,
        },
        seed=args.seed,
    )
    # Content-hash keys of every trace the bench touches (harness
    # sweeps and the direct materialize calls); threaded into every
    # manifest this run writes.
    spec_keys: set = {spec_key(_bench_spec(args))}

    trace_dir = tempfile.TemporaryDirectory(prefix="bench-traces-")
    print("warming traces (untimed figure5+figure6 sweep) ...")
    warm = JobRunner(jobs=1, trace_cache=trace_dir.name)
    run_sweep(make_context(args, warm))

    print("timing serial harness (figure5+figure6, jobs=1) ...")
    serial_s, serial_results = time_harness(
        args, warm, jobs=1, spec_keys=spec_keys
    )
    print(f"  {serial_s:.2f}s")

    if jobs > 1:
        print(f"timing parallel harness (jobs={jobs}) ...")
        parallel_s, parallel_results = time_harness(
            args, warm, jobs=jobs, spec_keys=spec_keys
        )
        print(f"  {parallel_s:.2f}s")
        identical = (
            result_to_dict(serial_results)
            == result_to_dict(parallel_results)
        )
        if not identical:
            print("ERROR: parallel results differ from serial",
                  file=sys.stderr)
        harness = {
            "serial_seconds": round(serial_s, 3),
            "parallel_seconds": round(parallel_s, 3),
            "speedup": round(serial_s / parallel_s, 3)
            if parallel_s > 0 else None,
            "results_identical": identical,
        }
    else:
        # One worker cannot demonstrate a parallel speedup; recording a
        # process-pool "slowdown" here would just be measuring overhead.
        print("single-CPU machine: skipping parallel harness comparison")
        identical = True
        harness = {
            "serial_seconds": round(serial_s, 3),
            "parallel_comparison": "skipped_single_core",
        }
    trace_dir.cleanup()

    print("timing simulator inner loop (TLS sub-thread mode, "
          "compiled / interpreted) ...")
    records, samples = time_inner_loop(args)
    inner = {
        name: summarize(records, runs) for name, runs in samples.items()
    }
    rps = {name: summary["records_per_second"]
           for name, summary in inner.items()}
    ratio_vs_interp = (
        rps["compiled"] / rps["interpreted"] if rps["interpreted"] else None
    )
    for name in ("compiled", "interpreted"):
        print(f"  {name:<11} {records} records in "
              f"{inner[name]['seconds']:.4f}s "
              f"({rps[name]:,.0f} records/s, median "
              f"{inner[name]['median_records_per_second']:,.0f} "
              f"± {inner[name]['stdev_records_per_second']:,.0f})")
    print(f"  compiled/interpreted {ratio_vs_interp:.2f}x")
    inner_loop = dict(inner["compiled"])
    inner_loop.update({
        "mode": ExecutionMode.BASELINE,
        "records": records,
        "interpreted_seconds": inner["interpreted"]["seconds"],
        "interpreted_records_per_second": rps["interpreted"],
        "ratio_vs_interpreted": round(ratio_vs_interp, 3)
        if ratio_vs_interp else None,
    })
    spec_gate_ok = True
    if args.spec_min_vs_interpreted is not None:
        if (ratio_vs_interp or 0.0) < args.spec_min_vs_interpreted:
            print(
                f"ERROR: compiled inner loop is only "
                f"{ratio_vs_interp:.2f}x the interpreted baseline "
                f"(threshold {args.spec_min_vs_interpreted}x)",
                file=sys.stderr,
            )
            spec_gate_ok = False

    perf = {
        "config": {
            "transactions": args.transactions,
            "seed": args.seed,
            "scale": "tiny" if args.tiny else "default",
            "jobs": jobs,
            "cpu_count": n_cpus,
            "python": platform.python_version(),
        },
        "harness": harness,
        "inner_loop": inner_loop,
        "manifest": finish_manifest(
            manifest, time.perf_counter() - bench_t0,
            trace_spec_keys=sorted(spec_keys),
        ),
    }
    atomic_write_json(args.out, perf)
    print(f"wrote {args.out}")
    if args.json:
        print(
            json.dumps(perf, indent=1, sort_keys=True),
            file=real_stdout,
        )

    status = 0 if (identical and spec_gate_ok) else 1
    if args.trajectory is not None:
        final_manifest = finish_manifest(
            manifest, time.perf_counter() - bench_t0,
            trace_spec_keys=sorted(spec_keys),
        )
        entry = {
            "scenario": "inner_loop",
            "runner": runner_class(),
            "scale": perf["config"]["scale"],
            "python": platform.python_version(),
            "manifest": final_manifest,
        }
        entry.update({key: inner_loop[key] for key in (
            "mode", "records", "records_per_second",
            "median_records_per_second", "stdev_records_per_second",
            "interpreted_records_per_second", "ratio_vs_interpreted",
        )})
        status = max(
            status,
            append_trajectory(args.trajectory, [entry], args.min_ratio),
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
