"""Extension experiment E10: when to use TLS (Section 3.3).

The paper: "To optimize complete system performance, the DBMS must
decide when to use TLS.  If CPUs are otherwise idle ... then the idle
CPUs can be used for TLS.  When more transactions are available to be
run than CPUs are available then TLS should be applied less
aggressively."

We reproduce this guidance quantitatively with a queueing study on top
of *measured* per-transaction durations from the simulator:

* ``tls`` duration — one transaction on all 4 CPUs under BASELINE TLS;
* ``single`` duration — the TLS-SEQ time (one CPU, the others free for
  other transactions).

A deterministic arrival stream is then played against three scheduling
policies on a 4-CPU box:

* **always-tls** — transactions run one at a time, each using all CPUs;
* **never-tls** — up to 4 transactions run concurrently, one CPU each;
* **adaptive** (the paper's recommendation) — use TLS when the queue is
  empty (idle CPUs exist), fall back to one-CPU concurrency under load.

Reported: mean latency and makespan per policy at a low and a high
offered load.  Expected shape: always-tls wins on latency at low load,
never-tls wins on throughput at saturation, and adaptive tracks the
better of the two at each extreme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim import ExecutionMode, MachineConfig
from ..trace.events import WorkloadTrace
from .report import render_table
from .runner import ExperimentContext, SimJob, mode_trace

N_CPUS = 4


def measure_durations(
    ctx: ExperimentContext, benchmark: str
) -> List[Tuple[float, float]]:
    """Per-transaction (tls_duration, single_cpu_duration) in cycles."""
    trace = mode_trace(ctx, benchmark, ExecutionMode.BASELINE)
    jobs = []
    for txn in trace.transactions:
        single_txn = WorkloadTrace(name="one", transactions=[txn])
        jobs.append(SimJob(
            config=MachineConfig.for_mode(ExecutionMode.BASELINE),
            trace=single_txn,
        ))
        jobs.append(SimJob(
            config=MachineConfig.for_mode(ExecutionMode.TLS_SEQ),
            trace=single_txn,
        ))
    stats_list = ctx.run(jobs)
    return [
        (stats_list[i].total_cycles, stats_list[i + 1].total_cycles)
        for i in range(0, len(stats_list), 2)
    ]


@dataclass
class PolicyOutcome:
    policy: str
    load_label: str
    mean_latency: float
    makespan: float


@dataclass
class WhenToUseResult:
    benchmark: str
    outcomes: List[PolicyOutcome] = field(default_factory=list)

    def outcome(self, policy: str, load_label: str) -> PolicyOutcome:
        for o in self.outcomes:
            if o.policy == policy and o.load_label == load_label:
                return o
        raise KeyError((policy, load_label))

    def render(self) -> str:
        return render_table(
            ["policy", "load", "mean latency", "makespan"],
            [
                [o.policy, o.load_label, o.mean_latency, o.makespan]
                for o in self.outcomes
            ],
            title=f"E10 — when to use TLS ({self.benchmark})",
            float_fmt="{:.0f}",
        )


def _simulate_policy(
    policy: str,
    arrivals: Sequence[float],
    durations: Sequence[Tuple[float, float]],
) -> Tuple[float, float]:
    """Event-driven queueing simulation; returns (mean latency, makespan).

    ``always``: jobs serialize, each occupying the whole machine for its
    TLS duration.  ``never``: 4 single-CPU servers.  ``adaptive``: a job
    that arrives to an *empty* system runs under TLS (whole machine);
    otherwise it takes one CPU.
    """
    free_at = [0.0] * N_CPUS  # per-CPU next-free time
    finish_times: List[float] = []
    latencies: List[float] = []
    for (arrive, (tls_dur, single_dur)) in zip(arrivals, durations):
        if policy == "always-tls":
            start = max(arrive, max(free_at))
            end = start + tls_dur
            for i in range(N_CPUS):
                free_at[i] = end
        elif policy == "never-tls":
            idx = min(range(N_CPUS), key=lambda i: free_at[i])
            start = max(arrive, free_at[idx])
            end = start + single_dur
            free_at[idx] = start + single_dur
        elif policy == "adaptive":
            if all(f <= arrive for f in free_at):
                start = arrive
                end = start + tls_dur
                for i in range(N_CPUS):
                    free_at[i] = end
            else:
                idx = min(range(N_CPUS), key=lambda i: free_at[i])
                start = max(arrive, free_at[idx])
                end = start + single_dur
                free_at[idx] = end
        else:
            raise ValueError(f"unknown policy {policy!r}")
        finish_times.append(end)
        latencies.append(end - arrive)
    makespan = max(finish_times) - arrivals[0] if finish_times else 0.0
    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
    return mean_latency, makespan


def run_when_to_use(
    ctx: Optional[ExperimentContext] = None,
    benchmark: str = "new_order",
    n_jobs: int = 24,
) -> WhenToUseResult:
    ctx = ctx or ExperimentContext()
    measured = measure_durations(ctx, benchmark)
    # Repeat the measured transactions to fill the job list.
    durations = [measured[i % len(measured)] for i in range(n_jobs)]
    mean_tls = sum(d[0] for d in durations) / len(durations)
    result = WhenToUseResult(benchmark=benchmark)
    loads: Dict[str, float] = {
        # Inter-arrival >> service time: the system is usually idle.
        "low (idle CPUs)": 3.0 * mean_tls,
        # Arrivals faster than even TLS service: a queue builds.
        "high (saturated)": 0.3 * mean_tls,
    }
    for load_label, gap in loads.items():
        arrivals = [i * gap for i in range(n_jobs)]
        for policy in ("always-tls", "never-tls", "adaptive"):
            latency, makespan = _simulate_policy(
                policy, arrivals, durations
            )
            result.outcomes.append(
                PolicyOutcome(
                    policy=policy,
                    load_label=load_label,
                    mean_latency=latency,
                    makespan=makespan,
                )
            )
    return result
