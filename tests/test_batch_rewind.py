"""Squashes that land inside a compute run (repro.sim.machine).

Three crafted workloads force a violation to land, respectively:
mid-flight inside a long speculative compute run, on an epoch that
opened sub-thread checkpoints along the run, and inside a run that
trained the GShare predictor.  Each case asserts that the squash
happened, that the compiled (chained) dispatch path actually ran, and
that the run's architectural statistics equal the
``compile_traces=False`` run's byte for byte: the compiled path leaves
progress, cycle accounting and predictor state exactly where the
interpreted path does at the squash instant.
"""

import dataclasses
import random

from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.trace.events import (
    EpochTrace,
    ParallelRegion,
    Rec,
    TransactionTrace,
    WorkloadTrace,
)

A = 0x1000_0000
P = 0x2000_0000
PC = 0x40_0000


def workload(segments, name="w"):
    txn = TransactionTrace(name="t", segments=segments)
    return WorkloadTrace(name=name, transactions=[txn])


def region(*epoch_records):
    return ParallelRegion(
        epochs=[
            EpochTrace(epoch_id=i, records=list(recs))
            for i, recs in enumerate(epoch_records)
        ]
    )


def run_pair(wl, mode=ExecutionMode.BASELINE):
    """(compiled stats, interpreted stats) for the same workload."""
    config = MachineConfig.for_mode(mode)
    compiled = Machine(config).run(wl)
    interpreted = Machine(
        dataclasses.replace(config, compile_traces=False)
    ).run(wl)
    return compiled, interpreted


class TestMidBatchConflictWindow:
    """Violation arrives while the victim is in the middle of a long
    speculative compute run."""

    def _workload(self):
        # e0 stores the shared line after ~225 cycles of compute; e1
        # speculatively loads it first thing and then runs a long
        # all-compute stretch, so the violation lands mid-run.
        e0 = [(Rec.COMPUTE, 900), (Rec.STORE, A, 4, PC)]
        e1 = [(Rec.LOAD, A, 4, PC + 16)] + [(Rec.COMPUTE, 40)] * 60
        return workload([region(e0, e1)])

    def test_squash_mid_batch_matches_interpreted(self):
        compiled, interpreted = run_pair(
            self._workload(), ExecutionMode.NO_SUBTHREAD
        )
        assert compiled.primary_violations == 1
        assert compiled.compiled_fastpath_loads > 0
        assert compiled == interpreted
        assert compiled.total_cycles == interpreted.total_cycles


class TestCheckpointBoundarySquash:
    """Squash of an epoch that opened sub-thread checkpoints along its
    compute runs; the rewind lands on a checkpoint inside the run."""

    def _workload(self):
        # e1: an early speculative load of the shared line, then a long
        # loop of compute batches separated by private-line loads, long
        # enough to cross several sub-thread checkpoints before e0's
        # store (after ~500 cycles) squashes it.
        body = [(Rec.LOAD, A, 4, PC + 8)]
        for i in range(30):
            body += [(Rec.COMPUTE, 40)] * 3
            body.append((Rec.LOAD, P + 64 * i, 4, PC + 16))
        e0 = [(Rec.COMPUTE, 2000), (Rec.STORE, A, 4, PC)]
        return workload([region(e0, body)])

    def test_squash_with_subthreads_matches_interpreted(self):
        compiled, interpreted = run_pair(
            self._workload(), ExecutionMode.BASELINE
        )
        assert compiled.primary_violations >= 1
        assert compiled.subthreads_started >= 1
        assert compiled.compiled_fastpath_loads > 0
        assert compiled == interpreted
        assert compiled.total_cycles == interpreted.total_cycles
        # The rewind went to a sub-thread checkpoint, not epoch start:
        # sub-threads tolerate the dependence (paper Section 3).
        assert interpreted.subthreads_started == compiled.subthreads_started


class TestPredictorJournalSquash:
    """Squash of a compute run that trained the GShare predictor: the
    compiled run must leave the predictor entries and misprediction
    counts where the interpreted run does."""

    def _workload(self):
        rng = random.Random(7)
        e1 = [(Rec.LOAD, A, 4, PC + 16)]
        for i in range(40):
            e1.append((Rec.COMPUTE, 20))
            e1.append((Rec.BRANCH, PC + 64 + 4 * (i % 5), rng.random() < 0.5))
        e0 = [(Rec.COMPUTE, 600), (Rec.STORE, A, 4, PC)]
        return workload([region(e0, e1)])

    def test_predictor_state_restored(self):
        compiled, interpreted = run_pair(
            self._workload(), ExecutionMode.NO_SUBTHREAD
        )
        assert compiled.primary_violations == 1
        assert compiled.compiled_fastpath_loads > 0
        assert compiled == interpreted
        assert (
            compiled.branch_mispredictions
            == interpreted.branch_mispredictions
        )
        assert compiled.total_cycles == interpreted.total_cycles
