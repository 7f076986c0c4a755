"""Functional warming (``Machine.functional_warm``) against its reference.

The warm loop runs every access through the committed single-line
paths (``L1Cache`` LRU touched in place, ``SpeculativeL2.load_line`` /
``store_line`` per line touched).  ``reference_warm`` below is the
generic loop it replaced: ``lines_touched`` + ``L1Cache.access`` per
line and one ``SpeculativeL2.load`` / ``store`` per access.  Both must
leave the same warmed state behind, structure by structure, and a
following measured ``run()`` must report the same statistics.  Warm-phase
hit/miss tallies may differ (``_collect_stats`` subtracts them).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.trace.events import ParallelRegion, Rec, SerialSegment
from repro.verify.fuzz import PROFILES, random_machine_config, \
    random_workload

from conftest import check_cache_structures, one_txn_workload, region_of

#: Draws per fuzz profile.
DRAWS = 100

PC = 0x40_0000


def reference_warm(machine, workload):
    """The generic functional-warming loop, kept as the reference."""
    self = machine
    width = self._region_width()
    l2 = self.l2
    lines_touched = l2.geom.lines_touched
    for txn in workload.transactions:
        for segment in txn.segments:
            if isinstance(segment, SerialSegment):
                assignments = [(0, segment.records)]
            elif isinstance(segment, ParallelRegion):
                assignments = [
                    (i % width, e.records)
                    for i, e in enumerate(segment.epochs)
                ]
            else:
                raise TypeError(f"unknown segment {segment!r}")
            for cpu_idx, records in assignments:
                cpu = self.cpus[cpu_idx]
                l1 = cpu.l1
                predictor = cpu.pipeline.predictor
                others = self._other_l1s[cpu_idx]
                for rec in records:
                    kind = rec[0]
                    if kind == Rec.LOAD:
                        addr, size = rec[1], rec[2]
                        for tag in lines_touched(addr, size):
                            if not l1.access(tag):
                                l1.fill(tag, spec=False)
                        result = l2.load(addr, size, -1, None, False)
                        self._apply_inclusion(result.invalidated_lines)
                    elif kind == Rec.STORE:
                        addr, size = rec[1], rec[2]
                        for tag in lines_touched(addr, size):
                            if not l1.access(tag):
                                l1.fill(tag, spec=False)
                            for other in others:
                                other.invalidate(tag)
                        result = l2.store(addr, size, -1, None)
                        self._apply_inclusion(result.invalidated_lines)
                    elif kind == Rec.BRANCH:
                        predictor.predict_and_update(rec[1], rec[2])
    self._warm_metrics = self.metrics()


def warm_state(machine):
    """Every piece of state warming can touch, as plain comparable data.

    Sets left empty by invalidations are skipped: an empty set and an
    unallocated one are the same cache state.
    """
    l1s = []
    for cpu in machine.cpus:
        sets = {}
        for idx, cset in cpu.l1._sets.items():
            if cset._order:
                sets[idx] = [
                    (tag, line.spec, line.notified, line.subidx)
                    for tag in cset._order
                    for line in (cset._by_tag[tag],)
                ]
        l1s.append(sets)
    l2 = machine.l2

    def entry(e):
        return (e.tag, e.owner, e.dirty, e.in_victim)

    l2_sets = {
        idx: [entry(e) for e in cset._entries]
        for idx, cset in l2._sets.items() if cset._entries
    }
    victim = [entry(e) for e in l2.victim._entries]
    versions = {
        tag: [entry(e) for e in lst]
        for tag, lst in l2._line_versions.items()
    }
    predictors = [
        (bytes(p._counters), p._history, p.predictions, p.mispredictions)
        for p in (cpu.pipeline.predictor for cpu in machine.cpus)
    ]
    return {
        "l1": l1s, "l2_sets": l2_sets, "victim": victim,
        "line_versions": versions, "predictors": predictors,
    }


def assert_warm_matches(config, workload):
    """Warm two machines both ways on ``workload``, compare their state,
    then measure ``workload`` again on both."""
    new = Machine(config)
    new.functional_warm(workload)
    ref = Machine(config)
    reference_warm(ref, workload)
    check_cache_structures(new)
    got, want = warm_state(new), warm_state(ref)
    for key in want:
        assert got[key] == want[key], f"warmed {key} differs"
    assert new.run(workload) == ref.run(workload)


@pytest.mark.parametrize("profile", PROFILES)
def test_fuzz_draws_match_reference(profile):
    for draw in range(DRAWS):
        rng = random.Random(f"warm:{profile}:{draw}")
        workload = random_workload(
            rng, profile=profile, n_transactions=rng.randint(1, 6)
        )
        base = random_machine_config(rng, profile=profile)
        config = MachineConfig.for_mode(
            rng.choice(ExecutionMode.ALL), base=base
        )
        assert_warm_matches(config, workload)


def crafted_workload():
    """Loads and stores over a few lines from two CPUs, including a
    line-straddling load and store (32-byte lines)."""
    base = 0x1000
    serial = SerialSegment(records=[
        (Rec.LOAD, base + 28, 8, PC),       # straddles two lines
        (Rec.STORE, base + 60, 8, PC + 4),  # straddles two lines
        (Rec.BRANCH, PC + 8, True),
        (Rec.LOAD, base, 4, PC + 12),
    ])
    region = region_of(
        [(Rec.LOAD, base + 32 * i, 4, PC + 16) for i in range(6)]
        + [(Rec.STORE, base + 30, 4, PC + 20),
           (Rec.BRANCH, PC + 24, False)],
        [(Rec.LOAD, base + 64 * i, 4, PC + 28) for i in range(6)]
        + [(Rec.STORE, base + 94, 6, PC + 32),
           (Rec.LOAD, base + 28, 8, PC + 36)],
        [(Rec.LOAD, base + 62, 4, PC + 40),
         (Rec.BRANCH, PC + 44, True)],
    )
    return one_txn_workload([serial, region, serial])


SMALL = dict(n_cpus=2, line_size=32, l1_size=4 * 32, l1_assoc=2)


@pytest.mark.parametrize("overrides", [
    pytest.param({}, id="straddling"),
    pytest.param(dict(l2_size=2 * 32, l2_assoc=1), id="l2-1way-2set"),
    pytest.param(dict(l2_size=4 * 32, l2_assoc=2, victim_entries=0),
                 id="victim0"),
    pytest.param(dict(region_cpus=1), id="region-cpus-1"),
])
def test_crafted_cases_match_reference(overrides):
    config = dataclasses.replace(
        MachineConfig.for_mode(ExecutionMode.BASELINE),
        **{**SMALL, **overrides},
    )
    assert_warm_matches(config, crafted_workload())


def test_straddling_access_warms_both_lines():
    config = dataclasses.replace(
        MachineConfig.for_mode(ExecutionMode.BASELINE), **SMALL
    )
    machine = Machine(config)
    machine.functional_warm(one_txn_workload([SerialSegment(records=[
        (Rec.LOAD, 0x1000 + 28, 8, PC),
        (Rec.STORE, 0x2000 + 60, 8, PC),
    ])]))
    for tag in (0x1000, 0x1020, 0x2020, 0x2040):
        assert tag in machine.cpus[0].l1.resident
        assert [e.owner for e in machine.l2._line_versions[tag]] == [-1]
    assert machine.l2._line_versions[0x2040][0].dirty


def test_warming_applies_l2_inclusion():
    """Warming applies L2-eviction inclusion, as the timed path does.

    With a 2-set 1-way L2, loading 0x40 evicts 0x0 from the L2 (same
    set), so the L1 must drop its copy of 0x0 too
    (``Machine._apply_inclusion``).
    """
    config = dataclasses.replace(
        MachineConfig.for_mode(ExecutionMode.BASELINE),
        **{**SMALL, "l2_size": 2 * 32, "l2_assoc": 1},
    )
    machine = Machine(config)
    machine.functional_warm(one_txn_workload([SerialSegment(records=[
        (Rec.LOAD, 0x0, 4, PC),
        (Rec.LOAD, 0x40, 4, PC),
    ])]))
    assert 0x0 not in machine.cpus[0].l1.resident
    assert 0x0 not in machine.l2._line_versions
