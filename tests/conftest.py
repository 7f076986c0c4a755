"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import os

import pytest
from hypothesis import settings

from repro.harness.tracecache import ENV_CACHE_DIR
from repro.memory.cache import CacheGeometry
from repro.memory.l2 import ContextDirectory, SpeculativeL2
from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.tpcc import TPCCScale, generate_workload
from repro.trace import TraceRecorder, default_costs
from repro.trace.events import (
    EpochTrace,
    ParallelRegion,
    Rec,
    TransactionTrace,
    WorkloadTrace,
)

# Hypothesis profiles: "ci" turns the example count up and disables the
# per-example deadline (shared CI runners are jittery); select with
# HYPOTHESIS_PROFILE=ci.  Tests that pin max_examples via @settings keep
# their own value either way.
settings.register_profile("ci", max_examples=200, deadline=None)
settings.register_profile("dev", settings.get_profile("default"))
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current simulator "
        "output instead of comparing against it",
    )


@pytest.fixture(scope="session", autouse=True)
def trace_cache_dir(tmp_path_factory):
    """The default trace cache of every test: a per-session directory.

    A harness run without ``--trace-cache`` or ``--no-trace-cache``
    uses ``$REPRO_TRACE_CACHE``, else ``~/.cache/repro-traces``; pointing
    the variable here keeps the suite off the user's cache.
    """
    path = tmp_path_factory.mktemp("trace-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(ENV_CACHE_DIR, str(path))
        yield path


class DictDirectory(ContextDirectory):
    """A ContextDirectory filled by hand (for L2 unit tests)."""

    def bind(self, ctx: int, order: int, subidx: int = 0):
        self.order[ctx] = order
        self.subidx[ctx] = subidx
        return ctx


#: Base PC of the crafted memory-access passes below.
PC = 0x40_0000


def one_txn_workload(segments, name="w"):
    """A workload of one transaction over the given segments."""
    txn = TransactionTrace(name="t", segments=segments)
    return WorkloadTrace(name=name, transactions=[txn])


def region_of(*epoch_records):
    """A parallel region with one epoch per record list."""
    return ParallelRegion(
        epochs=[
            EpochTrace(epoch_id=i, records=list(recs))
            for i, recs in enumerate(epoch_records)
        ]
    )


def crashing_workload():
    """A trace whose replay raises (unknown record kind)."""
    return one_txn_workload([region_of([(99, 0)])], name="bad")


def load_pass(base, n, stride=32, pc=PC):
    """``n`` single-line loads, one per ``stride``-spaced line."""
    return [(Rec.LOAD, base + stride * i, 4, pc + 8 * i) for i in range(n)]


def store_pass(base, n, stride=32, pc=PC):
    """``n`` single-line stores, one per ``stride``-spaced line."""
    return [(Rec.STORE, base + stride * i, 4, pc + 8 * i) for i in range(n)]


def run_compiled_and_interpreted(wl, mode=ExecutionMode.BASELINE,
                                 **overrides):
    """(compiled stats, interpreted stats, compiled machine).

    The compiled machine is returned for post-run structural checks
    (L1 tag mirrors, L2 line-version index).
    """
    config = MachineConfig.for_mode(mode)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    machine = Machine(config)
    compiled = machine.run(wl)
    interpreted = Machine(
        dataclasses.replace(config, compile_traces=False)
    ).run(wl)
    return compiled, interpreted, machine


def check_cache_structures(machine):
    """Assert every L1 tag mirror and the L2 version index are exact."""
    for cpu in machine.cpus:
        cpu.l1.check_mirrors()
    machine.l2.check_invariants()


@pytest.fixture
def directory():
    return DictDirectory()


@pytest.fixture
def small_l2(directory):
    """A small speculative L2 (256 sets won't matter; tiny for eviction
    tests use their own geometry)."""
    geom = CacheGeometry(size_bytes=32 * 1024, assoc=4, line_size=32)
    return SpeculativeL2(geom, directory, victim_entries=8)


@pytest.fixture
def recorder():
    return TraceRecorder(costs=default_costs())


@pytest.fixture(scope="session")
def tiny_scale():
    return TPCCScale.tiny()


@pytest.fixture(scope="session")
def tiny_new_order():
    """A cached tiny NEW ORDER workload (TLS mode)."""
    return generate_workload(
        "new_order", tls_mode=True, n_transactions=2,
        scale=TPCCScale.tiny(),
    )


@pytest.fixture(scope="session")
def tiny_new_order_seq():
    return generate_workload(
        "new_order", tls_mode=False, n_transactions=2,
        scale=TPCCScale.tiny(),
    )
