"""Byte pins of generated traces.

Trace generation is deterministic, and the trace cache, every result
file and every e2e artifact hash rest on that: a generator change that
moves one record or renumbers one PC must bump ``GENERATOR_VERSION``
(``repro/harness/tracecache.py``).  This test hashes tiny-scale traces
of every benchmark in both modes, plus one sampled mix whose muted
transactions precede recorded ones of the same type, and compares the
hashes with ``tests/golden/trace_sha256.json``.  After an *intentional*
change to trace content, refresh the file with::

    PYTHONPATH=src python -m pytest tests/test_trace_pins.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.tpcc import (
    BENCHMARKS,
    TPCCScale,
    generate_sampled_mix_workload,
    generate_workload,
    mix_type_sequence,
)
from repro.trace import workload_to_dict

GOLDEN = Path(__file__).parent / "golden" / "trace_sha256.json"

#: The pinned sampled mix: seed 7 draws payment, new_order, new_order,
#: payment, stock_level, ...; recording only 2-4 mutes the first
#: payment and the first new_order, so the recorded ones depend on the
#: PC numbering the muted transactions left behind.
MIX_N, MIX_SEED, MIX_KEPT = 8, 7, {2, 3, 4}


def trace_sha256(generated) -> str:
    """sha256 of a trace's JSON document plus its sorted PC registry."""
    digest = hashlib.sha256()
    doc = workload_to_dict(generated.trace)
    digest.update(json.dumps(doc, separators=(",", ":")).encode())
    registry = sorted(generated.recorder.pcs._by_name.items())
    digest.update(json.dumps(registry).encode())
    return digest.hexdigest()


def _generate_all() -> dict:
    tiny = TPCCScale.tiny()
    got = {}
    for tls_mode, mode in ((True, "tls"), (False, "sequential")):
        for bench in sorted(BENCHMARKS):
            got[f"{bench}/{mode}"] = trace_sha256(generate_workload(
                bench, tls_mode=tls_mode, n_transactions=2, seed=42,
                scale=tiny,
            ))
        got[f"sampled_mix/{mode}"] = trace_sha256(
            generate_sampled_mix_workload(
                tls_mode=tls_mode, n_transactions=MIX_N, seed=MIX_SEED,
                scale=tiny, record_indices=MIX_KEPT,
            )
        )
    return got


@pytest.fixture(scope="module")
def hashes():
    return _generate_all()


def test_sampled_mix_mutes_the_first_of_a_type():
    types = mix_type_sequence(n_transactions=MIX_N, seed=MIX_SEED)
    first = {}
    for i, name in enumerate(types):
        first.setdefault(name, i)
    assert any(
        first[types[i]] < i and first[types[i]] not in MIX_KEPT
        for i in MIX_KEPT
    )


def test_trace_bytes_pinned(hashes, request):
    if request.config.getoption("--update-golden"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    assert GOLDEN.exists(), (
        "no golden file; generate one with --update-golden"
    )
    want = json.loads(GOLDEN.read_text())
    assert set(hashes) == set(want)
    drifted = sorted(k for k in want if hashes[k] != want[k])
    assert not drifted, (
        f"trace bytes drifted for {drifted}; if the generator change is "
        "intentional, bump GENERATOR_VERSION and re-run with "
        "--update-golden"
    )
