"""Golden regression for the sampled Figure-5 artifact.

``results/figure5_sampled.json`` (plus its manifest sidecar) is the
checked-in output of one pinned sampled run::

    python -m repro.harness figure5 --transactions 12 --tiny \
        --sample-rate 0.3 --sample-seed 0 --no-trace-cache --out results/

The sampler is deterministic, so regenerating that command must
reproduce the JSON byte-for-byte: any drift means the sampling plan,
the warmup accounting, or the estimator changed.  After an
*intentional* change, refresh both files with::

    PYTHONPATH=src python -m pytest tests/test_sampling_golden.py --update-golden

The manifest sidecar carries machine-dependent fields (wall time, git
SHA), so it is schema-linted and params-compared rather than
byte-compared.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import assert_valid

REPO = Path(__file__).resolve().parent.parent
GOLDEN_JSON = REPO / "results" / "figure5_sampled.json"
GOLDEN_MANIFEST = REPO / "results" / "figure5_sampled.manifest.json"

#: The pinned generation command (relative to an --out directory).
GOLDEN_ARGS = (
    "figure5", "--transactions", "12", "--tiny",
    "--sample-rate", "0.3", "--sample-seed", "0", "--no-trace-cache",
)
GOLDEN_PARAMS = {"rate": 0.3, "strata": 3, "seed": 0, "warmup": 4}


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    """Run the pinned CLI command into a temp dir; yields the out dir."""
    out = tmp_path_factory.mktemp("sampled_golden")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    subprocess.run(
        [sys.executable, "-m", "repro.harness", *GOLDEN_ARGS,
         "--out", str(out)],
        check=True, env=env, cwd=REPO, capture_output=True,
    )
    return out


def test_figure5_sampled_bytes_pinned(regenerated, request):
    fresh = regenerated / "figure5_sampled.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_JSON.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(fresh, GOLDEN_JSON)
        shutil.copyfile(
            regenerated / "figure5_sampled.manifest.json",
            GOLDEN_MANIFEST,
        )
    assert GOLDEN_JSON.exists(), (
        "no golden file; generate one with --update-golden"
    )
    assert fresh.read_bytes() == GOLDEN_JSON.read_bytes(), (
        "sampled Figure-5 output drifted from results/"
        "figure5_sampled.json; if the sampler change is intentional, "
        "re-run with --update-golden"
    )


def test_unset_sampler_flags_record_their_defaults(regenerated):
    """The pinned command leaves --sample-strata and --sample-warmup
    unset: the manifest records SamplerConfig's defaults for them."""
    manifest = json.loads(
        (regenerated / "figure5_sampled.manifest.json").read_text()
    )
    assert manifest["config"]["sampler"] == GOLDEN_PARAMS


def test_golden_manifest_sampler_block():
    manifest = json.loads(GOLDEN_MANIFEST.read_text())
    assert manifest.get("artifact") == "figure5_sampled"
    block = manifest.get("sampler")
    assert_valid(block, kind="sampler")
    for key, want in GOLDEN_PARAMS.items():
        assert block["params"][key] == want
    # The run genuinely sampled: a strict subset of transactions.
    assert 0 < block["transactions_sampled"] < block["transactions_total"]


def test_golden_estimates_are_intervals():
    """Every pinned estimate is a well-formed CI around its point."""
    manifest = json.loads(GOLDEN_MANIFEST.read_text())
    estimates = manifest["sampler"]["estimates"]
    assert estimates, "golden manifest carries no estimates"
    for metrics in estimates.values():
        for est in metrics.values():
            assert est["low"] <= est["point"] <= est["high"]
            assert est["std_error"] >= 0.0
