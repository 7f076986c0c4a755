"""Golden regression for the pruned Figure-6 artifact.

``results/figure6_pruned.json`` (plus its manifest sidecar) is the
checked-in output of one pinned predictor-guided run::

    python -m repro.harness figure6 --tiny --transactions 2 \
        --prune --no-trace-cache --out results/

The planner and the simulator are both deterministic, so regenerating
that command must reproduce the JSON byte-for-byte: any drift means the
reuse profile, the ranking, the frontier policy, or the simulator
changed.  After an *intentional* change, refresh both files with::

    PYTHONPATH=src python -m pytest tests/test_prune_golden.py --update-golden

The manifest sidecar carries machine-dependent fields (wall time, git
SHA), so it is schema-linted and bounds-checked rather than
byte-compared.  The second run pins worker-count independence: the
planner and the dedupe memo must not let ``--jobs`` leak into results.
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
GOLDEN_JSON = REPO / "results" / "figure6_pruned.json"
GOLDEN_MANIFEST = REPO / "results" / "figure6_pruned.manifest.json"

#: The pinned generation command (relative to an --out directory).
GOLDEN_ARGS = (
    "figure6", "--tiny", "--transactions", "2",
    "--prune", "--no-trace-cache",
)
#: ISSUE acceptance bounds, enforced on the checked-in artifact.
MAX_DISPATCH_FRACTION = 0.5
MAX_VALIDATION_MAE = 0.05


def _run(out: Path, *extra: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    subprocess.run(
        [sys.executable, "-m", "repro.harness", *GOLDEN_ARGS, *extra,
         "--out", str(out)],
        check=True, env=env, cwd=REPO, capture_output=True,
    )


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    """Run the pinned CLI command into a temp dir; yields the out dir."""
    out = tmp_path_factory.mktemp("pruned_golden")
    _run(out)
    return out


def test_figure6_pruned_bytes_pinned(regenerated, request):
    fresh = regenerated / "figure6_pruned.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_JSON.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(fresh, GOLDEN_JSON)
        shutil.copyfile(
            regenerated / "figure6_pruned.manifest.json",
            GOLDEN_MANIFEST,
        )
    assert GOLDEN_JSON.exists(), (
        "no golden file; generate one with --update-golden"
    )
    assert fresh.read_bytes() == GOLDEN_JSON.read_bytes(), (
        "pruned Figure-6 output drifted from results/"
        "figure6_pruned.json; if the predictor change is intentional, "
        "re-run with --update-golden"
    )


def test_pruned_output_independent_of_jobs(regenerated, tmp_path):
    """--jobs must not change a single byte of the artifact."""
    _run(tmp_path, "--jobs", "2")
    parallel = (tmp_path / "figure6_pruned.json").read_bytes()
    serial = (regenerated / "figure6_pruned.json").read_bytes()
    assert parallel == serial


def test_golden_manifest_predictor_block():
    manifest = json.loads(GOLDEN_MANIFEST.read_text())
    assert manifest.get("artifact") == "figure6_pruned"
    block = manifest.get("predictor")
    assert_valid(block, kind="predictor")
    assert block["dispatch_fraction"] <= MAX_DISPATCH_FRACTION
    assert block["errors"]["l2_miss_ratio"]["mae"] <= MAX_VALIDATION_MAE
    assert manifest["config"]["prune"] == {"top_k": 4, "validation": 2}


def test_golden_artifact_shape():
    """Every pinned cell carries its prediction alongside the truth."""
    artifact = json.loads(GOLDEN_JSON.read_text())
    cells = artifact["cells"]
    assert cells, "golden artifact carries no simulated cells"
    benchmarks = {c["benchmark"] for c in cells}
    assert artifact["grid_cells"] == 12 * len(benchmarks)
    assert artifact["simulated_cells"] == len(cells)
    for cell in cells:
        assert cell["role"] in ("frontier", "validation")
        assert 0.0 <= cell["predicted_miss_ratio"] <= 1.0
        assert 0.0 <= cell["simulated_miss_ratio"] <= 1.0
        assert cell["miss_ratio_error"] == pytest.approx(
            abs(cell["predicted_miss_ratio"]
                - cell["simulated_miss_ratio"])
        )
