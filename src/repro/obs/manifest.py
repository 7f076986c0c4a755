"""Run manifests: what produced this artifact, exactly.

Every ``results/*.json`` artifact gets a manifest recording the full
provenance of the run — resolved configuration (and its hash), the
content-hash keys of every trace it replayed, the seed, the git SHA,
package/Python versions, wall time, and host CPU count.  With it, any
number in any artifact can be traced back to the code and inputs that
produced it, which is what makes the paper's profile-tune-rerun loop
auditable.

Manifests ride as a sidecar file (``figure5.json`` →
``figure5.manifest.json``) rather than embedded in the artifact: result
files stay byte-identical across serial/parallel/interpreted runs (CI
``cmp``-gates that), while the manifest carries the run-varying facts
such as wall time.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence

from .atomicio import atomic_write_json

MANIFEST_FORMAT = "repro-run-manifest"
MANIFEST_VERSION = 1


def config_hash(config: Any) -> str:
    """Stable short hash of a JSON-able configuration document."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def git_sha() -> Optional[str]:
    """HEAD commit of the enclosing checkout, or None outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def build_manifest(
    command: Optional[Sequence[str]] = None,
    config: Any = None,
    seed: Optional[int] = None,
    trace_spec_keys: Optional[Iterable[str]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A fresh manifest for a run that is starting now.

    ``created_unix`` is deliberately wall-clock (it identifies *when*,
    for humans); every duration in the manifest comes from monotonic
    clocks via :func:`finish_manifest`.
    """
    from .. import __version__

    manifest: Dict[str, Any] = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "created_unix": round(time.time(), 3),
        "command": list(command) if command is not None else None,
        "seed": seed,
        "config": config,
        "config_hash": config_hash(config),
        "trace_spec_keys": sorted(trace_spec_keys or []),
        "git_sha": git_sha(),
        "package_version": __version__,
        "python_version": platform.python_version(),
        "platform": f"{platform.system()}-{platform.machine()}",
        "cpu_count": os.cpu_count() or 1,
        "wall_seconds": None,
    }
    if extra:
        manifest.update(extra)
    return manifest


def finish_manifest(
    manifest: Dict[str, Any],
    wall_seconds: float,
    trace_spec_keys: Optional[Iterable[str]] = None,
) -> Dict[str, Any]:
    """A completed copy of ``manifest`` with the run's final facts.

    Returns a new dict so one in-flight manifest can be finalized
    repeatedly (e.g. once per exported artifact of an ``all`` run).
    """
    done = dict(manifest)
    done["wall_seconds"] = round(wall_seconds, 3)
    if trace_spec_keys is not None:
        done["trace_spec_keys"] = sorted(trace_spec_keys)
    return done


def manifest_path(artifact_path) -> Path:
    """Sidecar manifest path for an artifact (``x.json`` → ``x.manifest.json``)."""
    artifact_path = Path(artifact_path)
    return artifact_path.with_name(artifact_path.stem + ".manifest.json")


def write_manifest(artifact_path, manifest: Dict[str, Any]) -> Path:
    """Atomically write the sidecar manifest for ``artifact_path``."""
    path = manifest_path(artifact_path)
    atomic_write_json(path, manifest)
    return path


def main_command(argv: Optional[Sequence[str]]) -> list:
    """Reconstruct the harness command line for the manifest."""
    tail = list(argv) if argv is not None else list(sys.argv[1:])
    return ["python", "-m", "repro.harness"] + tail
