"""Observability for the reproduction harness.

One package owns everything the harness knows about *how a run went*
(as opposed to what it computed):

* :mod:`repro.obs.atomicio` — crash-safe artifact writes (temp file +
  ``os.replace``) shared by every artifact and cache writer;
* :mod:`repro.obs.manifest` — the run manifest attached to every
  artifact (config hash, trace-spec keys, seed, git SHA, versions,
  wall time, CPU count);
* :mod:`repro.obs.tracer` — structured JSONL span/counter/event
  tracing (``--trace-out run.jsonl``); each job's ``sim.stats``
  counter carries ``Machine.metrics()`` under the same dotted names;
* :mod:`repro.obs.progress` — live progress + per-worker heartbeats
  for parallel sweeps (``--progress``);
* :mod:`repro.obs.schema` — one schema for every artifact above:
  :func:`lint` / :func:`assert_valid`, or ``python -m repro.obs lint``;
* :mod:`repro.obs.report` — ``python -m repro.harness report``.

Everything here is opt-in: with no ``--trace-out`` and no
``--progress`` the simulator and harness execute their original code
paths untouched.
"""

from .atomicio import (
    atomic_output_file,
    atomic_write_json,
    atomic_write_text,
)
from .manifest import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    build_manifest,
    config_hash,
    finish_manifest,
    git_sha,
    main_command,
    manifest_path,
    write_manifest,
)
from .progress import ProgressReporter, format_eta
from .report import render_report
from .schema import RunLogError, assert_valid, lint
from .tracer import SpanTracer

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "ProgressReporter",
    "RunLogError",
    "SpanTracer",
    "assert_valid",
    "atomic_output_file",
    "atomic_write_json",
    "atomic_write_text",
    "build_manifest",
    "config_hash",
    "finish_manifest",
    "format_eta",
    "git_sha",
    "lint",
    "main_command",
    "manifest_path",
    "render_report",
    "write_manifest",
]
