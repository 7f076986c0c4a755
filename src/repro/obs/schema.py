"""One schema for every artifact the harness writes.

Each artifact kind is a row of the table below, walked by one checker:
``run_log`` (``--trace-out``) and ``journal`` (the service's) JSONL by
record type; ``manifest`` (a ``*.manifest.json`` sidecar, with its
``sampler`` or ``predictor`` block); those two blocks alone;
``trajectory`` (``BENCH_speed.json``); ``result`` (other
``results/*.json``).  The manifest spec also checks the manifest
embedded in run logs, ``perf.json`` and trajectory entries.  A spec
gives each field's type, whether it may be absent or null, and its
object's cross-field rules (``t1 >= t0``, ``dur == t1 - t0``, ``low <=
point <= high``); JSONL records also need a ``seq`` counting up from 0,
so truncated and interleaved files are detectable.  No writer calls
the lint; tests, CI and ``python -m repro.obs lint`` do.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Callable, List, Optional

from .manifest import MANIFEST_FORMAT

__all__ = ["RunLogError", "assert_valid", "lint"]

#: Absolute slack allowed between ``dur`` and ``t1 - t0`` (rounding).
DUR_TOLERANCE = 2e-6
#: A spec: ``check(value, path, issues)`` appends what is wrong.
Check = Callable[[Any, str, List[str]], None]


class RunLogError(AssertionError):
    """An artifact violates its schema (raised by :func:`assert_valid`)."""


def _num(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _bad(path: str, want: str, value: Any) -> str:
    return f"{path + ' is ' if path else ''}not {want}: {repr(value)[:60]}"


def scalar(ok: Callable[[Any], bool], want: str) -> Check:
    """A value that must satisfy ``ok``."""
    def check(value: Any, path: str, out: List[str]) -> None:
        if not ok(value):
            out.append(_bad(path, want, value))
    return check


def one_of(label: str, values: str) -> Check:
    """An enumerated value; ``values`` is space-separated."""
    def check(value: Any, path: str, out: List[str]) -> None:
        if value not in values.split():
            out.append(f"unknown {label} {value!r}")
    return check


def opt(spec: Check, present: bool = False) -> tuple:
    """A field that may be null, and also absent unless ``present``."""
    return spec, present


def obj(fields: Optional[dict] = None, rest: Optional[Check] = None,
        rules: tuple = (), nonempty: bool = False) -> Check:
    """An object: ``fields`` (required and non-null unless :func:`opt`),
    ``rest`` for every other key, and ``rules`` of ``(names, predicate,
    text)``, checked when all the named fields are numbers."""
    fields = fields or {}

    def check(value: Any, path: str, out: List[str]) -> None:
        if not isinstance(value, dict) or (nonempty and not value):
            out.append(_bad(path, "a non-empty object" if nonempty
                            else "an object", value))
            return
        for name, spec in fields.items():
            spec, present = spec if isinstance(spec, tuple) else (spec, None)
            where = f"{path}.{name}" if path else name
            if name not in value:
                if present is not False:
                    out.append(f"missing {where} key")
            elif value[name] is not None or present is None:
                spec(value[name], where, out)
        for name, item in value.items():
            if rest is not None and name not in fields:
                rest(item, f"{path}[{name!r}]", out)
        for names, ok, text in rules:
            vals = [value.get(name) for name in names]
            if all(map(_num, vals)) and not ok(*vals):
                shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, vals))
                out.append(f"{path + ': ' if path else ''}{text} ({shown})")
    return check


NUM = scalar(_num, "a finite number")
NONNEG = scalar(lambda v: _num(v) and v >= 0, "a non-negative number")
POS = scalar(lambda v: _num(v) and v > 0, "a positive number")
FRACTION = scalar(lambda v: _num(v) and 0 <= v <= 1, "a number in [0, 1]")
COUNT = scalar(lambda v: _int(v) and v >= 0, "a non-negative int")
AT_LEAST_1 = scalar(lambda v: _int(v) and v >= 1, "an int >= 1")
STR = scalar(lambda v: isinstance(v, str) and v != "", "a non-empty string")
KEYS = scalar(lambda v: isinstance(v, list)
              and all(isinstance(k, str) for k in v), "a list of strings")
ATTRS = obj()

# -- the table ---------------------------------------------------------

_MANIFEST_FIELDS = {
    "format": scalar(lambda v: v == MANIFEST_FORMAT, repr(MANIFEST_FORMAT)),
    "version": COUNT, "config_hash": STR, "package_version": STR,
    "python_version": STR, "cpu_count": AT_LEAST_1,
    "trace_spec_keys": KEYS, "wall_seconds": NONNEG,
}

#: One interval estimate (a sampled metric, the ``huge`` speedup).
ESTIMATE = obj({"point": NUM, "low": NUM, "high": NUM, "std_error": NONNEG,
                "method": STR}, rules=(
    (("low", "point", "high"), lambda lo, p, hi: lo <= p <= hi,
     "point outside its own interval [low, high]"),
))

#: ``sampler`` block: the ``--sample-*`` params, achieved record
#: coverage, and per-bar, per-metric interval estimates.
SAMPLER = obj({
    "params": obj({key: NUM for key in (
        "rate", "strata", "seed", "warmup", "functional_window", "guard",
    )}),
    "achieved_coverage": opt(NONNEG),
    "estimates": obj(rest=obj(rest=ESTIMATE, nonempty=True), nonempty=True),
    "speedup": opt(ESTIMATE),
})

#: ``predictor`` block: the ``--prune`` knobs and cost-model
#: coefficients, dispatch accounting, and validation error per metric.
PREDICTOR = obj({
    "params": obj({key: NUM for key in (
        "top_k", "validation", "l1_lines", "line_size", "n_cpus",
        "retry_gain", "retry_floor", "far_dep_weight", "violation_penalty",
    )}),
    "grid_cells": COUNT, "simulated_cells": COUNT,
    "dispatch_fraction": FRACTION,
    "errors": obj({"l2_miss_ratio": obj({
        "mae": NONNEG, "max_abs": NONNEG, "cells": COUNT,
        "mae_all_simulated": NONNEG,
    })}, rest=obj(rest=NUM, nonempty=True)),
})

#: A finished manifest (sidecars, ``perf.json``, trajectory entries).
MANIFEST = obj({**_MANIFEST_FIELDS,
                "sampler": opt(SAMPLER), "predictor": opt(PREDICTOR)})

#: One trajectory entry: what the per-scenario regression gate reads.
#: ``manifest`` is null only in entries that predate it.
ENTRY = obj({
    "runner": STR, "scale": STR, "scenario": STR, "python": STR,
    "records": POS, "records_per_second": POS,
    "manifest": opt(MANIFEST, present=True),
    "ratio_to_previous": opt(POS),
    "median_records_per_second": opt(NONNEG),
    "stdev_records_per_second": opt(NONNEG),
})


#: JSONL kinds: record ``type`` -> spec.
LOGS = {
    "run_log": {
        # The run log opens with the in-flight manifest: no wall time yet.
        "manifest": obj({"manifest": obj(
            {**_MANIFEST_FIELDS, "wall_seconds": opt(NONNEG, present=True)}
        )}),
        "span": obj({"name": STR, "t0": NONNEG, "t1": NUM, "dur": NUM,
                     "parent": opt(STR, present=True), "attrs": ATTRS}, rules=(
            (("t0", "t1"), lambda t0, t1: t1 >= t0,
             "span ends before it starts: t1 < t0"),
            (("t0", "t1", "dur"), lambda t0, t1, dur:
             abs(dur - (t1 - t0)) <= DUR_TOLERANCE, "dur != t1 - t0"),
        )),
        "counter": obj({"name": STR, "t": NONNEG, "values": obj(rest=NUM),
                        "attrs": ATTRS}),
        "event": obj({"name": STR, "t": NONNEG, "attrs": ATTRS}),
    },
    "journal": {
        "service": obj({"t": NONNEG, "event": one_of(
            "service event", "start recovered drain stop")}),
        "sweep": obj({"t": NONNEG, "sweep": STR, "event": one_of(
            "sweep event", "accepted running done failed interrupted")}),
        "job": obj({"t": NONNEG, "sweep": STR, "job": STR,
                    "attempt": AT_LEAST_1, "event": one_of(
            "job event", "dispatch store_hit done crash retry quarantine")}),
    },
}


def _issues(spec: Check, value: Any, prefix: str = "") -> List[str]:
    out: List[str] = []
    spec(value, "", out)
    return [prefix + issue for issue in out]


def _trajectory(doc: Any, path: str, out: List[str]) -> None:
    if not isinstance(doc, list):
        out.append("trajectory is not a JSON array")
        return
    if not doc:
        out.append("trajectory is empty")
    for idx, entry in enumerate(doc):
        out.extend(_issues(ENTRY, entry, f"entry {idx}: "))


def _result(doc: Any, path: str, out: List[str]) -> None:
    if not isinstance(doc, list):  # list results carry no manifest
        obj({"manifest": opt(MANIFEST)})(doc, path, out)


#: Whole-document kinds: kind -> spec.
DOCS = {"manifest": MANIFEST, "sampler": SAMPLER, "predictor": PREDICTOR,
        "trajectory": _trajectory, "result": _result}


def _lint_log(text: str, kind: Optional[str]) -> List[str]:
    """Each JSONL record: its ``seq``, then the spec of its ``type``."""
    out: List[str] = []
    n = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        loc = f"line {line_no}: "
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            out.append(loc + ("blank line" if not line.strip()
                              else f"invalid JSON: {exc}"))
            continue
        if not isinstance(rec, dict):
            out.append(loc + _bad("", "an object", rec))
            continue
        rtype, seq = rec.get("type"), rec.get("seq")
        kind = kind or ("journal" if rtype in LOGS["journal"] else "run_log")
        if n == 0 and kind == "run_log" and rtype != "manifest":
            out.append(loc + "first record must be the run manifest")
        n += 1
        if rtype not in LOGS[kind]:
            out.append(loc + f"unknown record type {rtype!r}")
            continue
        if not _int(seq) or seq != n - 1:
            out.append(loc + f"seq {seq!r} is not the expected {n - 1} "
                       "(truncated or reordered file?)")
        out.extend(_issues(LOGS[kind][rtype], rec, loc))
    return out if n else out + ["file has no records"]


def lint(path_or_doc: Any, kind: Optional[str] = None) -> List[str]:
    """Lint one artifact; returns its (possibly empty) issue list.

    A path's kind comes from its name (``*.jsonl``, ``BENCH*.json``,
    ``*.manifest.json``) or its first record; an in-memory document
    (a result's ``manifest_block()``) must name its ``kind``.
    """
    if not isinstance(path_or_doc, (str, os.PathLike)):
        if kind not in DOCS:
            raise ValueError(f"in-memory lint needs a kind in {sorted(DOCS)}")
        return _issues(DOCS[kind], path_or_doc)
    name = os.path.basename(os.fspath(path_or_doc))
    jsonl = kind in LOGS or (kind is None and name.endswith(".jsonl"))
    try:
        with open(path_or_doc, encoding="utf-8") as fh:
            text = fh.read()
        doc = None if jsonl else json.loads(text)
    except (OSError, ValueError) as exc:
        return [f"unreadable {kind or 'artifact'}: {exc}"]
    if jsonl:
        return _lint_log(text, kind)
    if kind is None:
        first = doc[0] if isinstance(doc, list) and doc else None
        kind = "trajectory" if name.startswith("BENCH") or (
            isinstance(first, dict) and "scenario" in first
        ) else "manifest" if name.endswith(".manifest.json") else "result"
    return _issues(DOCS[kind], doc)


def assert_valid(path_or_doc: Any, kind: Optional[str] = None) -> None:
    """:func:`lint`, raising :class:`RunLogError` listing the issues."""
    issues = lint(path_or_doc, kind)
    if issues:
        what = path_or_doc if isinstance(path_or_doc, (str, os.PathLike)) \
            else kind
        more = len(issues) - 20
        raise RunLogError(
            f"{what}: {len(issues)} schema issue(s):\n  "
            + "\n  ".join(issues[:20])
            + (f"\n  ... and {more} more" if more > 0 else "")
        )
