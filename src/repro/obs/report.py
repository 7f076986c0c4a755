"""Terminal summary of a JSONL run log.

``python -m repro.harness report run.jsonl`` renders, from a traced run:

* the manifest header (who/what/when produced the run), and the wall
  time and the number of traces the run used, from the closing
  ``run.finish`` event;
* the top wall-clock spans, grouped by name — where the harness spent
  its time (trace generation vs compilation vs simulation);
* a Figure-5-style cycle breakdown aggregated over every simulated job's
  counter record — the same categories, summed the same way the paper
  sums CPU-cycles;
* interval estimates from any sampled experiments in the run (the
  ``sampler.estimates`` events carry params, coverage, and CIs);
* the hottest profiled (load PC, store PC) dependence pairs by failed
  cycles — the §3.1 profiler output that tells the programmer which
  dependence to tune next;
* protocol/cache counter totals.

The report consumes only the run log; it does not re-run anything, so it
reconstructs a finished (even crashed) run after the fact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

#: Figure 5 legend order (matches repro.harness.figure5.CATEGORY_ORDER).
CATEGORY_ORDER = (
    "idle", "failed", "sync", "cache_miss", "tls_overhead", "busy",
)

#: Counter totals worth surfacing in the summary table.
TOTAL_COUNTERS = (
    "engine.primary_violations",
    "engine.secondary_violations",
    "engine.secondary_rewinds_avoided",
    "engine.subthreads_started",
    "engine.epochs_committed",
    "machine.deadlock_breaks",
    "l1.hits",
    "l1.misses",
    "l2.hits",
    "l2.misses",
    "l2.victim_spills",
    "l2.overflow_squashes",
    "compile.batched_records",
    "compile.fastpath_loads",
    "compile.fastpath_stores",
    "compile.private_line_stores",
)


def read_run_log(path) -> List[dict]:
    """All records of a JSONL run log, in file order."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _manifest_of(records: List[dict]) -> Optional[dict]:
    for rec in records:
        if rec.get("type") == "manifest":
            manifest = rec.get("manifest")
            if isinstance(manifest, dict):
                return manifest
    return None


def _finish_attrs(records: List[dict]) -> Dict[str, Any]:
    """Attributes of the closing ``run.finish`` event ({} if the run
    never wrote one)."""
    for rec in reversed(records):
        if rec.get("type") == "event" and rec.get("name") == "run.finish":
            return rec.get("attrs", {})
    return {}


def _trace_count(records: List[dict], finish: Dict[str, Any]) -> int:
    """Traces the run used.

    ``run.finish`` counts the distinct spec traces, which a pool worker
    materializes without a ``harness.trace`` span; each trace a driver
    generates itself (a ``harness.trace`` span with no spec ``key``,
    such as a huge run's mixes) adds one.  A log without that count
    counts every ``harness.trace`` span.
    """
    spans = [
        rec.get("attrs", {}) for rec in records
        if rec.get("type") == "span" and rec.get("name") == "harness.trace"
    ]
    if "traces" not in finish:
        return len(spans)
    return finish["traces"] + sum(1 for attrs in spans if "key" not in attrs)


def _span_groups(records: List[dict]) -> Dict[str, Dict[str, float]]:
    groups: Dict[str, Dict[str, float]] = {}
    for rec in records:
        if rec.get("type") != "span":
            continue
        g = groups.setdefault(
            rec["name"], {"count": 0, "total": 0.0, "max": 0.0}
        )
        g["count"] += 1
        g["total"] += rec["dur"]
        g["max"] = max(g["max"], rec["dur"])
    return groups


def _sum_counters(records: List[dict]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for rec in records:
        if rec.get("type") != "counter":
            continue
        for key, value in rec.get("values", {}).items():
            totals[key] = totals.get(key, 0.0) + value
    return totals


def _mode_cycle_groups(records: List[dict]) -> List[Tuple[str, Dict[str, float]]]:
    """Per-execution-mode ``cycles.*`` totals, in Figure-5 mode order.

    A run log typically mixes jobs from several execution modes (the
    five Figure-5 bars); summing their cycle breakdowns together is
    meaningless — an idle-heavy sequential bar would swamp the parallel
    bars.  Jobs whose counter record carries no ``mode`` attribute (old
    logs, hand-built configs) group under ``"(unlabeled)"``.
    """
    groups: Dict[str, Dict[str, float]] = {}
    for rec in records:
        if rec.get("type") != "counter":
            continue
        values = rec.get("values", {})
        if not any(k.startswith("cycles.") for k in values):
            continue
        mode = rec.get("attrs", {}).get("mode") or "(unlabeled)"
        totals = groups.setdefault(mode, {})
        for key, value in values.items():
            if key.startswith("cycles."):
                totals[key] = totals.get(key, 0.0) + value
    # Figure-5 order first, anything else (ablation modes, unlabeled)
    # after in name order.
    known = (
        "sequential", "tls_seq", "no_subthread", "baseline",
        "no_speculation",
    )
    ordered = [m for m in known if m in groups]
    ordered += sorted(m for m in groups if m not in known)
    return [(m, groups[m]) for m in ordered]


def _dependence_totals(
    records: List[dict],
) -> List[Tuple[Any, Any, float, int]]:
    pairs: Dict[Tuple[Any, Any], List[float]] = {}
    for rec in records:
        if rec.get("type") != "event" or rec.get("name") != "sim.dependences":
            continue
        for entry in rec.get("attrs", {}).get("pairs", []):
            load_pc, store_pc, failed, violations = entry[:4]
            agg = pairs.setdefault((load_pc, store_pc), [0.0, 0])
            agg[0] += failed
            agg[1] += violations
    ranked = [
        (load_pc, store_pc, failed, violations)
        for (load_pc, store_pc), (failed, violations) in pairs.items()
    ]
    ranked.sort(key=lambda entry: entry[2], reverse=True)
    return ranked


def _sampler_events(records: List[dict]) -> List[dict]:
    """``sampler.estimates`` event payloads, in file order.

    Sampled experiments (``--sample-rate`` / the ``huge`` experiment)
    emit one event each carrying the sampler params, achieved record
    coverage, and every metric's interval estimate.
    """
    return [
        rec.get("attrs", {})
        for rec in records
        if rec.get("type") == "event"
        and rec.get("name") == "sampler.estimates"
    ]


def _estimate_cell(estimate: Optional[dict], fmt: str) -> str:
    if not estimate:
        return "-"
    half = (estimate["high"] - estimate["low"]) / 2.0
    return f"{estimate['point']:{fmt}} ±{half:{fmt}}"


def _render_sampler_section(event: dict, render_table) -> str:
    block = event.get("sampler", {})
    params = block.get("params", {})
    coverage = block.get("achieved_coverage")
    header = (
        f"sampled run ({event.get('experiment', '?')}): "
        f"rate {params.get('rate')}  strata {params.get('strata')}  "
        f"seed {params.get('seed')}  warmup {params.get('warmup')}"
    )
    if coverage is not None:
        header += (
            f"  coverage {coverage:.1%}"
            f" ({block.get('transactions_sampled')}/"
            f"{block.get('transactions_total')} txns)"
        )
    rows = []
    for key, metrics in sorted(block.get("estimates", {}).items()):
        rows.append([
            key,
            _estimate_cell(metrics.get("total_cycles"), ".4g"),
            _estimate_cell(metrics.get("speedup"), ".2f"),
        ])
    speedup = block.get("speedup")
    if speedup is not None:
        rows.append(["(paired speedup)", "-",
                     _estimate_cell(speedup, ".2f")])
    table = render_table(
        ["bar", "total cycles (95% CI)", "speedup (95% CI)"],
        rows,
        title="Sampled estimates (full set in the manifest sidecar)",
    )
    return header + "\n" + table


def _pc_text(pc: Any) -> str:
    if pc is None:
        return "?"
    if isinstance(pc, int):
        return hex(pc)
    return str(pc)


def render_report(path, top_spans: int = 12, top_pairs: int = 10) -> str:
    """Render the full terminal summary for a run log."""
    from ..harness.report import render_stacked_bars, render_table

    records = read_run_log(path)
    sections: List[str] = []

    manifest = _manifest_of(records)
    header = [f"run log: {path} ({len(records)} records)"]
    if manifest is not None:
        sha = manifest.get("git_sha")
        header.append(
            "manifest: config "
            f"{manifest.get('config_hash')}  seed {manifest.get('seed')}"
            f"  git {sha[:12] if sha else '?'}"
            f"  python {manifest.get('python_version')}"
            f"  cpus {manifest.get('cpu_count')}"
        )
    else:
        header.append("manifest: MISSING (log did not start cleanly?)")
    groups = _span_groups(records)
    finish = _finish_attrs(records)
    wall = finish.get("wall_seconds")
    header.append(
        f"wall time: {wall if wall is not None else '?'}s"
        f"  traces: {_trace_count(records, finish)}"
    )
    sections.append("\n".join(header))

    if groups:
        ranked = sorted(
            groups.items(), key=lambda kv: kv[1]["total"], reverse=True
        )[:top_spans]
        sections.append(render_table(
            ["span", "count", "total s", "mean s", "max s"],
            [
                [
                    name,
                    int(g["count"]),
                    g["total"],
                    g["total"] / g["count"],
                    g["max"],
                ]
                for name, g in ranked
            ],
            title="Top spans (wall clock)",
            float_fmt="{:.4f}",
        ))
    else:
        sections.append("(no spans recorded)")

    totals = _sum_counters(records)
    mode_groups = [
        (mode, cycles, sum(
            cycles.get(f"cycles.{cat}", 0.0) for cat in CATEGORY_ORDER
        ))
        for mode, cycles in _mode_cycle_groups(records)
    ]
    mode_groups = [g for g in mode_groups if g[2] > 0]
    if mode_groups:
        labels = [mode for mode, _, _ in mode_groups]
        fractions = [
            {
                cat: cycles.get(f"cycles.{cat}", 0.0) / total
                for cat in CATEGORY_ORDER
            }
            for _, cycles, total in mode_groups
        ]
        sections.append(render_stacked_bars(
            labels, fractions, CATEGORY_ORDER,
            title="Cycle breakdown (Figure 5 categories, per mode)",
        ))
        sections.append(render_table(
            ["mode", "category", "cpu-cycles", "fraction"],
            [
                [mode, cat, cycles.get(f"cycles.{cat}", 0.0), frac[cat]]
                for (mode, cycles, _), frac in zip(mode_groups, fractions)
                for cat in CATEGORY_ORDER
            ],
        ))

    for event in _sampler_events(records):
        sections.append(_render_sampler_section(event, render_table))

    ranked_pairs = _dependence_totals(records)[:top_pairs]
    if ranked_pairs:
        sections.append(render_table(
            ["load PC", "store PC", "failed cycles", "violations"],
            [
                [_pc_text(load), _pc_text(store), failed, int(violations)]
                for load, store, failed, violations in ranked_pairs
            ],
            title="Hottest dependences (load PC -> store PC)",
        ))

    counter_rows = [
        [name, int(totals[name])]
        for name in TOTAL_COUNTERS
        if name in totals
    ]
    if counter_rows:
        sections.append(render_table(
            ["counter", "total"], counter_rows,
            title="Counter totals",
        ))

    return "\n\n".join(sections)
