"""Workload-trace serialization (compact JSON).

Trace generation (running TPC-C against minidb) and simulation are
separable stages; serializing the trace lets a generated workload be
archived, diffed, or replayed under many machine configurations without
regenerating it — the same role the paper's on-disk instruction traces
play for their simulator.

Format: a single JSON object with a version tag; records are flat JSON
arrays (tuples round-trip as lists and are converted back on load, where
equal records share one tuple, as in a freshly recorded trace).
"""

from __future__ import annotations

import json
from typing import Dict, Sequence

from .events import (
    EpochTrace,
    ParallelRegion,
    Record,
    SerialSegment,
    TransactionTrace,
    WorkloadTrace,
)
from .recorder import intern_records

FORMAT_VERSION = 1


def _records_out(records: Sequence[Record]) -> list:
    # JSON encodes a tuple exactly like a list, so the record tuples go
    # into the document unconverted: a per-record list() would cost more
    # than encoding the whole document.
    return list(records)


def _records_in(raw: list, table: Dict[Record, Record]) -> Sequence[Record]:
    # A tuple of interned records, as TransactionTraceBuilder.finish
    # leaves recorded traces.
    return intern_records(list(map(tuple, raw)), table)


def workload_to_dict(workload: WorkloadTrace) -> dict:
    """Plain-dict form (the JSON document) of a workload trace.

    Records stay tuples; JSON writes them as arrays, and
    :func:`workload_from_dict` accepts either form.
    """
    txns = []
    for txn in workload.transactions:
        segments = []
        for seg in txn.segments:
            if isinstance(seg, SerialSegment):
                segments.append(
                    {"type": "serial", "records": _records_out(seg.records)}
                )
            elif isinstance(seg, ParallelRegion):
                segments.append(
                    {
                        "type": "parallel",
                        "epochs": [
                            {
                                "epoch_id": e.epoch_id,
                                "records": _records_out(e.records),
                            }
                            for e in seg.epochs
                        ],
                    }
                )
            else:
                raise TypeError(f"unknown segment {seg!r}")
        txns.append({"name": txn.name, "segments": segments})
    return {
        "format": "repro-workload-trace",
        "version": FORMAT_VERSION,
        "name": workload.name,
        "transactions": txns,
    }


def workload_from_dict(doc: dict) -> WorkloadTrace:
    if doc.get("format") != "repro-workload-trace":
        raise ValueError("not a repro workload trace document")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace version {doc.get('version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    workload = WorkloadTrace(name=doc["name"])
    table: Dict[Record, Record] = {}
    for txn_doc in doc["transactions"]:
        txn = TransactionTrace(name=txn_doc["name"])
        for seg_doc in txn_doc["segments"]:
            if seg_doc["type"] == "serial":
                txn.segments.append(
                    SerialSegment(
                        records=_records_in(seg_doc["records"], table)
                    )
                )
            elif seg_doc["type"] == "parallel":
                txn.segments.append(
                    ParallelRegion(
                        epochs=[
                            EpochTrace(
                                epoch_id=e["epoch_id"],
                                records=_records_in(e["records"], table),
                            )
                            for e in seg_doc["epochs"]
                        ]
                    )
                )
            else:
                raise ValueError(
                    f"unknown segment type {seg_doc['type']!r}"
                )
        workload.transactions.append(txn)
    return workload


def save_workload(workload: WorkloadTrace, path) -> None:
    """Write the trace as JSON to ``path``.

    ``json.dumps`` runs CPython's C encoder in one shot, where
    ``json.dump`` streams through the pure-Python ``_iterencode``; the
    bytes are identical, the C encoder is several times faster.
    """
    text = json.dumps(workload_to_dict(workload), separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text)


def load_workload(path) -> WorkloadTrace:
    """Read a trace previously written by :func:`save_workload`."""
    with open(path) as fh:
        return workload_from_dict(json.load(fh))
