"""Per-core timing model.

The paper simulates 4-way-issue out-of-order cores (MIPS R10000-like with
a 128-entry reorder buffer).  Driving a full out-of-order model from a
value-free trace is neither possible nor necessary for reproducing the
paper's results, which are dominated by memory behaviour and failed
speculation.  We keep the first-order core effects:

* **issue width** — COMPUTE batches retire ``width`` instructions/cycle;
* **functional-unit latencies** (Table 1) — multi-cycle OP records charge
  the latency table, amortized by the number of units of that class;
* **branch prediction** — a GShare predictor trained on the traced
  outcomes; each misprediction charges a pipeline-refill penalty;
* **memory-level parallelism** — loads are blocking (the dependence chain
  through a loaded value is unknowable from a value-free trace, so
  blocking is the sound choice), while write-through stores retire into a
  store buffer without stalling.

The simplifications are documented in DESIGN.md ("Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..trace.events import Op
from .branch import GShareBranchPredictor


@dataclass(frozen=True)
class PipelineConfig:
    """Core parameters (Table 1).

    The printed table in the paper has OCR-damaged latency digits
    ("Integer Multiply 2", "Integer Divide 76", "FP Divide 5"); we use the
    values from the companion technical report (CMU-CS-05-189): integer
    multiply 12, integer divide 76, FP divide 15, FP square root 20, other
    FP 2, all other integer 1.
    """

    issue_width: int = 4
    rob_entries: int = 128
    int_mul_latency: int = 12
    int_div_latency: int = 76
    fp_latency: int = 2
    fp_div_latency: int = 15
    fp_sqrt_latency: int = 20
    mispredict_penalty: int = 7
    #: Functional-unit counts: 2 Int, 2 FP, 1 Mem, 1 Branch (Table 1).
    int_units: int = 2
    fp_units: int = 2
    branch_table_bytes: int = 16 * 1024
    branch_history_bits: int = 8


class CorePipeline:
    """Converts trace records into cycle costs for one CPU."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.predictor = GShareBranchPredictor(
            table_bytes=config.branch_table_bytes,
            history_bits=config.branch_history_bits,
        )
        self._op_latency: Dict[int, float] = {
            Op.INT_MUL: config.int_mul_latency / config.int_units,
            Op.INT_DIV: config.int_div_latency / config.int_units,
            Op.FP: config.fp_latency / config.fp_units,
            Op.FP_DIV: config.fp_div_latency / config.fp_units,
            Op.FP_SQRT: config.fp_sqrt_latency / config.fp_units,
            Op.MEM_BARRIER: 1.0,
        }
        self.instructions_retired = 0
        # Hoisted hot-path constants (config is immutable per pipeline).
        self._issue_width = config.issue_width
        self._mispredict_penalty = config.mispredict_penalty

    def compute_cycles(self, count: int) -> int:
        """Cycles to retire ``count`` single-cycle instructions."""
        self.instructions_retired += count
        width = self._issue_width
        return (count + width - 1) // width

    def op_cycles(self, op_class: int, count: int) -> int:
        """Cycles for ``count`` multi-cycle operations of ``op_class``.

        Independent operations of the same class pipeline across the
        available units, so the per-op cost is latency / unit count; a
        fully-dependent chain would cost more, but the traces batch only
        independent operations.
        """
        self.instructions_retired += count
        latency = self._op_latency.get(op_class)
        if latency is None:
            raise ValueError(f"unknown op class {op_class}")
        return max(1, int(round(latency * count)))

    def branch_cycles(self, pc: int, taken: bool) -> int:
        """Cycles for one conditional branch (1 + penalty if mispredicted)."""
        self.instructions_retired += 1
        if self.predictor.predict_and_update(pc, taken):
            return 1
        return 1 + self._mispredict_penalty
