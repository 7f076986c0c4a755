"""Experiment harness: regenerates every table and figure of the paper.

Run ``python -m repro.harness <experiment>`` with one of: ``table1``,
``table2``, ``figure2``, ``figure4``, ``figure5``, ``figure6``,
``ablations``, ``extensions``, ``scalability``, ``whentouse``, ``kv``,
``dependences``, ``mix``, ``seeds``, or ``all``; add ``--out DIR`` for
JSON export.
"""

from .ablations import (
    SweepResult,
    run_adaptive_spacing_ablation,
    run_l1_tracking_ablation,
    run_load_granularity_ablation,
    run_overlap_loads_ablation,
    run_start_cost_ablation,
    run_victim_cache_ablation,
)
from .dependences import DependenceResult, run_dependence_analysis
from .extensions import PredictionResult, run_prediction_comparison
from .figure2 import Figure2Result, run_figure2
from .kvstudy import KVStudyResult, run_kv_study
from .mixstudy import MixLatencyResult, run_mix_latency
from .figure4 import Figure4Result, figure4_workload, run_figure4
from .figure5 import Figure5Bar, Figure5Result, run_figure5
from .figure6 import Figure6Result, run_figure6, run_figure6_paper_size
from .runner import (
    ExperimentContext,
    JobRunner,
    SimJob,
    config_identity_doc,
    mode_trace,
)
from .scalability import ScalabilityResult, run_scalability
from .tracecache import TraceSpec, default_cache_dir, materialize, spec_key
from .seedsweep import SeedSweepResult, run_seed_sweep
from .table2 import Table2Result, run_table2
from .whentouse import WhenToUseResult, run_when_to_use

__all__ = [
    "SweepResult",
    "run_adaptive_spacing_ablation",
    "run_l1_tracking_ablation",
    "run_load_granularity_ablation",
    "run_overlap_loads_ablation",
    "DependenceResult",
    "run_dependence_analysis",
    "PredictionResult",
    "run_prediction_comparison",
    "run_start_cost_ablation",
    "run_victim_cache_ablation",
    "Figure2Result",
    "run_figure2",
    "Figure4Result",
    "figure4_workload",
    "run_figure4",
    "Figure5Bar",
    "Figure5Result",
    "run_figure5",
    "Figure6Result",
    "run_figure6",
    "run_figure6_paper_size",
    "ExperimentContext",
    "JobRunner",
    "SimJob",
    "TraceSpec",
    "config_identity_doc",
    "default_cache_dir",
    "materialize",
    "spec_key",
    "mode_trace",
    "Table2Result",
    "run_table2",
    "ScalabilityResult",
    "run_scalability",
    "SeedSweepResult",
    "run_seed_sweep",
    "WhenToUseResult",
    "run_when_to_use",
    "KVStudyResult",
    "run_kv_study",
    "MixLatencyResult",
    "run_mix_latency",
]
