"""Machine configuration (Table 1 of the paper) and execution modes."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.engine import TLSConfig
from ..cpu.pipeline import PipelineConfig
from ..memory.cache import CacheGeometry


class ExecutionMode:
    """The five bars of Figure 5."""

    #: Unmodified sequential trace on one CPU (no TLS instructions).
    SEQUENTIAL = "sequential"
    #: TLS-transformed trace (software overheads included) on one CPU.
    TLS_SEQ = "tls_seq"
    #: 4-CPU TLS, all-or-nothing: one sub-thread context per thread.
    NO_SUBTHREAD = "no_subthread"
    #: 4-CPU TLS with sub-thread support (the paper's baseline: 8
    #: sub-threads per thread).
    BASELINE = "baseline"
    #: Upper bound: speculative accesses treated as non-speculative, all
    #: dependences ignored (never violates).
    NO_SPECULATION = "no_speculation"

    ALL = (SEQUENTIAL, TLS_SEQ, NO_SUBTHREAD, BASELINE, NO_SPECULATION)


@dataclass(frozen=True)
class MachineConfig:
    """Full-system parameters, defaults per Table 1.

    Memory parameters: 32B cache lines; 32KB 4-way L1 instruction and data
    caches (2 data banks); a unified 2MB 4-way L2 in 4 banks with a
    64-entry speculative victim cache; crossbar at 8B/cycle/bank; 10-cycle
    minimum miss latency to the L2; 75 cycles to local memory; one memory
    access per 20 cycles.
    """

    n_cpus: int = 4
    line_size: int = 32
    l1_size: int = 32 * 1024
    l1_assoc: int = 4
    l2_size: int = 2 * 1024 * 1024
    l2_assoc: int = 4
    l2_banks: int = 4
    l2_bank_occupancy: int = 4
    l2_latency: int = 10
    memory_latency: int = 75
    memory_gap: int = 20
    victim_entries: int = 64
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    tls: TLSConfig = field(default_factory=TLSConfig)
    #: Treat every access as non-speculative (NO SPECULATION mode).
    speculation_enabled: bool = True
    #: Memory-level parallelism model for load misses.  False (default):
    #: loads block — the sound choice for value-free traces, used for all
    #: paper numbers.  True: a load miss occupies an MSHR and retirement
    #: continues until either the MSHRs fill or the reorder buffer's
    #: worth of instructions has retired past the oldest outstanding
    #: miss — a bounded-window approximation of out-of-order overlap.
    overlap_loads: bool = False
    #: Outstanding data-miss limit when overlap_loads is on.
    mshr_entries: int = 8
    #: Optional hardware extension (Section 2.2): track sub-threads in
    #: the L1s so a violation invalidates only lines touched by rewound
    #: sub-threads instead of every speculative line.  The paper found
    #: this "not worthwhile"; the ablation quantifies it.
    l1_subthread_tracking: bool = False
    #: CPUs used inside parallel regions (None = all).  1 serializes the
    #: epochs on CPU 0, which is how the TLS-SEQ bar is produced: the
    #: TLS-transformed trace with its software overheads, run sequentially.
    region_cpus: int = None
    #: Pre-lower traces once per region (repro.trace.compile): interned
    #: per-line tuples, which the compiled load and store arms walk;
    #: compiled regions also chain their events in the event loop
    #: (repro.sim.engine_core).
    #: Byte-identical to interpreted replay — every cycle count and
    #: statistic matches; ``--no-compile-traces`` on the harness CLI (or
    #: False here) is the escape hatch / differential-testing axis.
    compile_traces: bool = True
    #: Opt-in cycle-level invariant checking (repro.verify.invariants):
    #: the machine validates protocol and memory-system invariants as it
    #: runs.  Costs simulation time; off for all paper numbers.
    check_invariants: bool = False
    #: Steps between full invariant sweeps when check_invariants is on
    #: (the O(1) commit-horizon check runs every step regardless).
    invariant_interval: int = 64
    #: The :class:`ExecutionMode` this config was derived for (set by
    #: :meth:`for_mode`), or None for hand-built configs.  Pure
    #: provenance for telemetry — the run-log report groups its Figure-5
    #: cycle breakdown by it — so it is excluded from equality/hash.
    mode_label: str = field(default=None, compare=False, repr=False)

    def l1_geometry(self) -> CacheGeometry:
        return CacheGeometry(
            size_bytes=self.l1_size,
            assoc=self.l1_assoc,
            line_size=self.line_size,
        )

    def l2_geometry(self) -> CacheGeometry:
        return CacheGeometry(
            size_bytes=self.l2_size,
            assoc=self.l2_assoc,
            line_size=self.line_size,
        )

    def with_tls(self, **kwargs) -> "MachineConfig":
        return replace(self, tls=replace(self.tls, **kwargs))

    @staticmethod
    def for_mode(mode: str, base: "MachineConfig" = None) -> "MachineConfig":
        """Derive the machine settings for a Figure 5 execution mode."""
        cfg = base or MachineConfig()
        if mode in (ExecutionMode.SEQUENTIAL, ExecutionMode.TLS_SEQ):
            # One CPU does all the work; the others idle (their idle time
            # appears in the Figure 5 breakdown exactly as in the paper).
            cfg = replace(cfg, region_cpus=1, speculation_enabled=False)
        elif mode == ExecutionMode.NO_SUBTHREAD:
            cfg = cfg.with_tls(max_subthreads=1)
        elif mode == ExecutionMode.BASELINE:
            pass
        elif mode == ExecutionMode.NO_SPECULATION:
            cfg = replace(cfg, speculation_enabled=False)
        else:
            raise ValueError(f"unknown execution mode {mode!r}")
        return replace(cfg, mode_label=mode)


def table1_text(config: MachineConfig = None) -> str:
    """Render the simulation parameters as the paper's Table 1."""
    cfg = config or MachineConfig()
    pipe = cfg.pipeline
    rows = [
        ("Pipeline Parameters", ""),
        ("Issue Width", str(pipe.issue_width)),
        ("Functional Units", f"{pipe.int_units} Int, {pipe.fp_units} FP, "
                             "1 Mem, 1 Branch"),
        ("Reorder Buffer Size", str(pipe.rob_entries)),
        ("Integer Multiply", f"{pipe.int_mul_latency} cycles"),
        ("Integer Divide", f"{pipe.int_div_latency} cycles"),
        ("All Other Integer", "1 cycle"),
        ("FP Divide", f"{pipe.fp_div_latency} cycles"),
        ("FP Square Root", f"{pipe.fp_sqrt_latency} cycles"),
        ("All Other FP", f"{pipe.fp_latency} cycles"),
        ("Branch Prediction",
         f"GShare ({pipe.branch_table_bytes // 1024}KB, "
         f"{pipe.branch_history_bits} history bits)"),
        ("Memory Parameters", ""),
        ("Cache Line Size", f"{cfg.line_size}B"),
        ("Instruction Cache", f"{cfg.l1_size // 1024}KB, "
                              f"{cfg.l1_assoc}-way set-assoc"),
        ("Data Cache", f"{cfg.l1_size // 1024}KB, "
                       f"{cfg.l1_assoc}-way set-assoc, 2 banks"),
        ("Unified Secondary Cache",
         f"{cfg.l2_size // (1024 * 1024)}MB, {cfg.l2_assoc}-way set-assoc, "
         f"{cfg.l2_banks} banks"),
        ("Speculative Victim Cache", f"{cfg.victim_entries} entry"),
        ("Crossbar Interconnect", "8B per cycle per bank"),
        ("Minimum Miss Latency to Secondary Cache",
         f"{cfg.l2_latency} cycles"),
        ("Minimum Miss Latency to Local Memory",
         f"{cfg.memory_latency} cycles"),
        ("Main Memory Bandwidth",
         f"1 access per {cfg.memory_gap} cycles"),
    ]
    width = max(len(name) for name, _ in rows)
    lines = []
    for name, value in rows:
        if not value:
            lines.append(f"--- {name} ---")
        else:
            lines.append(f"{name:<{width}}  {value}")
    return "\n".join(lines)
