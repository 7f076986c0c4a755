"""Cycle-level invariant checking for the TLS machine.

Enabled with ``MachineConfig(check_invariants=True)`` (or
``--check-invariants`` on the harness CLI), the machine calls
:meth:`InvariantChecker.on_step` before every simulated record.  Each
call runs an O(1) commit-horizon monotonicity check; every ``interval``
steps — and once more at the end of the run — the checker additionally
validates the full protocol state (engine/epoch ordering, context
directory, sub-thread start-table monotonicity via
:meth:`~repro.core.engine.TLSEngine.check_invariants`) and sweeps the
memory system for speculative-bit consistency between the L1s, the L2
sets, and the victim cache.

All failures raise :class:`InvariantError` naming the violated invariant
and the offending state, so a fuzz run pinpoints the first cycle at
which the protocol went wrong instead of surfacing a corrupted result
thousands of cycles later.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.epoch import EpochStatus
from ..memory.l2 import COMMITTED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.machine import Machine


class InvariantError(AssertionError):
    """A machine/protocol invariant was violated mid-simulation."""


def _fail(message: str) -> None:
    raise InvariantError(message)


class InvariantChecker:
    """Stateful checker attached to one machine run."""

    def __init__(self, interval: int = 64):
        #: Steps between full protocol + memory-system sweeps (the
        #: commit-horizon check runs on every step regardless).
        self.interval = max(1, interval)
        self._steps = 0
        self._last_horizon = -1
        self.sweeps = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def on_step(self, machine: "Machine") -> None:
        self._steps += 1
        horizon = machine.engine.commit_horizon
        if horizon < self._last_horizon:
            _fail(
                f"commit horizon moved backwards: "
                f"{self._last_horizon} -> {horizon}"
            )
        self._last_horizon = horizon
        if self._steps % self.interval == 0:
            self.check_protocol(machine)
            self.check_memory(machine)

    def on_finish(self, machine: "Machine") -> None:
        """End of run: full sweep plus quiescence checks."""
        self.check_protocol(machine)
        self.check_memory(machine, deep=True)
        if machine.engine.active:
            _fail(
                "run finished with active epochs: "
                f"{sorted(machine.engine.active)}"
            )
        for entry in machine.l2.speculative_entries():
            _fail(
                f"run finished with speculative L2 state on line "
                f"0x{entry.tag:x} (owner={entry.owner})"
            )
        for latch_id, state in machine.latches._latches.items():
            if state.holder is not None:
                _fail(f"run finished with latch {latch_id} still held")
            if state.waiters:
                _fail(f"run finished with waiters on latch {latch_id}")

    # ------------------------------------------------------------------
    # Protocol checks (engine + machine agreement)
    # ------------------------------------------------------------------

    def check_protocol(self, machine: "Machine") -> None:
        engine = machine.engine
        # Engine-level ordering/context/start-table invariants live on
        # the engine itself; the L2 structural sweep is done separately
        # in check_memory, so skip it here (deep=False).
        try:
            engine.check_invariants(deep=False)
        except AssertionError as exc:
            raise InvariantError(str(exc)) from exc
        # Machine <-> engine agreement: a CPU's epoch is the engine's.
        for cpu in machine.cpus:
            epoch = cpu.epoch
            if epoch is None or epoch.status == EpochStatus.COMMITTED:
                continue
            if engine.active.get(epoch.order) is not epoch:
                _fail(
                    f"cpu {cpu.index} runs epoch order {epoch.order} "
                    "unknown to the engine"
                )
            if epoch.cpu != cpu.index:
                _fail(
                    f"epoch order {epoch.order} claims cpu {epoch.cpu} "
                    f"but runs on cpu {cpu.index}"
                )

    # ------------------------------------------------------------------
    # Memory-system sweep (L1 / L2 / victim cache consistency)
    # ------------------------------------------------------------------

    def check_memory(self, machine: "Machine", deep: bool = False) -> None:
        """Sweep speculative memory state.

        The periodic (``deep=False``) sweep enumerates candidate lines
        through the L2's ctx->lines index and the victim cache, so its
        cost tracks the *speculative working set*, not the cache
        geometry — a 2MB L2 has 16K sets, and walking all of them every
        interval is what would blow the <=2x overhead budget.  The
        ``deep`` sweep (end of run) walks the full geometry, which also
        catches speculative entries the ctx index failed to cover.
        """
        self.sweeps += 1
        self._check_l2(machine, deep=deep)
        self._check_l1(machine)

    def _candidate_entries(self, l2) -> list:
        """L2 versions reachable from speculative-state indexes."""
        tags = set()
        for lines in l2._ctx_lines.values():
            tags.update(lines)
        entries = []
        for tag in sorted(tags):
            entries.extend(l2._set_for(tag).versions_of(tag))
        seen = {id(e) for e in entries}
        for entry in l2.victim.entries():
            if id(entry) not in seen:
                entries.append(entry)
        return entries

    def _check_l2(self, machine: "Machine", deep: bool = False) -> None:
        engine = machine.engine
        l2 = machine.l2
        committed_seen = set()
        entries = l2.all_entries() if deep else self._candidate_entries(l2)
        for entry in entries:
            # Version ordering: owners are COMMITTED or active epochs,
            # with at most one committed version per line chip-wide.
            if entry.owner != COMMITTED:
                epoch = engine.active.get(entry.owner)
                if epoch is None:
                    _fail(
                        f"L2 version of line 0x{entry.tag:x} owned by "
                        f"non-active epoch order {entry.owner}"
                    )
                if not entry.spec_mod:
                    _fail(
                        f"speculative version of line 0x{entry.tag:x} "
                        f"(owner {entry.owner}) has no modified words"
                    )
            else:
                if entry.tag in committed_seen:
                    _fail(
                        f"two committed versions of line 0x{entry.tag:x}"
                    )
                committed_seen.add(entry.tag)
            # Speculative bits must belong to live sub-thread contexts.
            for which, ctx_mask in (
                ("load", entry.spec_loaded),
                ("mod", entry.spec_mod),
            ):
                for ctx in ctx_mask:
                    order = engine.directory.order.get(ctx)
                    epoch = (
                        engine.active.get(order)
                        if order is not None else None
                    )
                    if epoch is None:
                        _fail(
                            f"spec-{which} bit on line 0x{entry.tag:x} "
                            f"for ctx {ctx} of non-active epoch {order}"
                        )
                    if ctx not in epoch.all_ctxs():
                        _fail(
                            f"spec-{which} bit on line 0x{entry.tag:x} "
                            f"for ctx {ctx} not owned by epoch "
                            f"{epoch.order}'s live sub-threads"
                        )
                    if which == "mod" and entry.owner != epoch.order:
                        _fail(
                            f"spec-mod bit for epoch {epoch.order} on a "
                            f"version owned by {entry.owner} "
                            f"(line 0x{entry.tag:x})"
                        )
        # Set-structure invariants (duplicates, geometry, victim bound):
        # proportional to cache size, so deep sweeps only.
        if deep:
            try:
                l2.check_invariants()
            except AssertionError as exc:
                raise InvariantError(str(exc)) from exc
        # The ctx -> lines index must point at real speculative state.
        for ctx in l2._ctx_lines:
            order = engine.directory.order.get(ctx)
            epoch = engine.active.get(order) if order is not None else None
            if epoch is None or ctx not in epoch.all_ctxs():
                _fail(
                    f"L2 ctx-line index holds ctx {ctx} with no live "
                    f"owning sub-thread (epoch order {order})"
                )

    def _check_l1(self, machine: "Machine") -> None:
        """Speculative-bit consistency between each L1 and the L2.

        A ``notified`` L1 line promises the L2 already carries a
        speculative-load bit for the running epoch on that line, so the
        CPU may hit locally without informing the L2.  If the promise is
        ever false, violations can be missed — the classic silent-stale-
        read bug this checker exists to catch.  Epochs that received the
        homefree token mid-flight keep their notified marks but have had
        their L2 bits committed, so only speculative epochs are checked.
        """
        engine = machine.engine
        l2 = machine.l2
        for cpu in machine.cpus:
            epoch = cpu.epoch
            if epoch is None or not epoch.speculative:
                continue
            if epoch.status == EpochStatus.COMMITTED:
                continue
            ctxs = set(epoch.all_ctxs())
            for line in cpu.l1.spec_lines():
                if not line.notified:
                    continue
                versions = l2.versions_of_line(line.tag)
                if not any(
                    ctx in entry.spec_loaded
                    for entry in versions
                    for ctx in ctxs
                ):
                    _fail(
                        f"L1 of cpu {cpu.index} marks line "
                        f"0x{line.tag:x} notified but the L2 holds no "
                        f"speculative-load bit for epoch {epoch.order}"
                    )
