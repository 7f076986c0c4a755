"""Sub-thread start tables for selective secondary violations (Figure 4).

When any sub-thread (j, s) begins, epoch *j* broadcasts a *subthreadStart*
message to all logically-later epochs; each later epoch *k* records which
of its own sub-threads was executing at that moment.  When (j, s) is later
rewound, epoch *k* consults its table entry for (j, s): sub-threads of *k*
that completed before (j, s) even began cannot have consumed data from it
and need not restart.

If *k* has no entry for (j, s) — because *k* started executing after
(j, s) began — then *all* of *k* ran concurrently with or after (j, s) and
*k* must restart from its first sub-thread.

Without start tables (``enabled=False``, the Figure 4(a) configuration) a
secondary violation restarts the entire later epoch.
"""

from __future__ import annotations

from typing import Dict, Tuple


class SubThreadStartTable:
    """One epoch's record of when earlier epochs' sub-threads began."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: (earlier epoch order, sub-thread index) -> our sub-thread index
        #: that was executing when the message arrived.
        self._entries: Dict[Tuple[int, int], int] = {}

    def record(self, sender_order: int, sender_subidx: int,
               our_subidx: int) -> None:
        """Process a subthreadStart message from (sender, sub-thread)."""
        if not self.enabled:
            return
        self._entries[(sender_order, sender_subidx)] = our_subidx

    def restart_point(self, sender_order: int, sender_subidx: int) -> int:
        """Sub-thread index this epoch must rewind to for a secondary
        violation rooted at (sender, sub-thread).

        Returns 0 (full restart) when tables are disabled or no entry
        exists (we began after the violated sub-thread did).
        """
        if not self.enabled:
            return 0
        return self._entries.get((sender_order, sender_subidx), 0)

    def forget_epoch(self, sender_order: int) -> None:
        """Drop entries for a committed/retired earlier epoch."""
        stale = [k for k in self._entries if k[0] == sender_order]
        for k in stale:
            del self._entries[k]

    def truncate_after_rewind(self, our_subidx: int) -> None:
        """After we rewind to ``our_subidx``, entries pointing into the
        rewound future are clamped: those sub-threads will re-begin, and
        any dependence they develop is re-tracked from scratch.
        """
        for key, val in self._entries.items():
            if val > our_subidx:
                self._entries[key] = our_subidx

    def __len__(self) -> int:
        return len(self._entries)
