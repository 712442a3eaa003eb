"""Escrow headroom counters: the O(1) commit-time treaty check.

Every local treaty that generation produces is a conjunction of
linear ``<=``-bounds over site-owned objects, plus equality pins on
objects the negotiation froze (:func:`repro.logic.compile.
lower_to_escrow` raises on anything else).  Re-evaluating those
clauses on every commit would re-read every object of every clause
touched; this module is the site's one commit-time check instead, and
it never evaluates a clause: it keeps *decrement-only integer headroom
counters* (escrow semantics).  At install time each counter row's
slack ``bound - sum(coeff_i * D(x_i))`` is read once
(:meth:`~repro.logic.linear.LinearConstraint.slack`), and a commit's
check becomes a handful of counter subtractions driven by the
transaction's write deltas.  A violation is exactly "a counter would
go negative", at which point the violated row indices are reported so
the caller can reconstruct the violated-object set for the
cleanup/negotiation path.
An equality pin contributes an opposing pair of zero-slack rows
(``e <= b`` and ``-e <= -b``), so the same "negative counter" test
detects a pin breaking in either direction.

**Window-settlement safety argument.**  Settling every clause on every
commit is already cheap, but the account batches further: commits
accumulate per-object deltas in a pending buffer and the per-clause
counters are settled once per window.  The fast path admits a commit
without touching any counter when

    ``window_drain + drain(txn) <= budget``  and  ``commits < cap``

where ``budget`` is the **minimum headroom over all budget rows** at
the last settlement and ``drain(txn) = sum_x |delta_x| *
max_coeff[x]`` over-approximates how much of any single row's headroom
the commit can consume (``max_coeff[x]`` is the largest |coefficient|
of ``x`` across rows).  Because every budget row had at least
``budget`` slack at the last settlement and the admitted window's
total worst-case consumption never exceeds ``budget``, *no budget row
can be negative anywhere inside the window* -- batching never admits a
violation the per-commit path would have caught.  The moment a
commit's conservative drain would overrun the budget (or the window
cap is reached), the pending deltas are settled exactly per row and
that commit is checked on the exact counters; refills (negative
deltas) are charged ``|delta| * max_coeff`` too, which only costs
extra settlements, never soundness.  Note the budget is global (one
``min``), not per object: per-object budgets would let two objects of
one row each spend the row's full headroom independently.

Pin rows are *excluded* from the budget (their slack is zero whenever
the pin holds, so including them would disable the fast path
outright).  That is sound because a pinned object's worst-case
coefficient is :data:`repro.logic.compile.PIN_DRAIN` and, whenever
any pin row is installed, the budget is additionally capped at
``PIN_DRAIN - 1`` -- so any nonzero delta to a pinned object makes
``drain(txn)`` exceed the budget and the commit lands on the exact
settle-and-check path; a fast-path window therefore never moves a pin
row's value at all.  (Without the cap, a pin-only treaty would have
no budget rows and an uncapped "unbounded" budget would fast-admit
pin-breaking writes.)  A pin row that is already negative -- possible
only when a resync recomputed the counters from a state that breaks
the treaty -- drops the budget to ``-1`` so every commit is judged on
the exact counters, keeping the verdict identical to the interpreted
oracle (:meth:`repro.treaty.table.LocalTreaty.violations_after_writes`)
even off the protocol's H2 happy path.

The account is deliberately *not* aware of the storage engine: callers
feed it ``{object: delta}`` maps (the site server derives them from
the undo journal's before-images) and resynchronize it from the store
when non-transactional writes move values underneath it (tracked by
``LocalEngine.epoch``).

**One account per site, patched per install.**  The escrow invariant
-- a settled counter equals ``bound - sum(coeff_i * D(x_i))`` on the
current store, for every row none of whose objects was written outside
:meth:`EscrowAccount.commit` -- is what lets an account outlive the
treaty it was opened for: :meth:`EscrowAccount.install` settles the
open window, drops the rows of the clauses that left, places the rows
of the ones that entered and reads from the store only those and the
rows over an object that moved outside ``commit`` (``LocalEngine.
moved``); every other counter already is the clause's slack on the
install-time state.  The window afterwards is what a freshly opened
account's would be: empty, its budget the minimum over the new rows.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Mapping

from repro.logic.compile import PIN_DRAIN, ClauseRows, EscrowProgram
from repro.logic.linear import LinearConstraint

#: default commit-window size: settle the counters at most every this
#: many commits even when budget remains (bounds the pending buffer
#: and keeps the counters observably fresh)
DEFAULT_WINDOW = 256

#: stand-in budget for an account with no clauses (nothing can be
#: violated, so the window guard should always admit)
_UNBOUNDED = 1 << 62


class EscrowDivergence(AssertionError):
    """The escrow account and the interpreted oracle disagreed on one
    commit's verdict -- a bug in the lowering or the counter state,
    surfaced loudly by validate mode instead of silently weakening (or
    over-enforcing) the treaty."""


class EscrowAccount:
    """Mutable counter state enforcing a site's escrow program.

    The hot path is :meth:`commit`, built as a closure over the
    account's state (cell-variable access keeps the per-commit cost in
    the sub-microsecond range the escrow argument promises).  The
    closure holds the program's index structures and the counter list
    themselves, so :meth:`install` patches them in place and the same
    closure enforces the next treaty.
    """

    def __init__(
        self,
        program: EscrowProgram,
        headroom: Iterable[int],
        epoch: int = 0,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        self.program = program
        #: live per-slot headroom; exact only after :meth:`settle`
        #: (a free slot keeps whatever its last row left there)
        self.headroom = list(headroom)
        if len(self.headroom) != len(program.rows):
            raise ValueError(
                f"{len(self.headroom)} counters for {len(program.rows)} rows"
            )
        self.window = window
        #: the ``LocalEngine.epoch`` the counters were last derived
        #: from; a mismatch means non-transactional writes moved the
        #: store and the caller must :meth:`resync` before trusting
        #: the counters
        self.synced_epoch = epoch
        self.counters = {
            "fast_commits": 0,
            "settled_commits": 0,
            "settlements": 0,
            "violations": 0,
            "resyncs": 0,
        }
        self._install_hot_path()

    # -- hot path --------------------------------------------------------------

    def _install_hot_path(self) -> None:
        program = self.program
        headroom = self.headroom
        touching = program.touching
        budget_idx = program.budget_rows
        cap = self.window
        counters = self.counters
        pending: dict[str, int] = {}
        drain_acc = 0
        commits = 0
        mc_get = program.max_coeff.get
        p_get = pending.get
        t_get = touching.get
        h_get = headroom.__getitem__
        pin_idx = program.pin_rows

        def min_budget() -> int:
            # With any pin row installed the budget must sit below
            # PIN_DRAIN, else a huge (or unbounded, for a pin-only
            # treaty) budget would fast-admit pin-breaking deltas.
            pin_cap = PIN_DRAIN - 1 if pin_idx else _UNBOUNDED
            # A pin row already negative means the installed state
            # breaks the treaty (only reachable through an off-H2
            # resync): force the exact path on every commit so the
            # verdict still matches the interpreted oracle.
            if pin_idx and min(map(h_get, pin_idx)) < 0:
                return -1
            base = min(map(h_get, budget_idx)) if budget_idx else pin_cap
            return base if base < pin_cap else pin_cap

        budget = min_budget()

        def commit(deltas: Mapping[str, int]):
            """Check-and-apply one commit's write deltas.

            Returns ``None`` on acceptance (the deltas are absorbed
            into the window) or the sorted list of violated row
            indices on rejection (no state change: the treaty check
            failed exactly as ``violations_after_writes`` would have
            reported, and the caller aborts the transaction).
            """
            nonlocal drain_acc, commits, budget
            drain = 0
            for name, d in deltas.items():
                mc = mc_get(name)
                if mc:
                    drain += mc * d if d >= 0 else mc * -d
                    pending[name] = p_get(name, 0) + d
            if drain_acc + drain <= budget and commits < cap:
                drain_acc += drain
                commits += 1
                return None
            # Window exhausted (or a violation is possible): settle the
            # pending deltas -- including this commit's, staged above --
            # exactly per row, then judge this commit on the exact
            # counters.
            for pname, pd in pending.items():
                for idx, coeff in touching[pname]:
                    headroom[idx] -= coeff * pd
            pending.clear()
            counters["fast_commits"] += commits
            counters["settlements"] += 1
            counters["settled_commits"] += 1
            drain_acc = 0
            commits = 0
            # Every *written* object's rows are judged (zero deltas
            # included), matching the clause set
            # ``violations_after_writes`` restricts itself to.
            violated: set[int] | None = None
            for name in deltas:
                for idx, _coeff in t_get(name, ()):
                    if headroom[idx] < 0:
                        if violated is None:
                            violated = set()
                        violated.add(idx)
            if violated is not None:
                # Rejected: back this commit's deltas out again (the
                # prior window's commits were all admitted soundly and
                # stay settled).
                for name, d in deltas.items():
                    if d:
                        for idx, coeff in t_get(name, ()):
                            headroom[idx] += coeff * d
                counters["violations"] += 1
            budget = min_budget()
            return sorted(violated) if violated is not None else None

        def flush() -> None:
            """Settle all pending deltas; exact counters afterwards."""
            nonlocal drain_acc, commits, budget
            for pname, pd in pending.items():
                for idx, coeff in touching[pname]:
                    headroom[idx] -= coeff * pd
            pending.clear()
            counters["fast_commits"] += commits
            drain_acc = 0
            commits = 0
            budget = min_budget()

        def discard_window() -> None:
            """Drop pending deltas without applying them (the caller
            just recomputed the counters from the store, which already
            reflects every committed write)."""
            nonlocal drain_acc, commits, budget
            pending.clear()
            counters["fast_commits"] += commits
            drain_acc = 0
            commits = 0
            budget = min_budget()

        def window_state() -> dict:
            return {
                "pending": dict(pending),
                "drain": drain_acc,
                "commits": commits,
                "budget": budget,
            }

        self.commit = commit
        self._flush = flush
        self._discard_window = discard_window
        self.window_state = window_state

    # -- maintenance -----------------------------------------------------------

    def settle(self) -> None:
        """Force a settlement so :attr:`headroom` is exact (tests,
        snapshots, and the pre-read path of anything that wants the
        true per-clause slack)."""
        self._flush()

    def install(
        self,
        removed: Iterable[ClauseRows],
        added: Iterable[ClauseRows],
        moved: Iterable[str],
        getobj: Callable[[str], int],
        epoch: int,
    ) -> None:
        """Carry the account to the next treaty: the clauses in
        ``removed`` left, the ones in ``added`` entered, and the
        objects in ``moved`` were written outside :meth:`commit` since
        the counters were last exact.

        Settles the open window first, so every carried counter is its
        clause's slack on the store as ``getobj`` reads it -- except
        the rows over a moved object, which are read again beside the
        new ones.  Counts as no settlement and no resync: a freshly
        opened account would have counted neither.
        """
        self._flush()
        program, headroom = self.program, self.headroom
        for clause in removed:
            program.remove(clause)
        stale: set[int] = set()
        for clause in added:
            stale.update(program.add(clause))
        headroom.extend([0] * (len(program.rows) - len(headroom)))
        touching = program.touching
        for name in moved:
            for slot, _coeff in touching.get(name, ()):
                stale.add(slot)
        rows = program.rows
        for slot in stale:
            headroom[slot] = rows[slot].slack(getobj)
        self._flush()  # nothing pending: re-reads the budget
        self.synced_epoch = epoch

    def resync(self, getobj: Callable[[str], int], epoch: int | None = None) -> None:
        """Recompute every counter from the store.

        Required after non-transactional writes (sync broadcasts,
        post-sync hooks, cleanup transactions, recovery): the counters
        are an incremental view of clause slack, and any write that
        bypassed :meth:`commit` invalidates that view.  Pending window
        deltas are discarded -- the store already reflects them.
        """
        headroom = self.headroom
        for slot, row in enumerate(self.program.rows):
            if row is not None:
                headroom[slot] = row.slack(getobj)
        self._discard_window()
        self.counters["resyncs"] += 1
        if epoch is not None:
            self.synced_epoch = epoch

    # -- inspection ------------------------------------------------------------

    def violated_objects(self, indices: Iterable[int]) -> frozenset[str]:
        """Objects of the violated clauses (what the cleanup phase's
        participant computation is seeded with)."""
        out: set[str] = set()
        clause_objects = self.program.clause_objects
        for idx in indices:
            out.update(clause_objects[idx])
        return frozenset(out)

    def headroom_map(self) -> dict[LinearConstraint, int]:
        """Exact per-row headroom, keyed by row constraint (settles
        first).  ``<=`` clauses key their own constraint; an equality
        pin appears as its two derived ``<=`` rows."""
        self.settle()
        return {
            row: slack
            for row, slack in zip(self.program.rows, self.headroom)
            if row is not None
        }

    def enforced(self) -> tuple:
        """Everything the commit check reads, with rows named by their
        constraint instead of their slot (settles first): two accounts
        that compare equal here admit and reject the same commits.
        What a patched account is compared to a from-scratch one by."""
        self.settle()
        program, headroom = self.program, self.headroom
        rows = program.rows
        budget_rows, pin_rows = set(program.budget_rows), set(program.pin_rows)
        return (
            Counter(
                (
                    row,
                    headroom[slot],
                    slot in budget_rows,
                    slot in pin_rows,
                    program.clause_objects[slot],
                )
                for slot, row in enumerate(rows)
                if row is not None
            ),
            len(program.budget_rows) + len(program.pin_rows),
            {
                name: Counter((rows[slot], coeff) for slot, coeff in pairs)
                for name, pairs in program.touching.items()
            },
            dict(program.max_coeff),
            self.window_state()["budget"],
        )

    def stats(self) -> dict[str, int]:
        """Cumulative counters, including the still-open window's
        commits (reported as fast commits: they were admitted without
        touching a counter)."""
        out = dict(self.counters)
        out["fast_commits"] += self.window_state()["commits"]
        return out
