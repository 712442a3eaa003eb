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

Every commit is exact: its deltas move the rows over the written
objects and those rows are judged on the spot, so after every commit,
accepted or rejected, each counter is its row's slack on the store.

The account is deliberately *not* aware of the storage engine: callers
feed it ``{object: delta}`` maps (the site server derives them from
the undo journal's before-images) and name the objects written
outside a commit (``LocalEngine.moved``), whose rows it reads again.

**One account per site, patched per install.**  The escrow invariant
-- a counter equals ``bound - sum(coeff_i * D(x_i))`` on the current
store, for every row none of whose objects was written outside
:meth:`EscrowAccount.commit` -- is what lets an account outlive the
treaty it was opened for: :meth:`EscrowAccount.install` drops the rows
of the clauses that left, places the rows of the ones that entered
and reads from the store only those and the rows over an object that
moved outside ``commit`` (``LocalEngine.moved``); every other counter
already is the clause's slack on the install-time state.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Mapping

from repro.logic.compile import ClauseRows, EscrowProgram
from repro.logic.linear import LinearConstraint


class EscrowDivergence(AssertionError):
    """The escrow account and the interpreted oracle disagreed on one
    commit's verdict -- a bug in the lowering or the counter state,
    surfaced loudly by validate mode instead of silently weakening (or
    over-enforcing) the treaty."""


class EscrowAccount:
    """Mutable counter state enforcing a site's escrow program.

    :meth:`install` patches the program and the counter list in place,
    so the same account enforces the next treaty.
    """

    def __init__(self, program: EscrowProgram, headroom: Iterable[int]) -> None:
        self.program = program
        #: per-slot headroom, the row's slack on the store (a free slot
        #: keeps whatever its last row left there)
        self.headroom = list(headroom)
        if len(self.headroom) != len(program.rows):
            raise ValueError(
                f"{len(self.headroom)} counters for {len(program.rows)} rows"
            )
        self.counters = {"violations": 0, "resyncs": 0}

    def commit(self, deltas: Mapping[str, int]) -> list[int] | None:
        """Check-and-apply one commit's write deltas.

        Returns ``None`` on acceptance (the deltas stay applied) or the
        sorted list of violated row indices on rejection (the deltas
        are backed out again: the treaty check failed exactly as
        ``violations_after_writes`` would have reported, and the
        caller aborts the transaction).
        """
        headroom = self.headroom
        t_get = self.program.touching.get
        for name, d in deltas.items():
            if d:
                for idx, coeff in t_get(name, ()):
                    headroom[idx] -= coeff * d
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
        if violated is None:
            return None
        for name, d in deltas.items():
            if d:
                for idx, coeff in t_get(name, ()):
                    headroom[idx] += coeff * d
        self.counters["violations"] += 1
        return sorted(violated)

    # -- maintenance -----------------------------------------------------------

    def install(
        self,
        removed: Iterable[ClauseRows],
        added: Iterable[ClauseRows],
        moved: Iterable[str],
        getobj: Callable[[str], int],
    ) -> None:
        """Carry the account to the next treaty: the clauses in
        ``removed`` left, the ones in ``added`` entered, and the
        objects in ``moved`` were written outside :meth:`commit` since
        the counters were last exact.

        Every carried counter already is its clause's slack on the
        store as ``getobj`` reads it -- except the rows over a moved
        object, which are read again beside the new ones.  Counts as
        no resync: a freshly opened account would not have counted
        one.
        """
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

    def resync(self, getobj: Callable[[str], int], moved: Iterable[str]) -> None:
        """Catch up with writes that bypassed :meth:`commit` (sync
        broadcasts, post-sync hooks, cleanup transactions, a crash) and
        that no install followed: read the rows over the objects in
        ``moved`` from the store again."""
        self.install((), (), moved, getobj)
        self.counters["resyncs"] += 1

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
        """Per-row headroom, keyed by row constraint.  ``<=`` clauses
        key their own constraint; an equality pin appears as its two
        derived ``<=`` rows."""
        return {
            row: slack
            for row, slack in zip(self.program.rows, self.headroom)
            if row is not None
        }

    def enforced(self) -> tuple:
        """Everything the commit check reads, with rows named by their
        constraint instead of their slot: two accounts that compare
        equal here admit and reject the same commits.  What a patched
        account is compared to a from-scratch one by."""
        program, headroom = self.program, self.headroom
        rows = program.rows
        return (
            Counter(
                (row, headroom[slot], program.clause_objects[slot])
                for slot, row in enumerate(rows)
                if row is not None
            ),
            {
                name: Counter((rows[slot], coeff) for slot, coeff in pairs)
                for name, pairs in program.touching.items()
            },
        )

    def stats(self) -> dict[str, int]:
        """Cumulative counters."""
        return dict(self.counters)
