"""Non-blocking negotiation: Paxos Commit decisions + fair arbitration.

Two mechanisms that remove the last single points of failure and
starvation from the cleanup round, both configured through one frozen
:class:`NegotiationSpec` on the cluster facade:

**Paxos Commit** (Gray & Lamport, *Consensus on Transaction Commit*).
Every cleanup round decides through it: after the participant-scoped
synchronization, each participant's *prepared* verdict is one paxos
instance, a 2F+1 acceptor set (the origin first, then the other
participants lowest-first) logs the joint decision to its write-ahead
logs *before* acking, and the decision exists once a quorum of acks
reaches the driver.  :data:`DEFAULT_NEGOTIATION` is F = 0 -- 2PC *is*
Paxos Commit with F = 0: the origin's logged accept is the forced
commit record and no decision message is sent.  With F >= 1 the
coordinator *handles* the :class:`~repro.protocol.messages.Phase2b`
acks, so a fault plan can crash it mid-quorum -- and any surviving
participant then completes the round: it solicits
the acceptors' logged state at a higher ballot (an empty-verdict
:class:`~repro.protocol.messages.Phase2a` doubles as promise +
report), re-drives the accepts, announces
:class:`~repro.protocol.messages.Complete`, and the cluster runs T'
and the install over the live participants with the survivor as
origin.  The crashed origin catches up at recovery: it replays its
WAL, re-executes the missed T' on its (already synchronized) state --
T' is deterministic, so the re-run reproduces the round's writes
exactly -- and receives the round's treaty before rejoining.

The decision phase sits strictly **between** synchronization and the
T' re-run, which is what makes every failure mode clean: a round that
never reaches a quorum aborts having changed nothing (the sync only
refreshed snapshots with owner-authoritative values), and a round
whose decision is quorum-durable always runs to completion -- by its
origin or by a survivor.

**Budgeted priority credit** (the conviction-staking idea from the
roundtable-consensus design).  The vote phase's
``(timestamp, site, txn_seq)`` priority tuple has a starvation hole:
on equal timestamps the site id decides, so a hot low-numbered site
wins every election and a remote contender can lose unboundedly
often.  Under ``policy="credit"`` each election loss accrues
``credit_unit`` of priority credit (capped at ``credit_cap``), the
credit term is folded into the bid *ahead of the site id* --
``(timestamp, -credit, site, txn_seq)`` -- and winning spends the
balance back to zero.  A loser's next bid therefore strictly improves
until it beats any equal-timestamp rival, bounding the maximum number
of consecutive losses; arbitration stays deterministic because the
credit rides inside the :class:`~repro.protocol.messages.Vote`
message, so every contender computes the same winner from the
exchanged bids.  ``policy="priority"`` keeps the legacy ordering
(credit is tracked for observability but never bid).

:class:`CreditLedger` is also the fairness meter: per-site win/loss
counters, consecutive-loss streaks, and wait samples (elections lost
before finally winning) feed ``fairness_stats()`` on the cluster
facade and the contention benchmark's fairness gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.protocol.messages import Complete, Phase2a, Phase2b
from repro.protocol.transport import Transport, UnreachableError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.site import SiteServer

__all__ = [
    "CreditLedger",
    "DEFAULT_NEGOTIATION",
    "NegotiationSpec",
    "PaxosCommitDriver",
    "QuorumUnreachable",
]

#: Arbitration policies a :class:`NegotiationSpec` can name.
POLICIES = ("priority", "credit")


class QuorumUnreachable(Exception):
    """The decision round could not become (or be proven) durable: too
    few acceptors are reachable, or no acceptor of a crashed
    coordinator's round ever logged an accept.  Nothing irreversible
    has happened -- T' only runs after a quorum-durable decision -- so
    the caller aborts the round cleanly and the transaction retries
    after recovery."""


@dataclass(frozen=True)
class NegotiationSpec:
    """Facade-level configuration of the negotiation's decision and
    arbitration machinery (attach to
    :class:`~repro.protocol.config.ClusterSpec` via ``negotiation=``).

    Every cleanup round runs the Paxos Commit decision phase described
    in the module docstring over :meth:`acceptors_for`; a cluster that
    names no spec gets :data:`DEFAULT_NEGOTIATION` (F = 0, the
    priority ordering).
    """

    #: arbitration policy: ``"priority"`` is the legacy
    #: ``(timestamp, site, txn_seq)`` ordering; ``"credit"`` folds the
    #: budgeted priority credit in ahead of the site id
    policy: str = "priority"
    #: acceptor-set size (2F+1; co-located on participant sites, see
    #: :meth:`acceptors_for`, clamped to the participant count)
    acceptors: int = 3
    #: credit accrued per lost election under ``policy="credit"``
    credit_unit: int = 1
    #: accrual ceiling -- the budget that bounds how far a streak of
    #: losses can escalate one site's priority
    credit_cap: int = 8

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown arbitration policy {self.policy!r}; "
                f"expected one of {POLICIES}"
            )
        if self.acceptors < 1 or self.acceptors % 2 == 0:
            raise ValueError(
                f"acceptors must be odd and positive (2F+1), got {self.acceptors}"
            )
        if self.credit_unit < 1:
            raise ValueError("credit_unit must be at least 1")
        if self.credit_cap < self.credit_unit:
            raise ValueError("credit_cap must be at least credit_unit")

    def acceptors_for(
        self, origin: int, participants: Iterable[int]
    ) -> tuple[int, ...]:
        """A round's acceptor set: the coordinator first, then the
        other participants lowest-first, ``acceptors`` of them
        (deterministic, co-located, and inside the round's transport
        scope by construction).  The coordinator's own accept is a
        local WAL append, so F = 0 sends no decision message."""
        others = sorted(set(participants) - {origin})
        return (origin, *others)[: self.acceptors]


#: The spec of a cluster that names none: F = 0, the coordinator as
#: sole acceptor (two-phase commit), the priority ordering.
DEFAULT_NEGOTIATION = NegotiationSpec(acceptors=1)


def _percentile(samples: list[int], q: float) -> float:
    """Nearest-rank percentile of a small sample list (0.0 if empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return float(ordered[rank])


@dataclass
class CreditLedger:
    """Per-site priority-credit balances and fairness counters.

    The ledger is the arbitration's memory: losing an election accrues
    ``credit_unit`` (capped), winning spends the balance back to zero,
    and under ``policy="credit"`` the balance is bid (negated) ahead
    of the site id.  It is also the fairness meter behind
    ``fairness_stats()``: consecutive-loss streaks and wait samples
    (elections a site lost before finally winning one) are recorded
    regardless of policy, so the two policies can be compared on
    identical workloads.
    """

    spec: NegotiationSpec = DEFAULT_NEGOTIATION
    _credit: dict[int, int] = field(default_factory=dict)
    _streak: dict[int, int] = field(default_factory=dict)
    _max_streak: dict[int, int] = field(default_factory=dict)
    _wins: dict[int, int] = field(default_factory=dict)
    _losses: dict[int, int] = field(default_factory=dict)
    _waits: dict[int, list[int]] = field(default_factory=dict)
    #: contested elections resolved (groups with more than one bid)
    elections: int = 0

    def bid_credit(self, site: int) -> int:
        """The credit a site folds into its next bid (0 under the
        legacy policy -- the ordering must stay byte-identical)."""
        if self.spec.policy != "credit":
            return 0
        return self._credit.get(site, 0)

    def record_election(self, winner_site: int, loser_sites: Iterable[int]) -> None:
        """Settle one resolved election: the winner spends its credit
        and closes its losing streak (the streak length becomes a wait
        sample); each loser accrues credit and extends its streak."""
        losers = list(loser_sites)
        if losers:
            self.elections += 1
        self._wins[winner_site] = self._wins.get(winner_site, 0) + 1
        self._waits.setdefault(winner_site, []).append(
            self._streak.get(winner_site, 0)
        )
        self._streak[winner_site] = 0
        self._credit[winner_site] = 0
        for site in losers:
            self._losses[site] = self._losses.get(site, 0) + 1
            streak = self._streak.get(site, 0) + 1
            self._streak[site] = streak
            if streak > self._max_streak.get(site, 0):
                self._max_streak[site] = streak
            self._credit[site] = min(
                self.spec.credit_cap,
                self._credit.get(site, 0) + self.spec.credit_unit,
            )

    def max_consecutive_losses(self) -> int:
        """The longest losing streak any site suffered (the quantity
        the fairness gate bounds)."""
        return max(self._max_streak.values(), default=0)

    def stats(self) -> dict:
        """The fairness report ``fairness_stats()`` surfaces."""
        sites = (
            set(self._wins) | set(self._losses) | set(self._max_streak)
        )
        per_site = {}
        for site in sorted(sites):
            waits = self._waits.get(site, [])
            per_site[site] = {
                "wins": self._wins.get(site, 0),
                "losses": self._losses.get(site, 0),
                "max_consecutive_losses": self._max_streak.get(site, 0),
                "credit": self._credit.get(site, 0),
                "wait_p50": _percentile(waits, 0.50),
                "wait_p99": _percentile(waits, 0.99),
            }
        return {
            "policy": self.spec.policy,
            "elections": self.elections,
            "max_consecutive_losses": self.max_consecutive_losses(),
            "per_site": per_site,
        }


@dataclass
class PaxosCommitDriver:
    """Drives the quorum decision phase of one cleanup round.

    The driver is a kernel-side orchestrator over the typed transport:
    it speaks :class:`~repro.protocol.messages.Phase2a` /
    :class:`~repro.protocol.messages.Phase2b` /
    :class:`~repro.protocol.messages.Complete` to the acceptor state
    machines hosted on the :class:`~repro.protocol.site.SiteServer`s
    (same co-location the paper's deployment would use).  Paxos
    instance ids are transport negotiation indices -- unique per
    round, shared knowledge of every participant.
    """

    transport: Transport
    sites: Mapping[int, "SiteServer"]
    spec: NegotiationSpec

    def quorum_of(self, acceptors: tuple[int, ...]) -> int:
        return len(acceptors) // 2 + 1

    # -- the coordinator path ------------------------------------------------------

    def decide(
        self, origin: int, round_number: int, participants: Iterable[int]
    ) -> int:
        """Make the round's commit decision quorum-durable.

        Every participant is *prepared* (the synchronization
        completed), so the coordinator proposes all-prepared verdicts
        at ballot 0 (:meth:`_drive_accepts`).  Returns the ack count
        (>= quorum).

        Raises :class:`UnreachableError` when the **coordinator
        itself** crashes mid-quorum (the survivable window -- the
        caller runs survivor completion), and
        :class:`QuorumUnreachable` when too many *acceptors* are lost
        for the decision to become durable (the caller aborts the
        round cleanly; T' has not run anywhere).
        """
        members = sorted(set(participants))
        verdicts = tuple((p, True) for p in members)
        acceptors = self.spec.acceptors_for(origin, members)
        acks = self._drive_accepts(origin, acceptors, round_number, 0, verdicts)
        if acks < self.quorum_of(acceptors):
            raise QuorumUnreachable(
                f"decision round {round_number}: {acks} acks from "
                f"{len(acceptors)} acceptors (quorum {self.quorum_of(acceptors)})"
            )
        return acks

    def _drive_accepts(
        self,
        sender: int,
        acceptors: tuple[int, ...],
        round_number: int,
        ballot: int,
        verdicts: tuple[tuple[int, bool], ...],
    ) -> int:
        """Propose ``verdicts`` at ``ballot`` to every live acceptor and
        return the ack count.  The sender's own acceptor accepts
        locally; a remote one logs the accept before its
        :class:`~repro.protocol.messages.Phase2b` ack crosses back
        (sent on its behalf, like a
        :class:`~repro.protocol.messages.VoteReply`).  A lost acceptor
        may or may not have logged -- either way the quorum can still
        form from the others; a lost *sender* (it died handling an ack:
        the non-blocking window) re-raises."""
        acks = 0
        for acceptor in acceptors:
            if self.transport.is_down(acceptor):
                continue
            try:
                if acceptor == sender:
                    if not self.sites[sender].paxos_accept(
                        round_number, ballot, verdicts
                    ):
                        continue
                else:
                    accepted = self.transport.send(
                        Phase2a(
                            src=sender,
                            dst=acceptor,
                            round_number=round_number,
                            ballot=ballot,
                            verdicts=verdicts,
                        )
                    )
                    if not accepted:
                        continue
                    self.transport.send(
                        Phase2b(
                            src=acceptor,
                            dst=sender,
                            round_number=round_number,
                            ballot=ballot,
                            acked=True,
                        )
                    )
                acks += 1
            except UnreachableError:
                if self.transport.is_down(sender):
                    raise
        return acks

    # -- the survivor path ---------------------------------------------------------

    def complete_as_survivor(
        self,
        survivor: int,
        round_number: int,
        origin: int,
        participants: Iterable[int],
        tx_name: str = "",
    ) -> bool:
        """Finish a round whose coordinator ``origin`` crashed
        mid-decision.

        The survivor solicits every live acceptor's logged state at
        ballot 1 (an empty-verdict :class:`Phase2a` is promise +
        report), adopts the reported verdicts if any acceptor accepted
        at ballot 0, re-drives the accepts at ballot 1 until a quorum
        acks, and announces :class:`Complete` to the other live
        participants.  Returns the decision (always commit here: the
        only proposable verdicts are all-prepared).

        Raises :class:`QuorumUnreachable` when no live acceptor ever
        logged an accept (the decision provably never became durable
        against the promised quorum -- the round aborts cleanly, T'
        never ran) or when fewer than a quorum of acceptors remain;
        raises :class:`UnreachableError` when the survivor itself
        crashes mid-completion (the caller tries the next survivor).
        """
        members = sorted(set(participants))
        acceptors = self.spec.acceptors_for(origin, members)
        quorum = self.quorum_of(acceptors)
        adopted: tuple[tuple[int, bool], ...] | None = None
        promised = 0
        for acceptor in acceptors:
            if self.transport.is_down(acceptor):
                continue
            try:
                if acceptor == survivor:
                    state = self.sites[acceptor].paxos_promise(round_number, 1)
                else:
                    state = self.transport.send(
                        Phase2a(
                            src=survivor,
                            dst=acceptor,
                            round_number=round_number,
                            ballot=1,
                            verdicts=(),
                        )
                    )
            except UnreachableError:
                if self.transport.is_down(survivor):
                    raise
                continue
            promised += 1
            if state is not None and adopted is None:
                adopted = tuple(state)
        if adopted is None:
            # No live acceptor logged an accept.  With a quorum of
            # promises at ballot 1, ballot 0 can never complete behind
            # our back, so declaring the round undecided is safe; with
            # fewer, nothing can be proven either way -- same clean
            # abort (T' only runs after an observed quorum, and the
            # crashed coordinator observed none it could act on).
            raise QuorumUnreachable(
                f"round {round_number}: no live acceptor logged an accept "
                f"({promised} promises)"
            )
        acks = self._drive_accepts(survivor, acceptors, round_number, 1, adopted)
        if acks < quorum:
            raise QuorumUnreachable(
                f"round {round_number}: survivor {survivor} re-drove only "
                f"{acks} acks (quorum {quorum})"
            )
        committed = all(ok for _p, ok in adopted)
        for peer in members:
            if peer == survivor or self.transport.is_down(peer):
                continue
            try:
                self.transport.send(
                    Complete(
                        src=survivor,
                        dst=peer,
                        round_number=round_number,
                        committed=committed,
                        tx_name=tx_name,
                    )
                )
            except UnreachableError:
                if self.transport.is_down(survivor):
                    raise
                # A peer lost after the decision became durable: it
                # catches up at recovery like the crashed coordinator.
                continue
        return committed
