"""Inter-site message vocabulary.

The correctness kernel executes synchronously but sends every message
the real distributed system would send through a typed
:class:`~repro.protocol.transport.Transport`; the discrete-event
simulator prices the recorded trace with per-edge network latencies.
The message complexity of one treaty negotiation matches Section 5.1:
"every treaty negotiation requires two rounds of global communication
-- one for synchronizing database state across nodes and one for
communicating the new treaties".  The second round is elided: the
solver is deterministic, so every participant recomputes the
identical treaty locally.

With participant-scoped synchronization the "global" in the quote
shrinks to the participant set of the violation: a cleanup round over
``p`` participants costs ``p*(p-1)`` :class:`SyncBroadcast` messages,
``p-1`` votes and ``p-1`` cleanup-run instructions -- independent of
the cluster size.

When several transactions violate treaties in the same window (the
concurrent runtime), the vote phase is real: each racing violator
broadcasts its :class:`Vote` -- carrying its ``(timestamp, site,
txn_seq)`` priority tuple -- to every other contender, the lowest
tuple wins deterministically, and each loser concedes with a
:class:`VoteReply` before aborting and re-running after the winner's
negotiation installs new treaties.

The round's commit decision is Paxos Commit, between synchronization
and the T' re-run: :class:`Phase2a` accept requests to the remote
members of a 2F+1 acceptor set (none at F = 0, the default), and
:class:`Phase2b` acks back; a surviving participant can finish a
round whose coordinator crashed mid-quorum (:class:`Complete`).

Two message families sit outside the violation path: the adaptive
subsystem's :class:`RebalanceRequest` (a proactive treaty refresh,
no abort involved) and the fault-tolerant runtime's :class:`Rejoin`
(a recovered site re-entering the cluster after replaying its
write-ahead log).  The 2PC baseline speaks :class:`Prepare` /
:class:`Decision` over the same transport so its message complexity
is measured by the same trace.

Each message class documents its **sender**, **receiver(s)**, and
**when** it is sent; together they specify the whole wire protocol
(see ``docs/ARCHITECTURE.md`` for a worked message-flow example).

:class:`MessageStats` is a *derived view* over a transport trace, not
a set of live counters: the kernel never increments anything by hand,
it just sends messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable


class Outcome(enum.Enum):
    """Final status of one submitted transaction, shared by every
    result surface (:class:`~repro.protocol.homeostasis.ClusterResult`,
    :class:`~repro.protocol.kernel.WindowOutcome`, and the serve
    wire protocol), so callers stop fingerprinting exception types
    against ``failed`` flags.

    - ``COMMITTED``: the transaction's effects are durable -- either a
      local disconnected commit or a commit through a cleanup round.
    - ``ABORTED``: the submission was rejected before any protocol
      round ran (e.g. an unknown transaction name at the serve layer);
      no state changed.
    - ``REFUSED``: a site the submission needs is *known* to be down
      (its origin, or a known-crashed member of its negotiation's
      participant closure), so the round was refused up front without
      wasting messages.  Retry after recovery.
    - ``UNAVAILABLE``: a crash was discovered mid-round by waiting out
      a timeout; the round aborted cleanly and nothing changed.  Retry
      after recovery.
    """

    COMMITTED = "committed"
    ABORTED = "aborted"
    UNAVAILABLE = "unavailable"
    REFUSED = "refused"


@dataclass(frozen=True)
class Message:
    """One directed inter-site message (src and dst are site ids)."""

    src: int
    dst: int

    @property
    def edge(self) -> tuple[int, int]:
        """The undirected network edge this message crosses."""
        a, b = self.src, self.dst
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class SyncBroadcast(Message):
    """State exchange: the sender's share of the round's update set
    (its dirty owned objects plus its owned objects that feed
    recomputed treaty factors).

    **Sender**: every participant of a synchronization round.
    **Receiver**: every other participant (all-to-all, ``p*(p-1)``
    messages for ``p`` participants).  **When**: the synchronize phase
    of any cleanup, forced-sync, rebalance, or rejoin round.
    """

    updates: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Vote(Message):
    """Violation-winner election message for the cleanup phase.

    **Sender**: a contender (racing violator, or -- in the adaptive
    runtime -- a committed transaction whose refresh desire contends).
    **Receiver**: every other contender of its conflict group, then
    the non-contender participants of the winner's closure.  **When**:
    the vote phase, after optimistic execution and before any state
    is exchanged.

    ``(timestamp, -credit, src, txn_seq)`` is the sender's priority
    tuple; among racing violators the lowest tuple wins.  ``credit``
    is the sender's accrued priority credit under the budgeted-credit
    arbitration policy (always 0 under the legacy priority policy):
    folding it in *ahead of the site id* closes the starvation hole
    where equal-timestamp ties always favored low-numbered sites.
    The credit rides inside the bid so the election stays a
    deterministic function of the exchanged messages.  A winner also
    broadcasts its Vote to the non-contender participants of its
    negotiation, announcing which transaction the round re-runs.
    """

    tx_name: str = ""
    #: arrival timestamp of the violating transaction (window order)
    timestamp: int = 0
    #: cluster-wide transaction sequence number (final tiebreak)
    txn_seq: int = 0
    #: accrued priority credit bid by the sender (credit policy only)
    credit: int = 0


@dataclass(frozen=True)
class VoteReply(Message):
    """Arbitration reply: a losing contender concedes the election.

    **Sender**: each losing contender of a conflict group.
    **Receiver**: the group's winner.  **When**: immediately after the
    vote exchange, before the winner's negotiation begins.

    The loser will abort and re-run after the winner's negotiation
    installs new treaties (a losing *refresh* desire instead re-checks
    its watermark next wave).  A concession is never withheld -- the
    election is a deterministic function of the exchanged priority
    tuples, so every contender computes the same winner."""

    winner_site: int = -1
    winner_txn: int = -1


@dataclass(frozen=True)
class RebalanceRequest(Message):
    """Proactive treaty-refresh announcement (adaptive reallocation).

    **Sender**: a site whose remaining slack on a treaty clause fell
    below the low-watermark.  **Receiver**: each other participant of
    the refresh's closure.  **When**: right after the triggering
    commit, before the scoped synchronization; the receiver logs the
    request to its write-ahead log before acknowledging.

    Sent by a site whose remaining slack on a treaty clause fell below
    the low-watermark *before* any violation occurred: the origin asks
    the participants of the affected factors to run a scoped
    synchronization + treaty regeneration round so the demand-weighted
    configuration can shift unused budget from cold sites to the hot
    one.  ``objects`` is the seed of the participant closure: the
    clause objects that breached the watermark plus the origin's
    accumulated dirty objects.  No transaction aborts and no cleanup
    re-run happens -- the round is sync + install only.
    """

    objects: tuple[str, ...] = ()


@dataclass(frozen=True)
class CleanupRun(Message):
    """Instruction to re-run the winning transaction T' in full on the
    synchronized state (carries the transaction id and parameters).

    **Sender**: the round's origin (the winner's site).  **Receiver**:
    each other participant.  **When**: the execute phase of a cleanup
    round, after state synchronization; the reply carries the
    ``(log, written)`` pair the coordinator cross-checks against its
    own run (T' is deterministic, so all runs must agree).
    """

    tx_name: str = ""
    params: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Rejoin(Message):
    """A recovered site announces it is re-entering the cluster.

    **Sender**: a site that crash-stopped, restarted, and replayed its
    write-ahead log (its installed treaty is already restored
    locally).  **Receiver**: each other participant of its rejoin
    round -- the sites whose treaty factors it shares.  **When**: at
    recovery, before the scoped re-synchronization that refreshes the
    rejoiner's snapshots of remote factor state.  ``wal_round`` is the
    treaty round number the WAL replayed to, so peers can detect a
    site rejoining with a stale (pre-crash) treaty epoch.
    """

    wal_round: int = -1


@dataclass(frozen=True)
class Phase2a(Message):
    """Paxos Commit accept-request: the coordinator (or a completing
    survivor) asks an acceptor to make the round's verdicts durable.

    **Sender**: the negotiation's coordinator at ballot 0; a surviving
    participant at a higher ballot when completing a round whose
    coordinator crashed.  **Receiver**: each remote member of the
    round's 2F+1 acceptor set (acceptors are co-located on participant
    sites; the sender's own acceptor accepts locally).  **When**: the
    decision phase of a quorum-negotiated cleanup round, after state
    synchronization and before T' re-executes (at F = 0 the
    coordinator is the only acceptor and sends none).

    ``verdicts`` carries one ``(participant, prepared)`` pair per
    paxos instance (every participant was prepared once the sync
    completed).  An **empty** ``verdicts`` at a higher ballot is the
    survivor's promise-and-report solicitation: the acceptor promises
    the ballot and replies with the verdicts it accepted earlier (or
    ``None`` if it never accepted), instead of accepting anything new.
    The acceptor **logs every accept to its write-ahead log before
    acking**, which is what makes a quorum of acks a durable decision.
    """

    round_number: int = 0
    ballot: int = 0
    verdicts: tuple[tuple[int, bool], ...] = ()


@dataclass(frozen=True)
class Phase2b(Message):
    """Paxos Commit accept-acknowledgement crossing back to the driver.

    **Sender**: an acceptor that just logged a
    :class:`Phase2a` accept (the kernel sends on the acceptor's
    behalf, like a :class:`VoteReply`).  **Receiver**: the round's
    coordinator -- or the completing survivor.  **When**: immediately
    after the WAL append; the decision becomes durable once a quorum
    of these arrive.  Because the *coordinator handles* these acks,
    a fault plan can crash it mid-quorum -- the non-blocking window
    this message family exists to survive.
    """

    round_number: int = 0
    ballot: int = 0
    acked: bool = True


@dataclass(frozen=True)
class Complete(Message):
    """Survivor-completion announcement of a decided round.

    **Sender**: the surviving participant that completed a round whose
    coordinator crashed mid-decision.  **Receiver**: each other live
    participant.  **When**: after the survivor re-drove the accepts at
    its higher ballot and reached a quorum; the receiver logs a
    ``round_complete`` record so recovery can see the round was
    decided without its coordinator.
    """

    round_number: int = 0
    committed: bool = True
    tx_name: str = ""


@dataclass(frozen=True)
class Prepare(Message):
    """2PC phase one: write set shipped to a cohort replica.

    **Sender**: the transaction's origin replica (coordinator).
    **Receiver**: every other replica (ROWA).  **When**: on every 2PC
    commit, after local execution; the reply is the cohort's vote.
    An unreachable cohort blocks the commit -- the availability
    failure mode homeostasis avoids (Gray & Lamport).
    """

    updates: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Decision(Message):
    """2PC phase two: commit/abort decision.

    **Sender**: the coordinator.  **Receiver**: every cohort that was
    prepared.  **When**: after all votes arrive (commit), or as soon
    as any cohort is unreachable or votes no (abort).
    """

    commit: bool = True


@dataclass
class MessageStats:
    """Counters for the communication a protocol run incurred.

    Build one with :meth:`from_trace`; the fields mirror the message
    vocabulary above.  ``negotiations`` counts synchronization rounds
    (cleanup-phase and forced), which is how the paper reports
    communication frequency.
    """

    sync_broadcasts: int = 0  # state-synchronization messages
    vote_messages: int = 0  # violation-winner election messages
    vote_replies: int = 0  # arbitration concessions from losing contenders
    rebalance_requests: int = 0  # proactive treaty-refresh announcements
    rejoin_messages: int = 0  # recovered-site re-entry announcements
    cleanup_messages: int = 0  # cleanup-run (re-execute T') messages
    phase2a_messages: int = 0  # Paxos Commit accept requests / solicitations
    phase2b_messages: int = 0  # Paxos Commit accept acknowledgements
    complete_messages: int = 0  # survivor-completion announcements
    prepare_messages: int = 0  # 2PC phase-one messages
    decision_messages: int = 0  # 2PC phase-two messages
    negotiations: int = 0  # treaty negotiation events (round ends)

    _COUNTER_FOR = {
        SyncBroadcast: "sync_broadcasts",
        Vote: "vote_messages",
        VoteReply: "vote_replies",
        RebalanceRequest: "rebalance_requests",
        Rejoin: "rejoin_messages",
        CleanupRun: "cleanup_messages",
        Phase2a: "phase2a_messages",
        Phase2b: "phase2b_messages",
        Complete: "complete_messages",
        Prepare: "prepare_messages",
        Decision: "decision_messages",
    }

    def total(self) -> int:
        return (
            self.sync_broadcasts
            + self.vote_messages
            + self.vote_replies
            + self.rebalance_requests
            + self.rejoin_messages
            + self.cleanup_messages
            + self.phase2a_messages
            + self.phase2b_messages
            + self.complete_messages
            + self.prepare_messages
            + self.decision_messages
        )

    @classmethod
    def from_trace(
        cls, messages: Iterable[Message], negotiations: int = 0
    ) -> "MessageStats":
        """Derive the counters from a transport trace."""
        stats = cls(negotiations=negotiations)
        for msg in messages:
            counter = cls._COUNTER_FOR.get(type(msg))
            if counter is None:
                raise TypeError(f"unknown message type {type(msg).__name__}")
            setattr(stats, counter, getattr(stats, counter) + 1)
        return stats
