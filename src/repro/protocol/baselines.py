"""Baseline execution modes from the evaluation (Section 6.1).

- **LOCAL**: "each replica executes the transactions locally without
  any communication; thus, database consistency across replicas is
  not guaranteed."  A bare-bones performance floor.
- **2PC**: classical strongly-consistent geo-replication -- every
  transaction executes at its origin replica and synchronously
  propagates its write set to all replicas inside a two-phase commit
  (two message rounds per transaction).
- **OPT** (the hand-crafted demarcation-protocol variant) is not a
  separate class: it is :class:`~repro.protocol.kernel.
  HomeostasisCluster` with the ``equal-split`` treaty strategy, which
  "splits and allocates the remaining stock level of each item
  equally among the replicas" at each synchronization point.

Both classes expose the same ``submit`` API as the homeostasis
cluster so experiment harnesses can swap modes.

Under faults the 2PC baseline exhibits exactly the blocking behavior
Gray & Lamport's *Consensus on Transaction Commit* ascribes to it:
every commit needs every replica, so while any replica is crashed or
partitioned away **no** transaction can commit anywhere -- ``submit``
raises :class:`~repro.protocol.homeostasis.Unavailable` (after
aborting the local execution cleanly; the commit is deferred until
the cohort votes arrive, so an unreachable cohort leaves no partial
state).  This is the availability counterpoint the fault scenario
(``benchmarks/scenarios.py``) measures against homeostasis, where only
closures touching the crashed site block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.lang.ast import Transaction
from repro.logic.compile import Residual, compile_residual
from repro.protocol.homeostasis import (
    ClusterResult,
    ClusterStats,
    ProtocolError,
    Unavailable,
)
from repro.protocol.messages import Decision, Message, Prepare
from repro.protocol.transport import Transport, UnreachableError
from repro.storage.engine import LocalEngine, StorageTxn


@dataclass
class _Replica:
    """A full-copy replica; a transport endpoint for 2PC traffic.

    Prepared write sets are **staged** and only applied when the
    commit decision arrives: an aborted 2PC round (unreachable cohort
    elsewhere in the cluster) must leave this replica exactly as it
    was, and a crash while prepared loses only the staged set -- which
    recovery's snapshot catch-up re-fetches from a live peer.
    """

    engine: LocalEngine = field(default_factory=LocalEngine)
    _staged: tuple[tuple[str, int], ...] | None = None

    def handle(self, msg: Message):
        if isinstance(msg, Prepare):
            self._staged = msg.updates
            return True  # vote yes
        if isinstance(msg, Decision):
            if msg.commit and self._staged is not None:
                for name, value in self._staged:
                    self.engine.poke(name, value)
            self._staged = None
            return None
        raise TypeError(f"replica: unhandled message {msg!r}")


class _ReplicatedBase:
    """Shared plumbing: one full copy per replica, transactions run as
    complete programs at their home replica, each body lowered once to
    a closure (:func:`~repro.logic.compile.compile_residual`) like the
    homeostasis sites' stored procedures."""

    def __init__(
        self,
        site_ids: Sequence[int],
        initial_db: Mapping[str, int],
        transactions: Mapping[str, Transaction],
        tx_home: Mapping[str, int],
        arrays: Mapping[str, tuple[int, ...]] | None = None,
    ) -> None:
        self.site_ids = tuple(site_ids)
        self.procedures: dict[str, Residual] = {
            name: compile_residual(tx.body) for name, tx in transactions.items()
        }
        self.tx_home = dict(tx_home)
        self.arrays = dict(arrays or {})
        self.transport = Transport()
        self.stats = ClusterStats(transport=self.transport)
        self.replicas: dict[int, _Replica] = {}
        for sid in self.site_ids:
            replica = _Replica()
            replica.engine.store.apply(initial_db)
            self.replicas[sid] = replica
            self.transport.register(sid, replica)

    def _execute(
        self, sid: int, tx_name: str, params: Mapping[str, int] | None
    ) -> StorageTxn:
        """Run ``tx_name`` in a storage transaction opened at replica
        ``sid`` and hand it back open, for the caller to commit.  Any
        exception aborts it and propagates."""
        run = self.procedures[tx_name]
        txn = self.replicas[sid].engine.begin()
        try:
            run(txn.read, txn.write, txn.emit, params or {}, self.arrays)
        except BaseException:
            txn.abort()
            raise
        return txn

    def _origin(self, tx_name: str) -> int:
        if tx_name not in self.tx_home:
            raise ProtocolError(f"unknown transaction {tx_name!r}")
        return self.tx_home[tx_name]

    # -- crash-stop and recovery (baseline flavour) ------------------------------

    def crash_site(self, sid: int) -> None:
        """Crash-stop one replica (transport-level; replica state is
        durable -- the baselines have no volatile protocol metadata)."""
        self.transport.crash(sid)

    def recover_site(self, sid: int) -> tuple[int, ...]:
        """Restart a crashed replica and catch it up.

        The 2PC baseline keeps consistent full copies, so recovery is
        a snapshot transfer from any live peer (there is no scoped
        treaty state to replay); a cohort that missed decisions while
        down converges here.  Returns the sites involved, for
        simulator pricing.  (``LocalCluster`` overrides this: its
        replicas diverge by design and must not be clobbered.)
        """
        self.transport.recover(sid)
        peers = [s for s in self.site_ids if s != sid and s not in self.transport.down]
        if not peers:
            return (sid,)
        donor = peers[0]
        self.replicas[sid].engine.store.apply(
            self.replicas[donor].engine.store.snapshot()
        )
        return tuple(sorted({sid, donor}))


class LocalCluster(_ReplicatedBase):
    """LOCAL mode: execute at the origin replica, never communicate."""

    def submit(self, tx_name: str, params: Mapping[str, int] | None = None) -> ClusterResult:
        origin = self._origin(tx_name)
        self.stats.submitted += 1
        if self.transport.is_down(origin):
            raise Unavailable(
                f"origin replica {origin} is down", sites=frozenset({origin})
            )
        txn = self._execute(origin, tx_name, params)
        log = tuple(txn.log)
        txn.commit()
        self.stats.committed_local += 1
        return ClusterResult(log=log, site=origin, synced=False)

    def recover_site(self, sid: int) -> tuple[int, ...]:
        """LOCAL replicas diverge by design, so recovery is just
        reconnection: the replica's own (durable) state is the only
        state it has, and a peer snapshot would overwrite committed
        writes the crash-stop model says must survive."""
        self.transport.recover(sid)
        return (sid,)

    def replica_state(self, sid: int) -> dict[str, int]:
        return self.replicas[sid].engine.store.snapshot()


class TwoPhaseCommitCluster(_ReplicatedBase):
    """2PC mode: synchronous write-set replication on every commit.

    The local commit is **deferred past the prepare phase**: the
    transaction executes inside an open storage transaction, cohort
    replicas are prepared, and only then does the origin commit and
    ship the decision.  An unreachable cohort therefore aborts the
    local execution cleanly (undo-journal rollback), sends abort
    decisions to the cohorts already prepared, and surfaces as
    :class:`~repro.protocol.homeostasis.Unavailable` -- the classical
    "2PC blocks while any participant is down" failure mode, with no
    replica left holding a half-committed write set.
    """

    def submit(self, tx_name: str, params: Mapping[str, int] | None = None) -> ClusterResult:
        origin = self._origin(tx_name)
        self.stats.submitted += 1
        if self.transport.is_down(origin):
            raise Unavailable(
                f"origin replica {origin} is down", sites=frozenset({origin})
            )
        cohorts = [sid for sid in self.site_ids if sid != origin]
        known_down = frozenset(c for c in cohorts if self.transport.is_down(c))
        if known_down:
            # Fast refusal: 2PC cannot commit anywhere while any
            # replica is unreachable, so don't even execute.
            raise Unavailable(
                f"2PC blocked: replica(s) {sorted(known_down)} are down",
                sites=known_down,
            )
        engine = self.replicas[origin].engine
        txn = self._execute(origin, tx_name, params)
        # Writes are applied in place (undo-journaled), so the store
        # already holds the post-transaction values the cohort must
        # replicate; rollback restores the before-images if any cohort
        # is unreachable.
        payload = tuple(sorted((name, engine.peek(name)) for name in txn.written))
        trace = self.transport.begin("2pc", origin)
        prepared: list[int] = []
        try:
            for sid in cohorts:
                self.transport.send(Prepare(src=origin, dst=sid, updates=payload))
                prepared.append(sid)
        except UnreachableError as exc:
            txn.abort()
            for sid in prepared:
                try:
                    self.transport.send(Decision(src=origin, dst=sid, commit=False))
                except UnreachableError:
                    pass  # that cohort just died too; it recovers via catch-up
            self.transport.abort(trace)
            raise Unavailable(
                f"2PC blocked mid-prepare: {exc}", sites=frozenset({exc.dst})
            ) from exc
        for sid in cohorts:
            try:
                self.transport.send(Decision(src=origin, dst=sid, commit=True))
            except UnreachableError:
                # Unanimous votes make the decision commit regardless
                # (presumed commit); a cohort that dies between its
                # vote and the decision learns the outcome through
                # recovery's snapshot catch-up.
                pass
        log = tuple(txn.log)
        txn.commit()
        self.transport.end(trace)
        self.stats.negotiations += 1  # every transaction coordinates
        return ClusterResult(
            log=log, site=origin, synced=True, participants=tuple(self.site_ids)
        )

    def replica_state(self, sid: int) -> dict[str, int]:
        return self.replicas[sid].engine.store.snapshot()
