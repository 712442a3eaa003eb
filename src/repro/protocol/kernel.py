"""The homeostasis protocol kernel: one cluster, one negotiation engine.

:class:`HomeostasisCluster` runs K sites under the protocol of Section
3.3.  Treaty generation lives in :mod:`repro.protocol.homeostasis`
(:class:`~repro.protocol.homeostasis.TreatyGenerator`); this module is
the other two phases of a round:

- **normal execution**: sites run stored procedures disconnected;
  each commit checks only the site's local treaty;

- **cleanup**: on a violation, the aborted transaction T' stands for
  election, and the winner's negotiation runs over its *participant
  set* -- the fixpoint closure of the dirty objects' owners, the
  sites named in the affected treaty factors, and the homes/owners of
  every treaty instance depending on those objects: the participants
  broadcast their dirty owned objects to each other, T' is executed
  in full at every participant, and a new round begins.  Sites
  outside the closure keep their state and treaties untouched (the
  incremental generator guarantees their pieces are unchanged), which
  is the coordination-avoidance lever: a violation between two nearby
  sites never involves, or waits for, the far side of the cluster.

There is one implementation of that cleanup phase, the *wave engine*
(:meth:`HomeostasisCluster._negotiate`), behind two entry points.
:meth:`HomeostasisCluster.submit_window` accepts a window of
interleaved submissions from multiple origin sites, which makes the
election real:

1. **optimistic execution** -- every transaction in the window runs
   disconnected at its origin site; commits are final, violators
   abort and become *contenders* (several can violate in the same
   window, on the same or on overlapping objects);
2. **conflict grouping** -- each contender's participant closure is
   computed; contenders whose closures overlap are merged into one
   conflict group, because their negotiations would touch common
   sites and cannot proceed independently;
3. **vote phase** -- inside each group the contenders exchange
   :class:`~repro.protocol.messages.Vote` messages carrying their
   priority tuples; the lowest tuple wins deterministically, every
   loser concedes with a
   :class:`~repro.protocol.messages.VoteReply`, and the winner
   announces itself to the non-contender participants of its closure.
   Under the budgeted-credit arbitration policy
   (:class:`~repro.protocol.paxos_commit.NegotiationSpec` with
   ``policy="credit"``) each lost election accrues priority credit
   that strictly improves the loser's next bid, bounding consecutive
   losses; the legacy priority policy bids zero credit everywhere and
   reproduces the historical ordering exactly;
4. **parallel negotiations** -- the winners of *disjoint* groups run
   their cleanup rounds concurrently: their transport contexts are
   all opened before any closes, and the sync / decision / re-run /
   install phases are interleaved message-by-message (the trace's
   ``opened_at``/``closed_at`` stamps prove the rounds overlap);
5. **losers re-run** -- after the wave's treaties install, every
   loser re-executes from scratch; it either commits under the new
   treaties or contends again in the next wave (keeping its original
   timestamp, so seniority is preserved).

:meth:`HomeostasisCluster.submit` runs one transaction at a time, in
two parts.  Its message-free *head* (:meth:`~HomeostasisCluster.
submit_head`) executes at the origin and returns -- the clean path
never enters the engine; its *round* (:meth:`~HomeostasisCluster.
submit_round`) hands the head's violating attempt (or a watermark
breach, below) to the engine as a wave of one contender, whose
election is the trivial broadcast.  A host may run the two parts on
different threads, one at a time (:mod:`repro.runtime.cluster`).
Every step iterates in sorted deterministic order, so two runs over
the same submissions produce identical traces and states.

The kernel is synchronous -- it performs the real state changes and
sends every message a distributed deployment would send through a
typed :class:`~repro.protocol.transport.Transport`; the discrete-
event simulator prices the recorded trace with per-edge RTTs.

**Adaptive reallocation** (the ``demand`` strategy plus
:class:`~repro.protocol.homeostasis.AdaptiveSettings`) closes the loop
between execution and configuration: a
:class:`~repro.protocol.homeostasis.DemandEstimator` tracks per-object
write rates from the commit trace, negotiations size each site's split
of the invariant slack proportionally to its observed rate (with
starvation floors; see
:func:`repro.treaty.optimize.demand_configuration`), and a commit
that pushes a clause below its low-watermark triggers a proactive,
participant-scoped *rebalance* round (``RebalanceRequest`` + scoped
sync + regeneration) that shifts hoarded budget from cold sites to
hot ones before any transaction has to abort.  A refresh arbitrates
through the same engine: the breaching commit becomes a rebalance
contender in the wave's elections, its closure conflict-grouped with
the wave's violators.  A winning refresh runs sync + regeneration (no
T' -- it aborted nothing); a losing refresh concedes with a
:class:`~repro.protocol.messages.VoteReply` like any loser and
re-checks the watermark after the winner's treaties install (which
usually clears the breach).

**Fault tolerance** (crash-stop model, durable storage + treaty WAL):
a crashed site blocks only the rounds whose participant closure
includes it, so a window degrades per conflict group instead of
wholesale: submissions whose origin site is down fail immediately; a
group whose merged scope contains a known-crashed site is refused
before its round opens; and a crash discovered mid-round (an
:class:`~repro.protocol.transport.UnreachableError` during the vote,
sync or decision phase -- the abortable prefix, before any T'
re-executes) aborts that group's round cleanly while the wave's
*other* groups, whose disjoint closures cannot contain the crashed
site, continue unaffected.  Failed violators do not re-run within the
window: their negotiation needs the crashed site by definition, so
the client retries after recovery (``WindowOutcome.failed``;
:meth:`~HomeostasisCluster.submit` raises
:class:`~repro.protocol.homeostasis.Unavailable`).  Losing *refresh*
desires of a failed group are dropped silently -- their transactions
already committed.  Every other site keeps committing disconnected,
which is the availability argument against 2PC's global blocking.
Recovery (:meth:`HomeostasisCluster.recover_site`) replays the site's
treaty WAL, announces a :class:`~repro.protocol.messages.Rejoin`, and
re-syncs the factor state its treaty generation depends on; validate
mode asserts the replayed treaty matches the cluster's and that H1/H2
survive.

Optimistic execution goes through the per-site commit check
unchanged: each origin site's
:class:`~repro.protocol.site.SiteServer` decides admission through
the escrow headroom counters (:mod:`repro.treaty.escrow`) every
installed treaty lowers to, so a window's violators are exactly the
transactions whose decrements would drive a counter negative.  Wave
installs route through ``install_treaty`` and so patch the counters
(the rows of the clauses the wave changed, and the rows over an object
its sync phase poked); pokes that no install follows stay in the
engine's ``moved`` set, and the site's next checked commit re-reads
the rows over them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.protocol.homeostasis import (
    ClusterResult,
    ClusterStats,
    DemandEstimator,
    ProtocolError,
    SyncRound,
    Unavailable,
)
from repro.protocol.messages import (
    CleanupRun,
    Outcome,
    RebalanceRequest,
    Rejoin,
    SyncBroadcast,
    Vote,
    VoteReply,
)
from repro.protocol.paxos_commit import (
    CreditLedger,
    PaxosCommitDriver,
    QuorumUnreachable,
)
from repro.protocol.site import SiteResult, SiteServer
from repro.protocol.transport import NegotiationTrace, Transport, UnreachableError
from repro.treaty.config import check_h1_algebraic
from repro.treaty.table import TreatyTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config imports us)
    from repro.protocol.config import ClusterSpec


@dataclass
class WindowOutcome:
    """What the client observes for one transaction of a window."""

    index: int  # position in the submitted window
    tx_name: str
    log: tuple[int, ...] = ()
    site: int = -1
    synced: bool = False
    #: sites of the negotiation this transaction won (empty otherwise)
    participants: tuple[int, ...] = ()
    #: wave whose negotiation this transaction won (-1: never won one)
    wave: int = -1
    #: elections this transaction lost before completing
    lost_votes: int = 0
    #: global commit order within the window (serial-equivalence order)
    commit_seq: int = -1
    #: transport-trace index of the won negotiation (-1 otherwise)
    negotiation_index: int = -1
    #: proactive treaty refreshes this *committed* transaction won by
    #: breaching the adaptive low-watermark
    rebalances: int = 0
    #: participants of the won refresh (empty when none ran)
    rebalance_participants: tuple[int, ...] = ()
    #: unified result status (see
    #: :class:`~repro.protocol.messages.Outcome`): ``REFUSED`` when a
    #: site the transaction needed was *known* down before its round
    #: opened (origin down, or a crashed site inside its conflict
    #: group's scope), ``UNAVAILABLE`` when a vote/sync timeout
    #: discovered the crash mid-round; the client retries after
    #: recovery either way
    status: Outcome = Outcome.COMMITTED

    @property
    def failed(self) -> bool:
        """The transaction did not complete (derived from ``status``,
        so the two surfaces cannot disagree)."""
        return self.status in (Outcome.REFUSED, Outcome.UNAVAILABLE)


@dataclass
class GroupOutcome:
    """One conflict group's resolved election."""

    wave: int
    winner: int  # request index
    losers: tuple[int, ...]  # request indices of losing *violators*
    #: origin sites of every contender (the electorate)
    contender_sites: tuple[int, ...]
    #: participant set of the winner's negotiation
    participants: tuple[int, ...]
    #: merged closure scope the transport round was opened with
    scope: tuple[int, ...]
    negotiation_index: int
    #: True when the group's winner was a proactive treaty refresh
    #: (adaptive reallocation) rather than a violation cleanup
    rebalance: bool = False
    #: request indices of committed transactions whose refresh desire
    #: lost this election (they concede and re-check next wave)
    rebalance_losers: tuple[int, ...] = ()

    @property
    def members(self) -> tuple[int, ...]:
        return (self.winner,) + self.losers + self.rebalance_losers


@dataclass
class WindowResult:
    """Everything one window of interleaved submissions produced."""

    outcomes: list[WindowOutcome]
    #: wave -> conflict groups resolved in that wave (groups within a
    #: wave have disjoint scopes and ran their negotiations in parallel)
    waves: list[list[GroupOutcome]] = field(default_factory=list)
    #: request indices in the order their effects committed (the
    #: serial-equivalent execution order of the window)
    commit_order: list[int] = field(default_factory=list)

    @property
    def contended(self) -> bool:
        return any(len(g.members) > 1 for wave in self.waves for g in wave)


@dataclass
class _Contender:
    """A violator -- or a proactive-refresh desire -- awaiting election."""

    index: int
    tx_name: str
    params: Mapping[str, int] | None
    origin: int
    timestamp: int
    txn_seq: int
    #: True for a proactive rebalance: the transaction at ``index``
    #: already committed but breached the adaptive low-watermark, and
    #: its refresh must win a slot like any other negotiation
    rebalance: bool = False
    #: closure seed (violation seed, or breached clause objects plus
    #: the origin's dirty set for a rebalance)
    seed: set[str] = field(default_factory=set)
    #: elections this refresh desire has lost (retries are capped)
    lost: int = 0
    participants: set[int] = field(default_factory=set)
    affected: set[str] = field(default_factory=set)
    #: priority credit bid this election (0 under the legacy policy;
    #: refreshed from the credit ledger at grouping time otherwise)
    credit: int = 0
    #: sites whose unreachability failed this contender's negotiation
    #: (what ``submit`` reports in :class:`Unavailable`)
    unreachable: frozenset[int] = frozenset()

    @property
    def priority(self) -> tuple[int, int, int, int]:
        # Credit is folded in *ahead of the site id* (negated: more
        # credit = higher priority), closing the latent tie where equal
        # ``(timestamp, txn_seq)`` bids always favored low-numbered
        # sites.  With zero credit everywhere (the legacy policy) the
        # ordering is exactly the historical one.
        return (self.timestamp, -self.credit, self.origin, self.txn_seq)


@dataclass(frozen=True)
class PendingRound:
    """A submission whose head executed and that needs a round: T'
    aborted on a treaty violation, or its commit breached the adaptive
    low-watermark.  :meth:`HomeostasisCluster.submit_round` negotiates
    on ``attempt`` as it stands and never re-executes it."""

    tx_name: str
    params: Mapping[str, int] | None
    origin: int
    attempt: SiteResult


@dataclass
class _WaveRound:
    """One conflict group's in-flight negotiation within a wave."""

    group: list[_Contender]
    trace: NegotiationTrace
    #: site driving the round past the decision (the winner's origin,
    #: or the survivor that completed a crashed coordinator's round)
    decided_origin: int
    #: participants still live after the decision phase
    live: set[int]
    alive: bool = True
    dirty: set[str] = field(default_factory=set)
    reference: tuple[int, ...] | None = None
    written: set[str] = field(default_factory=set)


class HomeostasisCluster:
    """K sites executing a known workload under the homeostasis protocol.

    Constructed from a :class:`~repro.protocol.config.ClusterSpec`,
    which names every option (:func:`repro.protocol.config.
    build_cluster` is the facade entry point).
    """

    def __init__(
        self, spec: "ClusterSpec", transport: Transport | None = None
    ) -> None:
        self.site_ids = tuple(spec.sites)
        self.locate = spec.locate
        self.tx_home = dict(spec.tx_home)
        self.generator = spec.make_generator()
        self.adaptive = spec.adaptive
        # Only the 'demand' strategy reads the estimator (at negotiation
        # time), so only a 'demand' cluster observes its commit trace;
        # the watermark refresh path is gated on ``adaptive``.
        self.demand = DemandEstimator() if spec.strategy == "demand" else None
        self.generator.demand = self.demand
        self.transport = transport if transport is not None else Transport()
        self.stats = ClusterStats(transport=self.transport)
        self.treaty_table: TreatyTable | None = None
        # Every cleanup round decides through Paxos Commit; the credit
        # ledger is observed under either arbitration policy.
        self.negotiation = spec.negotiation
        self.fairness = CreditLedger(spec=spec.negotiation)
        #: rounds completed by a survivor while their coordinator was
        #: down: site -> (tx_name, params) of the T' it must re-run
        #: deterministically at recovery to catch up
        self._missed_runs: dict[int, tuple[str, dict[str, int]]] = {}
        #: arbitration tiebreak: every contender draws the next value
        self._txn_seq = itertools.count()
        #: observers called after every synchronization round
        self.post_sync_hooks: list[Callable[[HomeostasisCluster], None]] = []
        self.validate = spec.validate
        self.last_sync: SyncRound | None = None
        arrays = dict(spec.arrays)

        self.sites: dict[int, SiteServer] = {}
        for sid in self.site_ids:
            server = SiteServer(site_id=sid, locate=spec.locate, arrays=arrays)
            # Validate mode runs the interpreted oracles next to every
            # execution, escrow check and install and asserts they agree.
            server.validate = spec.validate
            for table in spec.tables:
                server.catalog.register(table)
            server.engine.store.apply(spec.initial_db)
            server.engine.checkpoint()
            self.sites[sid] = server
            self.transport.register(sid, server)

        self._paxos = PaxosCommitDriver(
            transport=self.transport, sites=self.sites, spec=spec.negotiation
        )

        self._install_new_treaty(dirty=None)

    # -- round machinery ----------------------------------------------------------

    def _reference_site(self) -> SiteServer:
        return self.sites[self.site_ids[0]]

    def _participants_for(
        self, origin: int, seed: set[str]
    ) -> tuple[set[int], set[str]]:
        """The participant set of a negotiation seeded by ``seed``.

        Fixpoint closure: a changed object drags in its owner, every
        site whose installed treaty enforces a clause over it (the
        per-site factor index), and the home site and object owners of
        every treaty-generation instance depending on it.  Each newly
        joined site contributes its own accumulated dirty objects --
        they ride along in the same broadcast and may widen the circle
        further.  Sites outside the fixpoint keep their treaties and
        state untouched; the incremental generator guarantees their
        pieces would regenerate verbatim.
        """
        site_set = set(self.site_ids)
        participants = {origin}
        closure: set[str] = set()
        pending = set(seed)
        while pending:
            closure |= pending
            sites = {self.locate(name) for name in pending}
            sites |= self.generator.sites_touching(pending)
            if self.treaty_table is not None:
                sites |= self.treaty_table.sites_for_objects(pending)
            new_sites = (sites & site_set) - participants
            participants |= new_sites
            pending = set()
            for sid in new_sites:
                pending |= set(self.sites[sid].dirty_owned_values())
            pending -= closure
        return participants, closure

    def _refuse_if_down(self, participants: set[int], what: str) -> None:
        """Fast-path refusal for rounds whose closure includes a
        known-crashed site: no messages are wasted and no timeout is
        paid discovering what the cluster already knows.  Counted with
        the timeouts (it is the same unavailability, discovered
        cheaper)."""
        down = participants & self.transport.down
        if down:
            self.stats.timeouts += 1
            raise Unavailable(
                f"{what} needs unreachable site(s) {sorted(down)}",
                sites=frozenset(down),
                status=Outcome.REFUSED,
            )

    def _install_new_treaty(
        self,
        dirty: set[str] | None,
        participants: set[int] | None = None,
        origin: int | None = None,
    ) -> None:
        if participants is None:
            participants = set(self.site_ids)
        if origin is None or origin not in participants:
            origin = min(participants)
        ref = self.sites[origin]
        getobj = ref.engine.peek
        snapshot = ref.engine.store.data  # read-only use
        self.stats.rounds += 1
        table = self.generator.generate(
            getobj, snapshot, self.stats.rounds, dirty=dirty
        )
        self.treaty_table = table
        # The solver is deterministic, so every participant regenerates
        # the identical treaty from the synchronized state and installs
        # it locally: the second communication round is elided
        # (Section 5.1).
        for sid in sorted(participants):
            self.sites[sid].install_treaty(
                table.local_for(sid), round_number=table.round_number
            )
        if self.validate:
            self.generator.assert_matches_scratch(table)
            # The global treaty is never weakened: every install --
            # violation cleanup, forced sync, or adaptive rebalance --
            # must produce locals that still imply the global treaty
            # (H1, a state-independent identity over the configuration)
            # and hold on the current database (H2).  H2 is checked
            # per site against its *own* authoritative state: a site's
            # local treaty mentions only objects it owns, and scoped
            # negotiations leave non-participants' remote snapshots
            # legitimately stale, so evaluating everything through one
            # origin would reject valid installs.
            if not check_h1_algebraic(table.templates, table.configuration):
                raise ProtocolError(
                    f"H1 violated by round {table.round_number}: local "
                    "treaties no longer imply the global treaty"
                )
            self._assert_h2_locally(participants, table.round_number)
            self._assert_untouched_locals(participants, table)

    def _assert_h2_locally(self, sites: set[int], round_number: int) -> None:
        """H2 over the given sites: each one's installed local treaty
        holds on its own state.  Checked for a round's participants at
        install time (their state is final); sites outside the round
        hold inductively -- or are mid-phase in a parallel group of
        the same wave, whose own install asserts them.  With H1 this
        implies the global treaty holds on the authoritative database.
        """
        for sid in sorted(sites):
            server = self.sites[sid]
            treaty = server.local_treaty
            if treaty is not None and not treaty.holds(server.engine.peek):
                raise ProtocolError(
                    f"H2 violated by round {round_number}: site {sid}'s "
                    "local treaty fails on its own state"
                )

    def _synchronize(
        self,
        participants: set[int],
        affected: set[str] | None = None,
        full: bool = False,
    ) -> tuple[dict[str, int], set[str]]:
        """Participant-scoped state exchange.

        Each participant broadcasts its dirty owned objects plus its
        owned objects among ``affected`` (the state feeding recomputed
        treaty factors -- possibly clean, but the coordinator must see
        current values to regenerate from).  ``full`` upgrades the
        share to the complete owned partition (forced global syncs at
        experiment boundaries).
        """
        ordered = sorted(participants)
        shares: dict[int, dict[str, int]] = {}
        dirty: set[str] = set()
        for sid in ordered:
            server = self.sites[sid]
            share = dict(server.dirty_owned_values())
            dirty |= set(share)
            if full:
                for name in server.engine.store.support():
                    if server.owns(name) and name not in share:
                        share[name] = server.engine.peek(name)
            elif affected:
                for name in affected:
                    if self.locate(name) == sid and name not in share:
                        share[name] = server.engine.peek(name)
            shares[sid] = share
        for src in ordered:
            payload = tuple(sorted(shares[src].items()))
            for dst in ordered:
                if dst != src:
                    self.transport.send(
                        SyncBroadcast(src=src, dst=dst, updates=payload)
                    )
        for sid in ordered:
            self.sites[sid].finish_sync()
        updates: dict[str, int] = {}
        for share in shares.values():
            updates.update(share)
        self.last_sync = SyncRound(
            participants=frozenset(participants), updates=updates, dirty=set(dirty)
        )
        for hook in self.post_sync_hooks:
            hook(self)
        if self.validate:
            self._assert_sync_agreement(participants, updates)
        return updates, dirty

    def _assert_sync_agreement(
        self, participants: set[int], updates: Mapping[str, int]
    ) -> None:
        """Every participant agrees with each object's owner on every
        synchronized value (non-participants are allowed to lag)."""
        if participants == set(self.site_ids):
            self._assert_sites_agree()
            return
        for name in updates:
            owner_value = self.sites[self.locate(name)].engine.peek(name)
            for sid in participants:
                value = self.sites[sid].engine.peek(name)
                if value != owner_value:
                    raise ProtocolError(
                        f"post-sync divergence on {name!r}: participant {sid} "
                        f"has {value}, owner has {owner_value}"
                    )

    def _assert_untouched_locals(
        self, participants: set[int], table: TreatyTable
    ) -> None:
        """Sites outside the participant set must already enforce the
        exact piece the new table assigns them (the incremental
        generator reuses their factors verbatim).  Crashed sites are
        exempt: their volatile treaty is gone by definition -- a
        coordinator that died mid-decision sat the install out, and the
        recovered-treaty oracle holds it to the table's entry once it
        replays its WAL and catches up."""
        for sid in self.site_ids:
            if sid in participants or sid in self.transport.down:
                continue
            installed = self.sites[sid].local_treaty
            have = {c.pretty() for c in installed.constraints} if installed else set()
            expect = {c.pretty() for c in table.local_for(sid).constraints}
            if have != expect:
                raise ProtocolError(
                    f"non-participant site {sid} treaty drifted: "
                    f"{sorted(have)} vs {sorted(expect)}"
                )

    def _assert_sites_agree(self) -> None:
        ref = self._reference_site().state_snapshot()
        names = set(ref)
        for server in self.sites.values():
            names |= set(server.state_snapshot())
        for server in self.sites.values():
            snap = server.state_snapshot()
            for name in names:
                if snap.get(name, 0) != ref.get(name, 0):
                    raise ProtocolError(
                        f"post-sync divergence on {name!r}: site "
                        f"{server.site_id} has {snap.get(name, 0)}, reference "
                        f"has {ref.get(name, 0)}"
                    )

    # -- cleanup-phase building blocks --------------------------------------------
    #
    # The cleanup round decomposes into phases so the wave engine below
    # can interleave the phases of disjoint-closure negotiations
    # instead of running each round start-to-finish.

    def _violation_seed(self, server: SiteServer, result: SiteResult) -> set[str]:
        """Seed of the participant closure: the violated treaty
        factors, everything the aborted attempt tried to write (T'
        re-runs after sync and its write set must be covered), and the
        origin's accumulated dirty set."""
        return (
            set(result.violated_objects)
            | set(result.attempted_writes)
            | set(server.dirty_owned_values())
        )

    def _cleanup_execute(
        self,
        origin: int,
        tx_name: str,
        params: Mapping[str, int] | None,
        participants: set[int],
    ) -> tuple[tuple[int, ...], set[str]]:
        """Run T' in full at every participant; cross-check the logs
        agree and return (reference log, union of written objects)."""
        params_payload = tuple(sorted((params or {}).items()))
        logs: dict[int, tuple[int, ...]] = {}
        written_union: set[str] = set()
        for sid in sorted(participants):
            if sid == origin:
                log, written = self.sites[origin].run_cleanup_transaction(
                    tx_name, params
                )
            else:
                log, written = self.transport.send(
                    CleanupRun(
                        src=origin,
                        dst=sid,
                        tx_name=tx_name,
                        params=params_payload,
                    )
                )
            logs[sid] = log
            written_union |= written
        reference = logs[origin]
        if any(log != reference for log in logs.values()):
            raise ProtocolError(f"cleanup runs of {tx_name} diverged: {logs}")
        return reference, written_union

    def _check_closure_covered(
        self, tx_name: str, written_union: set[str], participants: set[int]
    ) -> None:
        """The closure was computed before T' ran; verify its
        overapproximation covered everything T' actually wrote (owners
        of written objects and sites whose treaty factors depend on
        them must all have participated).  Must run against the
        *pre-install* treaty table."""
        needed = self.generator.sites_touching(written_union)
        needed |= {self.locate(name) for name in written_union}
        needed |= self.treaty_table.sites_for_objects(written_union)
        uncovered = (needed & set(self.site_ids)) - participants
        if uncovered:
            raise ProtocolError(
                f"cleanup of {tx_name} wrote objects involving "
                f"non-participant sites {sorted(uncovered)}"
            )

    def _survivor_complete(
        self,
        round_index: int,
        origin: int,
        participants: set[int],
        tx_name: str,
    ) -> int:
        """Finish a round whose coordinator crashed mid-decision: walk
        the live participants (lowest site first) until one drives the
        Paxos completion to a quorum, and return it as the round's new
        origin.  Raises :class:`QuorumUnreachable` when no survivor can
        complete the round (every live candidate failed, or none are
        left) -- the caller aborts cleanly; the decision either never
        became durable or will be completed after recovery."""
        tried: set[int] = set()
        while True:
            candidates = sorted(
                set(participants) - self.transport.down - tried - {origin}
            )
            if not candidates:
                raise QuorumUnreachable(
                    f"no surviving participant of {sorted(participants)} "
                    "could complete the round"
                )
            survivor = candidates[0]
            tried.add(survivor)
            try:
                self._paxos.complete_as_survivor(
                    survivor, round_index, origin, participants, tx_name
                )
            except UnreachableError:
                # The survivor itself died mid-completion; the next
                # candidate solicits the same durable acceptor state.
                continue
            return survivor

    # -- adaptive reallocation ----------------------------------------------------
    #
    # Demand-proportional slack (Bailis-style coordination avoidance)
    # needs two runtime pieces on top of the 'demand' strategy: the
    # estimator observing the commit trace, and a proactive refresh
    # that rebalances a clause *before* its budget runs out.  The
    # refresh is a round of the wave engine (announce, scoped
    # synchronize, regenerate + install) minus the decision and the T'
    # re-run: nothing aborted, so there is nothing to re-execute.

    def _watermark_breaches(
        self, server: SiteServer, written: frozenset[str] | set[str]
    ) -> set[str]:
        """Objects of every ``<=``-clause of ``server``'s local treaty
        that a commit just pushed below the low-watermark.

        A clause breaches when its remaining slack drops below
        ``watermark`` times the slack it was granted at install time
        (clauses granted less than ``min_headroom`` are exempt -- the
        global slack cannot fund a useful refresh for them).  Only
        clauses touching the write set are checked, via the treaty's
        per-object clause index.
        """
        treaty = server.local_treaty
        if treaty is None or self.adaptive is None:
            return set()
        settings = self.adaptive
        peek = server.engine.peek
        seen: set[int] = set()
        breached: set[str] = set()
        for name in written:
            for con in treaty.clauses_over(name):
                if con.op != "<=" or id(con) in seen:
                    continue
                seen.add(id(con))
                granted = server.install_headroom.get(con)
                if granted is None or granted < settings.min_headroom:
                    continue
                if con.slack(peek) < settings.watermark * granted:
                    for var in con.variables():
                        breached.add(var.name)
        return breached

    # -- the wave engine ----------------------------------------------------------
    #
    # One implementation of the negotiation round, for every entry
    # point: a wave takes the contenders the last optimistic execution
    # produced (violators and proactive-refresh desires), groups them
    # by overlapping closure, and runs each group's round phase by
    # phase -- interleaved across groups, so disjoint closures
    # negotiate in parallel.  ``submit`` hands it one contender.

    def _execute(
        self, origin: int, tx_name: str, params: Mapping[str, int] | None
    ) -> SiteResult:
        """One optimistic, disconnected execution at the origin site,
        observed by the demand estimator (if the strategy has one).  A
        violating attempt is demand too -- the re-negotiation's
        configuration should see the burst that exhausted the budget."""
        result = self.sites[origin].execute(tx_name, params)
        if result.committed:
            self.stats.committed_local += 1
        demand = self.demand
        if demand is not None:
            demand.observe(
                result.written if result.committed else result.attempted_writes
            )
        return result

    def _execute_round(
        self, entries: list[_Contender], outcomes: list[WindowOutcome]
    ) -> list[tuple[_Contender, SiteResult]]:
        """Optimistically execute the entries at their origin sites in
        window order.  Entries whose origin site is down cannot even
        attempt their local execution -- they fail without touching
        any state."""
        executed: list[tuple[_Contender, SiteResult]] = []
        for entry in entries:
            if self.transport.is_down(entry.origin):
                outcomes[entry.index].status = Outcome.REFUSED
                continue
            result = self._execute(entry.origin, entry.tx_name, entry.params)
            executed.append((entry, result))
        return executed

    def _rebalance_contenders(
        self,
        committed: list[tuple[_Contender, SiteResult]],
        carried: list[_Contender],
    ) -> list[_Contender]:
        """Proactive-refresh desires entering this wave's elections.

        Fresh desires come from commits that just breached the
        low-watermark (one per origin site per wave -- a refresh
        re-splits every hot clause of that site at once); carried
        desires are last wave's election losers, re-checked against
        the treaties the winners installed (a refresh that covered
        their sites usually cleared the breach) and dropped after
        three lost elections -- the next window re-triggers if the
        pressure persists.
        """
        if self.adaptive is None:
            return []
        out: list[_Contender] = []
        claimed: set[int] = set()
        for entry in carried:
            breached = self._watermark_breaches(
                self.sites[entry.origin], set(entry.seed)
            )
            if breached and entry.lost < 3 and entry.origin not in claimed:
                claimed.add(entry.origin)
                entry.seed = breached | set(
                    self.sites[entry.origin].dirty_owned_values()
                )
                out.append(entry)
        for entry, result in committed:
            if entry.origin in claimed:
                continue
            breached = self._watermark_breaches(
                self.sites[entry.origin], result.written
            )
            if breached:
                claimed.add(entry.origin)
                out.append(
                    _Contender(
                        index=entry.index,
                        tx_name=entry.tx_name,
                        params=entry.params,
                        origin=entry.origin,
                        timestamp=entry.timestamp,
                        txn_seq=next(self._txn_seq),
                        rebalance=True,
                        seed=breached
                        | set(self.sites[entry.origin].dirty_owned_values()),
                    )
                )
        return out

    def _conflict_groups(
        self, contenders: list[_Contender]
    ) -> list[list[_Contender]]:
        """Partition contenders into groups of transitively-overlapping
        participant closures (disjoint groups negotiate in parallel).
        Every contender's ``seed`` must already be set; violation
        cleanups and proactive refreshes arbitrate in the same groups.
        """
        groups: list[list[_Contender]] = []
        scopes: list[set[int]] = []
        for entry in contenders:
            entry.participants, closure = self._participants_for(
                entry.origin, set(entry.seed)
            )
            entry.affected = self.generator.objects_touching(closure) | closure
            # Refresh the bid from the credit ledger at grouping time:
            # a site that lost last wave's election bids the improved
            # priority this wave (0 under the legacy policy).
            entry.credit = self.fairness.bid_credit(entry.origin)
            hits = [
                i for i, scope in enumerate(scopes) if scope & entry.participants
            ]
            if not hits:
                groups.append([entry])
                scopes.append(set(entry.participants))
                continue
            # Merge every overlapped group (the entry bridges them).
            target = hits[0]
            groups[target].append(entry)
            scopes[target] |= entry.participants
            for i in reversed(hits[1:]):
                groups[target].extend(groups.pop(i))
                scopes[target] |= scopes.pop(i)
        for group in groups:
            group.sort(key=lambda c: c.priority)
        groups.sort(key=lambda g: g[0].priority)
        return groups

    def _vote_phase(self, group: list[_Contender]) -> None:
        """Contenders exchange votes; losers concede to the winner.

        The winner is the lowest ``(timestamp, -credit, site,
        txn_seq)`` tuple; every contender computes it independently
        from the exchanged votes -- the credit term rides inside each
        :class:`Vote` -- so arbitration needs no extra coordinator.
        With a single contender the election is the trivial broadcast.
        """
        winner = group[0]  # groups are priority-sorted
        if len(group) > 1:
            # Co-located contenders arbitrate site-locally for free;
            # only cross-site claims and concessions hit the wire.
            for voter in group:
                for other in group:
                    if other is voter or other.origin == voter.origin:
                        continue
                    self.transport.send(
                        Vote(
                            src=voter.origin,
                            dst=other.origin,
                            tx_name=voter.tx_name,
                            timestamp=voter.timestamp,
                            txn_seq=voter.txn_seq,
                            credit=voter.credit,
                        )
                    )
            for loser in group[1:]:
                if loser.origin == winner.origin:
                    continue
                self.transport.send(
                    VoteReply(
                        src=loser.origin,
                        dst=winner.origin,
                        winner_site=winner.origin,
                        winner_txn=winner.txn_seq,
                    )
                )
        # The winner announces itself to its non-contender
        # participants: T' for a cleanup, the closure seed for a
        # refresh (the adaptive analogue of the winner announcement).
        electorate = {c.origin for c in group}
        for sid in sorted(set(winner.participants) - electorate):
            if winner.rebalance:
                self.transport.send(
                    RebalanceRequest(
                        src=winner.origin,
                        dst=sid,
                        objects=tuple(sorted(winner.seed)),
                    )
                )
            else:
                self.transport.send(
                    Vote(
                        src=winner.origin,
                        dst=sid,
                        tx_name=winner.tx_name,
                        timestamp=winner.timestamp,
                        txn_seq=winner.txn_seq,
                    )
                )

    def _fail_group(
        self,
        group: list[_Contender],
        outcomes: list[WindowOutcome],
        status: Outcome,
        unreachable: set[int] | frozenset[int],
    ) -> None:
        """A group's negotiation cannot run (its scope contains an
        unreachable site).  Violator members fail -- their cleanup
        needs that site by definition, so re-running them this window
        would only fail again; the client retries after recovery.
        Refresh desires are dropped silently: their transactions
        already committed, and the watermark re-triggers later.
        Counted with the timeouts whether the crash was known up front
        (fast refusal: no messages wasted) or discovered mid-round --
        it is the same unavailability, discovered cheaper."""
        self.stats.timeouts += 1
        for contender in group:
            if not contender.rebalance:
                outcomes[contender.index].status = status
                contender.unreachable = frozenset(unreachable)

    def _abort_round(
        self,
        rnd: _WaveRound,
        outcomes: list[WindowOutcome],
        unreachable: set[int] | frozenset[int],
    ) -> None:
        """A crash was discovered mid-round (vote/sync/decision
        timeout): close the round's transport context as aborted and
        fail its members.  Only this group degrades -- same-wave groups
        have disjoint closures, so the crashed site cannot be in
        theirs."""
        self.transport.abort(rnd.trace)
        self._forget(rnd)
        self._fail_group(rnd.group, outcomes, Outcome.UNAVAILABLE, unreachable)
        rnd.alive = False

    def _forget(self, rnd: _WaveRound) -> None:
        """The round is closed: its live acceptors (all participants)
        drop their state for it."""
        for sid in rnd.group[0].participants - self.transport.down:
            self.sites[sid].paxos_forget(rnd.trace.index)

    def _decide(self, rnd: _WaveRound) -> None:
        """Decision phase: make the round's commit decision durable
        through Paxos Commit before anything irreversible runs (at
        F = 0, the default, the origin's own logged accept: two-phase
        commit, no message).  A round that loses its acceptor quorum
        aborts cleanly like a sync timeout (T' has not run anywhere);
        with F >= 1, if the winner's origin dies mid-quorum, a
        surviving participant completes the round from the acceptors'
        logged state and the wave finishes T' and the install over the
        live participants.  Rebalance rounds do not decide: nothing
        aborted, so there is no T' to decide on, and a quorum would
        only add Phase2 messages."""
        winner = rnd.group[0]
        if winner.rebalance:
            return
        try:
            self._paxos.decide(winner.origin, rnd.trace.index, winner.participants)
        except UnreachableError:
            if not self.transport.is_down(winner.origin):
                raise
            rnd.decided_origin = self._survivor_complete(
                rnd.trace.index, winner.origin, winner.participants, winner.tx_name
            )
        # The decision is durable: participants that died during the
        # phase re-run T' deterministically at recovery.
        rnd.live = winner.participants - self.transport.down
        for down_sid in winner.participants - rnd.live:
            self._missed_runs[down_sid] = (winner.tx_name, dict(winner.params or {}))

    def _negotiate(
        self, result: WindowResult, executed: list[tuple[_Contender, SiteResult]]
    ) -> None:
        """Run negotiation waves until the window quiesces, starting
        from the given optimistic executions; fills ``result``."""
        outcomes = result.outcomes
        commit_seq = itertools.count()
        carried: list[_Contender] = []
        wave = 0
        while executed or carried:
            # Rebalance retries are capped, so waves are bounded by the
            # violator chains plus a constant tail of refreshes.
            if wave > 2 * (len(outcomes) + 1):
                raise ProtocolError("window did not quiesce: livelocked elections")
            committed: list[tuple[_Contender, SiteResult]] = []
            contenders: list[_Contender] = []
            for entry, res in executed:
                if res.committed:
                    out = outcomes[entry.index]
                    out.log = res.log
                    out.commit_seq = next(commit_seq)
                    result.commit_order.append(entry.index)
                    committed.append((entry, res))
                else:
                    entry.seed = self._violation_seed(self.sites[entry.origin], res)
                    contenders.append(entry)
            contenders.extend(self._rebalance_contenders(committed, carried))
            carried = []
            if not contenders:
                break
            rounds: list[_WaveRound] = []
            # Open every group's round before any closes: disjoint
            # closures negotiate in parallel, and the transport rejects
            # the wave outright if the scopes were not disjoint.
            # Groups whose scope contains a known-crashed site are
            # refused before their round opens (no messages wasted).
            for group in self._conflict_groups(contenders):
                winner = group[0]
                scope = frozenset().union(*(c.participants for c in group))
                down = scope & self.transport.down
                if down:
                    self._fail_group(group, outcomes, Outcome.REFUSED, down)
                    continue
                trace = self.transport.begin(
                    "rebalance" if winner.rebalance else "cleanup",
                    winner.origin,
                    scope=scope,
                    wave=wave,
                )
                rounds.append(
                    _WaveRound(
                        group=group,
                        trace=trace,
                        decided_origin=winner.origin,
                        live=set(winner.participants),
                    )
                )
            # Abortable prefix (vote, sync, decision): nothing
            # irreversible happens before T' re-executes.  The
            # announcement is stateless and the sync exchange only
            # refreshes snapshots with owner-authoritative values, so a
            # timeout here aborts only the affected group's round,
            # cleanly, and its transactions simply retry after recovery.
            for rnd in rounds:
                try:
                    self._vote_phase(rnd.group)
                except UnreachableError as exc:
                    self._abort_round(rnd, outcomes, {exc.dst})
            for rnd in rounds:
                if not rnd.alive:
                    continue
                winner = rnd.group[0]
                try:
                    _updates, rnd.dirty = self._synchronize(
                        winner.participants, affected=winner.affected
                    )
                except UnreachableError as exc:
                    self._abort_round(rnd, outcomes, {exc.dst})
            for rnd in rounds:
                if not rnd.alive:
                    continue
                try:
                    self._decide(rnd)
                except (QuorumUnreachable, UnreachableError):
                    self._abort_round(
                        rnd, outcomes, self.transport.down or {rnd.group[0].origin}
                    )
            # Commit point: the decision above is durable, so the
            # surviving rounds must run to completion.  A crash
            # discovered during the T' re-execution or install phases is
            # *not* converted into a clean failure (T' commits site by
            # site): it escapes as UnreachableError with the round still
            # open, which trips the transport's nesting invariant loudly
            # on the next round.
            alive = [rnd for rnd in rounds if rnd.alive]
            for rnd in alive:
                winner = rnd.group[0]
                if winner.rebalance:
                    # A refresh aborts nothing, so there is no T' to
                    # re-run -- the round is sync + regeneration only.
                    continue
                rnd.reference, rnd.written = self._cleanup_execute(
                    rnd.decided_origin, winner.tx_name, winner.params, rnd.live
                )
            # Closure coverage is checked against the pre-wave treaty
            # table, before any group installs its replacement.
            for rnd in alive:
                winner = rnd.group[0]
                if not winner.rebalance:
                    self._check_closure_covered(
                        winner.tx_name, rnd.written, winner.participants
                    )
            for rnd in alive:
                winner = rnd.group[0]
                # dirty | written (| the refresh's seed) covers
                # everything the round changed.
                self._install_new_treaty(
                    dirty=rnd.dirty
                    | rnd.written
                    | set(winner.seed if winner.rebalance else ()),
                    participants=rnd.live,
                    origin=rnd.decided_origin,
                )
            for rnd in alive:
                self.transport.end(rnd.trace)
                self._forget(rnd)

            losers: list[_Contender] = []
            wave_groups: list[GroupOutcome] = []
            for rnd in alive:
                group, trace = rnd.group, rnd.trace
                winner = group[0]
                out = outcomes[winner.index]
                if winner.rebalance:
                    self.stats.rebalances += 1
                    out.rebalances += 1
                    out.rebalance_participants = tuple(sorted(winner.participants))
                else:
                    self.stats.negotiations += 1
                    out.log = rnd.reference
                    out.synced = True
                    out.participants = tuple(sorted(rnd.live))
                    out.wave = wave
                    out.commit_seq = next(commit_seq)
                    out.negotiation_index = trace.index
                    result.commit_order.append(winner.index)
                violator_losers: list[_Contender] = []
                rebalance_losers: list[_Contender] = []
                for loser in group[1:]:
                    if loser.rebalance:
                        # The refresh concedes; it re-checks next wave
                        # against the treaties this wave installed.
                        loser.lost += 1
                        rebalance_losers.append(loser)
                        carried.append(loser)
                    else:
                        outcomes[loser.index].lost_votes += 1
                        violator_losers.append(loser)
                        losers.append(loser)
                # Settle the election in the credit ledger: the winner
                # spends its credit (closing its losing streak), every
                # losing *site* accrues -- the fairness counters behind
                # ``fairness_stats()`` and the benchmark gate.  The
                # ledger tracks site-level starvation, so a site racing
                # against itself (several clients of one replica in the
                # group) is not its own loser.
                self.fairness.record_election(
                    winner.origin,
                    sorted({c.origin for c in group[1:]} - {winner.origin}),
                )
                wave_groups.append(
                    GroupOutcome(
                        wave=wave,
                        winner=winner.index,
                        losers=tuple(c.index for c in violator_losers),
                        contender_sites=tuple(sorted({c.origin for c in group})),
                        participants=tuple(sorted(winner.participants)),
                        scope=tuple(sorted(trace.scope or ())),
                        negotiation_index=trace.index,
                        rebalance=winner.rebalance,
                        rebalance_losers=tuple(c.index for c in rebalance_losers),
                    )
                )
            result.waves.append(wave_groups)
            losers.sort(key=lambda c: c.index)
            executed = self._execute_round(losers, outcomes)
            wave += 1

    # -- client API ---------------------------------------------------------------

    def submit(
        self, tx_name: str, params: Mapping[str, int] | None = None
    ) -> ClusterResult:
        """Run one transaction to completion under the protocol: its
        head (:meth:`submit_head`), then its round
        (:meth:`submit_round`) if the head left one to run.

        Raises :class:`Unavailable` -- without changing any state or
        treaty -- when the origin site is down, or when the
        transaction violates its treaty and the negotiation's
        participant closure includes an unreachable site (known-down
        sites are refused up front; a crash discovered mid-round
        surfaces as a timeout and aborts the round cleanly).  Every
        other submission proceeds exactly as in the fault-free kernel:
        a crash blocks only the closures that include it.
        """
        head = self.submit_head(tx_name, params)
        if isinstance(head, PendingRound):
            return self.submit_round(head)
        return head

    def submit_head(
        self, tx_name: str, params: Mapping[str, int] | None = None
    ) -> ClusterResult | PendingRound:
        """The message-free part of :meth:`submit`: the origin check,
        the optimistic execution at the origin and the watermark test.

        Returns the finished result of a clean commit, or the executed
        attempt that needs a round.  It sends nothing, so a host may run
        it on a thread other than the one that drives rounds, as long
        as one thread at a time touches the cluster.
        """
        if tx_name not in self.tx_home:
            raise ProtocolError(f"unknown transaction {tx_name!r}")
        origin = self.tx_home[tx_name]
        self.stats.submitted += 1
        if self.transport.is_down(origin):
            raise Unavailable(
                f"origin site {origin} is down",
                sites=frozenset({origin}),
                status=Outcome.REFUSED,
            )

        result = self._execute(origin, tx_name, params)
        if result.committed and not (
            self.adaptive is not None
            and self._watermark_breaches(self.sites[origin], result.written)
        ):
            return ClusterResult(
                log=result.log, site=origin, synced=False, row_index=result.row_index
            )
        return PendingRound(tx_name, params, origin, result)

    def submit_round(self, pending: PendingRound) -> ClusterResult:
        """The round of :meth:`submit`, on the attempt its head
        executed (raises :class:`Unavailable` like :meth:`submit`)."""
        # T' was aborted (or its commit breached the adaptive
        # low-watermark): the already-executed attempt enters the
        # engine as a wave of one contender.  submit() is
        # one-at-a-time, so it wins the election unopposed; the round
        # is scoped to the participant closure -- untouched sites
        # neither hear about it nor change state, and their installed
        # treaties stay valid.
        tx_name, origin, result = pending.tx_name, pending.origin, pending.attempt
        entry = _Contender(
            index=0,
            tx_name=tx_name,
            params=pending.params,
            origin=origin,
            timestamp=0,
            txn_seq=next(self._txn_seq),
        )
        window = WindowResult(
            outcomes=[WindowOutcome(index=0, tx_name=tx_name, site=origin)]
        )
        self._negotiate(window, [(entry, result)])
        out = window.outcomes[0]
        if out.failed:
            raise Unavailable(
                f"cleanup of {tx_name} needs unreachable site(s) "
                f"{sorted(entry.unreachable)}",
                sites=entry.unreachable,
                status=out.status,
            )
        if result.committed:
            # A refresh is best-effort under faults: the transaction
            # already committed, so a refresh whose closure includes an
            # unreachable site is simply skipped (empty ``rebalanced``)
            # -- the watermark re-triggers on a later commit, or the
            # violation path handles it the expensive way.
            return ClusterResult(
                log=result.log,
                site=origin,
                synced=False,
                row_index=result.row_index,
                rebalanced=out.rebalance_participants,
            )
        return ClusterResult(
            log=out.log, site=origin, synced=True, participants=out.participants
        )

    def submit_window(
        self,
        requests: Sequence[tuple[str, Mapping[str, int] | None]],
        timestamps: Sequence[int] | None = None,
    ) -> WindowResult:
        """Run a window of interleaved transactions to completion.

        ``timestamps`` are the arrival stamps feeding vote priorities;
        by default every transaction in the window raced in at stamp 0,
        so elections fall through to the (site, txn_seq) tiebreaks.
        A window naming an unknown transaction is rejected whole,
        before anything is counted or executed.
        """
        if timestamps is None:
            timestamps = [0] * len(requests)
        if len(timestamps) != len(requests):
            raise ProtocolError("one timestamp per windowed request")
        for tx_name, _params in requests:
            if tx_name not in self.tx_home:
                raise ProtocolError(f"unknown transaction {tx_name!r}")
        self.stats.submitted += len(requests)
        entries = [
            _Contender(
                index=index,
                tx_name=tx_name,
                params=params,
                origin=self.tx_home[tx_name],
                timestamp=timestamps[index],
                txn_seq=next(self._txn_seq),
            )
            for index, (tx_name, params) in enumerate(requests)
        ]
        result = WindowResult(
            outcomes=[
                WindowOutcome(index=e.index, tx_name=e.tx_name, site=e.origin)
                for e in entries
            ]
        )
        self._negotiate(result, self._execute_round(entries, result.outcomes))
        return result

    def try_submit(
        self, tx_name: str, params: Mapping[str, int] | None = None
    ) -> ClusterResult:
        """:meth:`submit`, with unavailability mapped into the result.

        The facade entry point for callers that branch on
        :class:`~repro.protocol.messages.Outcome` instead of catching
        :class:`Unavailable`: a refused or timed-out submission comes
        back as an empty result carrying ``REFUSED``/``UNAVAILABLE``
        (no state or treaty changed; retry after recovery).
        """
        try:
            return self.submit(tx_name, params)
        except Unavailable as exc:
            return self.unavailable_result(tx_name, exc)

    def unavailable_result(self, tx_name: str, exc: Unavailable) -> ClusterResult:
        """The empty result :meth:`try_submit` reports for ``exc``."""
        return ClusterResult(
            log=(), site=self.tx_home[tx_name], synced=False, status=exc.status
        )

    def precompile_checks(self) -> int:
        """Warm every site's per-object clause index (what the
        watermark check and the validate-mode oracle read); returns the
        number of sites warmed.

        Guards compile at catalog registration and escrow counters are
        built at install; the index is built on its first lookup, and
        the simulator and the e2e driver call this up front so no
        measured transaction pays for it.
        """
        warmed = 0
        for server in self.sites.values():
            if server.local_treaty is not None:
                server.local_treaty.clauses_over("")  # the first lookup builds it
                warmed += 1
        return warmed

    def escrow_stats(self) -> dict:
        """Cluster-wide escrow account statistics.

        ``installs`` counts treaty installs over the whole run, across
        every site; the commit counters aggregate live accounts and
        every retired one, so reinstalls do not erase history.
        Deterministic under a fixed seed, which is what lets the
        benchmark gate on it.
        """
        totals: dict[str, int] = {}
        installs = sites_with_treaty = 0
        for server in self.sites.values():
            installs += server.escrow_installs
            sites_with_treaty += server.local_treaty is not None
            for key, value in server.escrow_stats().items():
                totals[key] = totals.get(key, 0) + value
        return {
            "installs": installs,
            "sites_with_treaty": sites_with_treaty,
            **totals,
        }

    def classifier_stats(self) -> dict:
        """Cluster-wide static-tier (path-check) statistics.

        ``free_ratio`` is the fraction of treaty-bearing executions
        that bypassed the check entirely (``free`` paths);
        ``checks_per_commit`` is the mean number of treaty clauses left
        in scope per execution -- the whole treaty for a ``full`` check,
        none for a ``free`` one -- which the benchmark gates.  Both are
        deterministic under a fixed seed.
        """
        totals: dict[str, int] = {}
        for server in self.sites.values():
            for key, value in server.check_stats.items():
                totals[key] = totals.get(key, 0) + value
        checked = totals.get("checked", 0)
        return {
            **totals,
            "free_ratio": (
                round(totals.get("free", 0) / checked, 5) if checked else 0.0
            ),
            "checks_per_commit": (
                round(totals.get("clauses_in_scope", 0) / checked, 5)
                if checked
                else 0.0
            ),
        }

    def fairness_stats(self) -> dict:
        """Cluster-wide arbitration-fairness statistics.

        Derived from the credit ledger: the active policy, contested
        elections resolved, the longest consecutive-loss streak any
        site suffered (the starvation measure the contention benchmark
        gates), and per-site win/loss counts, streaks, live credit
        balances, and wait percentiles (elections lost before finally
        winning).  Recorded under either policy, so a priority-only
        run and a credit run expose comparable numbers.
        :meth:`submit` resolves every election unopposed; real
        contention (and hence nonzero streaks) comes from
        :meth:`submit_window`'s vote phase.
        """
        return self.fairness.stats()

    def free_transactions(self) -> frozenset[str]:
        """Transactions whose *every* execution path at their home site
        bypasses the treaty check under the currently installed
        treaties (the classifier's FREE verdict).  The simulator reads
        this once at run start to price such transactions at zero
        check cost."""
        out: set[str] = set()
        for tx_name, home in self.tx_home.items():
            checks = self.sites[home].path_checks.get(tx_name)
            if checks and all(check.bypasses_check for check in checks):
                out.add(tx_name)
        return frozenset(out)

    def check_mechanism(self) -> str:
        """The commit-check mechanism this kernel runs on, which the
        simulator reads once at run start to price the per-commit check
        service component.  It has one answer: every installed treaty
        is enforced by an escrow account, so this is always
        ``"escrow"``."""
        return "escrow"

    # -- inspection ----------------------------------------------------------------

    def global_state(self) -> dict[str, int]:
        """The authoritative global database: each object from its owner."""
        out: dict[str, int] = {}
        for sid, server in self.sites.items():
            for name, value in server.engine.store.items():
                if self.locate(name) == sid:
                    out[name] = value
        return out

    def force_synchronize(self) -> None:
        """External sync request (used at experiment boundaries).

        A true global barrier: every site participates and exchanges
        its complete owned partition, so even values whose owners last
        synchronized inside a narrower participant set converge
        everywhere.  Like any global barrier it is unavailable while
        any site is down.
        """
        origin = self.site_ids[0]
        participants = set(self.site_ids)
        self._refuse_if_down(participants, "global synchronization")
        with self.transport.negotiation("sync", origin):
            _updates, dirty = self._synchronize(participants, full=True)
            self._install_new_treaty(
                dirty=dirty, participants=participants, origin=origin
            )

    # -- crash-stop and recovery --------------------------------------------------
    #
    # The fault model is crash-stop with durable storage: a crashed
    # site loses its *volatile* protocol state (the installed
    # LocalTreaty object, the adaptive headroom snapshot) but keeps
    # its storage engine (the database -- durable through the engine's
    # journaling) and its treaty WAL.  Recovery replays the WAL,
    # announces a Rejoin, and re-syncs the factor state its treaty
    # generation depends on; the validate mode proves the replayed
    # treaty is byte-identical to what the cluster believes the site
    # holds, and that H1/H2 still hold afterwards.

    def crash_site(self, sid: int) -> None:
        """Crash-stop one site: cut it off the transport and lose its
        volatile treaty state.  Everything it owned stays durable (the
        engine's store and the WAL); in-flight rounds that need it
        will time out and abort."""
        if sid not in self.sites:
            raise ProtocolError(f"unknown site {sid}")
        self.transport.crash(sid)
        server = self.sites[sid]
        server.local_treaty = None
        server.install_headroom = {}
        server.treaty_round = -1
        server.path_checks = {}
        server.drop_escrow()

    def recover_site(self, sid: int) -> tuple[int, ...]:
        """Restart a crashed site: WAL replay, Rejoin, scoped re-sync.

        1. **Replay** the durable treaty WAL (torn tail dropped): the
           site resumes enforcing exactly the local treaty its peers
           believe it holds, with the recorded headroom snapshot.
        2. **Rejoin**: announce recovery to the reachable sites whose
           treaty factors it shares (``wal_round`` lets peers spot a
           stale epoch -- impossible here because rounds touching this
           site's factors were refused while it was down, which the
           validate mode double-checks).
        3. **Re-sync factor state**: a scoped synchronization over the
           rejoiner's closure refreshes its snapshots of remote
           objects feeding its treaty-generation instances.

        Returns the rejoin round's participant set (for simulator
        pricing).  In validate mode, asserts the replayed treaty is
        identical to the cluster's treaty table entry and that H1/H2
        hold after the rejoin.
        """
        if sid not in self.sites:
            raise ProtocolError(f"unknown site {sid}")
        if not self.transport.is_down(sid):
            raise ProtocolError(f"site {sid} is not down")
        server = self.sites[sid]
        replayed_round = server.replay_wal()
        # A round this site coordinated (or participated in) may have
        # been completed by a survivor while it was down: the decision
        # was quorum-durable, so the live participants ran T' and
        # installed the round's treaty without it.  Catch up
        # deterministically -- the coordinator crash window is
        # post-synchronization, so the replayed state *is* the
        # synchronized state and re-running T' reproduces the round's
        # writes exactly; then adopt the round's treaty entry (logged
        # to the WAL like any install) before rejoining.
        missed = self._missed_runs.pop(sid, None)
        if missed is not None:
            missed_tx, missed_params = missed
            server.run_cleanup_transaction(missed_tx, missed_params)
            if self.treaty_table is not None:
                server.install_treaty(
                    self.treaty_table.local_for(sid),
                    round_number=self.treaty_table.round_number,
                )
        self.transport.recover(sid)
        self.stats.recoveries += 1

        seed = set(server.dirty_owned_values())
        if server.local_treaty is not None:
            seed |= server.local_treaty.objects()
        participants, closure = self._participants_for(sid, seed)
        # Peers still down sit the rejoin out; their factor state
        # refreshes when they themselves rejoin.
        participants -= self.transport.down
        affected = self.generator.objects_touching(closure) | closure
        try:
            with self.transport.negotiation("rejoin", sid):
                for dst in sorted(participants - {sid}):
                    self.transport.send(
                        Rejoin(src=sid, dst=dst, wal_round=replayed_round),
                    )
                self._synchronize(participants, affected=affected)
        except UnreachableError as exc:
            # A peer became unreachable during the rejoin (lossy link,
            # fresh crash).  The site itself is safely back -- its WAL
            # treaty is installed and correct, and stale remote
            # snapshots are legal under the execution model -- but the
            # factor re-sync did not complete; surface it as the typed
            # unavailability so callers can retry the rejoin round.
            self.stats.timeouts += 1
            raise Unavailable(
                f"rejoin of site {sid} timed out: {exc}",
                sites=frozenset({exc.dst}),
            ) from exc

        if self.validate:
            self._assert_recovered_treaty(sid)
            if self.treaty_table is not None and not check_h1_algebraic(
                self.treaty_table.templates, self.treaty_table.configuration
            ):
                raise ProtocolError(f"H1 violated after site {sid} rejoined")
            self._assert_h2_locally(participants, self.treaty_table.round_number)
        return tuple(sorted(participants))

    def _assert_recovered_treaty(self, sid: int) -> None:
        """The WAL-replayed treaty must match the treaty table's entry
        for the site exactly -- recovery must not resurrect a stale
        epoch or lose clauses (the acceptance check of WAL-backed
        durability)."""
        if self.treaty_table is None:
            return
        expected = {c.pretty() for c in self.treaty_table.local_for(sid).constraints}
        replayed_treaty = self.sites[sid].local_treaty
        replayed = (
            {c.pretty() for c in replayed_treaty.constraints}
            if replayed_treaty is not None
            else set()
        )
        if replayed != expected:
            raise ProtocolError(
                f"site {sid} rejoined with a treaty that does not match the "
                f"cluster's: {sorted(replayed)} vs {sorted(expected)}"
            )
