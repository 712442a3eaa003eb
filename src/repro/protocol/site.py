"""A homeostasis site server.

Each site owns a partition of the database (authoritative values for
objects with ``Loc(x) = site``) and keeps *snapshot* values for every
remote object it may read (Section 3.2's model of disconnected
execution: local reads are current, remote reads see a possibly stale
snapshot refreshed at synchronization points).  Both live in one
storage engine -- the protocol guarantees writes only touch owned
objects during normal execution (Assumption 3.1).

``execute`` implements the online path of Section 5.1: dispatch to
the stored procedure whose guard matches, run it inside a storage
transaction, check the local treaty before commit, and either commit
(returning the log) or abort and report the treaty violation.  The
dispatch and the procedure are compiled at registration
(:mod:`repro.protocol.catalog`); ``validate`` mode re-derives the row
and re-runs the residual through the interpreter beside them, raising
:class:`~repro.protocol.catalog.ExecutionDivergence` on any
difference in row, written values or log.

The treaty check has two arms.  A **static tier** runs first: at
install time the site classifies every stored procedure's execution
paths against the new treaty (:mod:`repro.analysis.pathsplit`), so a
commit on a path that writes no array base any clause mentions
(``free``) skips the check -- and the write-delta computation --
outright.  Every other path is ``full`` and is checked by the site's
**escrow account** (:mod:`repro.treaty.escrow`): every installed
treaty lowers to headroom counters (``lower_to_escrow``; a clause that
does not is refused at install with ``CompilationError`` and the site
keeps the treaty it held), and the commit check is counter
subtractions driven by the undo journal's write deltas, exact after
every commit.  ``validate`` mode runs the interpreted clause
check (:meth:`~repro.treaty.table.LocalTreaty.
violations_after_writes`) beside both arms as their oracle, raising on
any disagreement.

An install is a **clause delta** end to end: the site diffs the
incoming local treaty against the installed one (by clause identity --
consecutive treaties share every clause the negotiation did not touch)
and, for the added and removed clauses only, patches the path-check
summary and the static tier, drops and places rows in its one escrow
account, and appends a ``treaty_delta`` record to its log; a first
install is the delta from the empty treaty, logged as a full
``treaty_install`` snapshot.

**The headroom invariant.**  A clause's install-time grant is its
slack on the install-time store.  For a carried clause that number is
already in the site's hands: an escrow counter *is* ``bound -
sum(d_i * D(x_i))`` as long as every write to the clause's objects
went through the account's ``commit`` -- and the writes that do not
(``poke``, the cleanup run T') are named by ``LocalEngine.moved``, so
an install reads the store for the new rows and the rows over a moved
object, and copies every other grant from its counter.
``validate`` holds the invariant to its definition: after every
install it re-derives everything from scratch -- path checks, summary,
every grant by ``LinearConstraint.slack``, the escrow rows,
counters and index by ``lower_to_escrow`` -- replays the
site's own log from its last snapshot, and raises
:class:`InstallDivergence` on any difference.

Treaty installs are **durable**: every install (and every rebalance
request this site acknowledges) is appended to the site's
:class:`~repro.storage.wal.TreatyWAL` *before* it is enforced or
acked, so a crash-stopped site restarted via :meth:`SiteServer.
replay_wal` resumes enforcing exactly the local treaty its peers
believe it holds -- H1 (locals imply the global treaty) survives the
crash because no site can come back with a forgotten, weaker
invariant.  Replay folds the log's last snapshot and the deltas behind
it and derives everything else from scratch; the install after it is
logged as a snapshot again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.analysis.pathsplit import (
    CHECK_KINDS,
    ClauseSummary,
    PathCheck,
    PathCheckDivergence,
    build_path_checks,
    patch_path_checks,
)
from repro.lang.ast import Com
from repro.lang.interp import ExecContext, execute
from repro.logic.compile import (
    ClauseRows,
    EscrowProgram,
    lower_clause,
    lower_to_escrow,
)
from repro.logic.linear import LinearConstraint
from repro.protocol.catalog import (
    ExecutionDivergence,
    StoredProcedure,
    StoredProcedureCatalog,
)
from repro.protocol.messages import (
    CleanupRun,
    Complete,
    Message,
    Phase2a,
    Phase2b,
    RebalanceRequest,
    Rejoin,
    SyncBroadcast,
    TreatyInstall,
    Vote,
    VoteReply,
)
from repro.storage.engine import LocalEngine, StorageTxn
from repro.storage.wal import (
    SNAPSHOT_EVERY,
    TreatyWAL,
    decode_local_treaty,
    decode_recorded_paths,
    encode_local_treaty,
    encode_treaty_delta,
)
from repro.treaty.escrow import EscrowAccount, EscrowDivergence
from repro.treaty.table import InstallDivergence, LocalTreaty

def _fresh_check_stats() -> dict[str, int]:
    return dict.fromkeys((*CHECK_KINDS, "checked", "clauses_in_scope"), 0)


@dataclass
class _Installed:
    """What the next install's delta is taken against."""

    treaty: LocalTreaty
    #: per clause, its escrow lowering
    rows: list[ClauseRows]
    summary: ClauseSummary
    #: per clause, the grant the last install record gives it
    grants: list[int | None]
    #: install records this site wrote since its last snapshot, that
    #: one included (0: none, the next record is a snapshot)
    chain: int


def _grant_map(
    clauses: list[LinearConstraint], grants: list[int | None]
) -> dict[LinearConstraint, int]:
    return {con: grant for con, grant in zip(clauses, grants) if grant is not None}


def run_transaction(
    engine: LocalEngine,
    body: Com,
    params: Mapping[str, int] | None,
    arrays: Mapping[str, tuple[int, ...]],
) -> tuple[tuple[int, ...], set[str]]:
    """Run ``body`` to completion in one storage transaction of
    ``engine`` and commit it; returns its log and the objects it
    wrote.  Any exception aborts the transaction and propagates."""
    txn = engine.begin()
    try:
        ctx = ExecContext(
            getobj=txn.read,
            setobj=txn.write,
            emit=txn.emit,
            params=dict(params or {}),
            arrays=arrays,
        )
        execute(body, ctx)
        log = tuple(txn.log)
        written = set(txn.written)
        txn.commit()
        return log, written
    except BaseException:
        if txn.active:
            txn.abort()
        raise


@dataclass
class SiteResult:
    """Outcome of one transaction attempt at one site."""

    committed: bool
    violated: bool
    log: tuple[int, ...] = ()
    row_index: int | None = None
    #: objects of the violated treaty clauses (seeds the cleanup
    #: phase's participant computation)
    violated_objects: frozenset[str] = frozenset()
    #: write set of the aborted attempt -- T' re-runs after sync and
    #: its writes must be covered by the participant closure up front
    attempted_writes: frozenset[str] = frozenset()
    #: write set of a *committed* attempt -- feeds the online demand
    #: estimator and the adaptive low-watermark slack check
    written: frozenset[str] = frozenset()


@dataclass
class SiteServer:
    site_id: int
    locate: Callable[[str], int]
    engine: LocalEngine = field(default_factory=LocalEngine)
    catalog: StoredProcedureCatalog = field(default_factory=StoredProcedureCatalog)
    local_treaty: LocalTreaty | None = None
    arrays: Mapping[str, tuple[int, ...]] = field(default_factory=dict)

    def owns(self, name: str) -> bool:
        return self.locate(name) == self.site_id

    #: see :attr:`install_headroom`
    _headroom: dict[LinearConstraint, int] | None = field(default=None, repr=False)
    #: append-only durable log of treaty installs / rebalance acks;
    #: survives a crash-stop of the (volatile) server object
    wal: TreatyWAL = field(default_factory=TreatyWAL)
    #: round number of the currently installed treaty (-1 before any)
    treaty_round: int = -1
    #: the site's escrow account, carried from install to install;
    #: None exactly when no treaty is installed
    escrow: EscrowAccount | None = None
    #: run the interpreted oracles next to every execution, commit
    #: check and install, and raise on disagreement (the cluster's
    #: validate mode turns this on)
    validate: bool = False
    #: stats folded out of dropped escrow accounts (crash-stop, a
    #: replay), so run-level counters survive them
    escrow_retired: dict[str, int] = field(default_factory=dict)
    #: treaty installs this site enforced, replays included
    escrow_installs: int = 0
    #: per-(tx, path) check kind under the installed treaty, in row
    #: order (the static tier; patched on every install, cleared on
    #: crash)
    path_checks: dict[str, tuple[PathCheck, ...]] = field(default_factory=dict)
    #: static-tier accounting: which check kind each treaty-bearing
    #: execution landed on, plus the number of treaty clauses left in
    #: scope for it (what the checks-per-commit benchmark gate reads)
    check_stats: dict[str, int] = field(default_factory=_fresh_check_stats)
    #: Paxos Commit acceptor state, keyed by decision-round instance
    #: id: the highest ballot promised, and the (ballot, verdicts)
    #: last accepted.  Volatile mirrors of the WAL's ``paxos_promise``
    #: / ``paxos_accept`` records -- a crash loses the dicts, replay
    #: rebuilds them, so a restarted acceptor can never accept behind
    #: a promise it already made durable.
    paxos_promised: dict[int, int] = field(default_factory=dict)
    paxos_accepted: dict[int, tuple[int, tuple[tuple[int, bool], ...]]] = field(
        default_factory=dict
    )
    #: the delta baseline (volatile, like everything it describes);
    #: trusted only while ``treaty`` is still the installed object
    _installed: _Installed | None = field(default=None, repr=False)

    @property
    def install_headroom(self) -> dict[LinearConstraint, int]:
        """Per-clause headroom at install time (the allocation the
        adaptive low-watermark compares remaining slack against).  An
        install keeps the grants by position; the map by clause is
        built for whoever first asks for it."""
        if self._headroom is None:
            base = self._installed
            self._headroom = (
                {} if base is None else _grant_map(base.treaty.constraints, base.grants)
            )
        return self._headroom

    @install_headroom.setter
    def install_headroom(self, headroom: dict[LinearConstraint, int]) -> None:
        self._headroom = headroom

    def install_treaty(self, treaty: LocalTreaty, round_number: int = -1) -> None:
        """Install a new local treaty and checkpoint each ``<=``-clause's
        headroom on the install-time (synchronized) state.

        The headroom snapshot is what makes the low-watermark check a
        *relative* trigger: "this clause has burned through 1 - w of
        the budget the last negotiation granted", independent of the
        clause's absolute scale.  Commits since the last install
        consumed slack without changing the clause, so a carried
        clause's grant is not its old one -- it is its escrow counter,
        which the account kept equal to the clause's slack on the store
        all along (the module docstring's headroom invariant).

        Everything is derived for the clauses this install adds or
        removes relative to the installed treaty: the path-check
        summary is patched and only paths writing a base those clauses
        mention are re-classified; the escrow account drops and places
        their rows and reads the store for the new rows and the rows
        over an object that moved outside a commit; the WAL record
        lists them.

        The install is **logged to the WAL before the site enforces
        it** (and therefore before any transport-level acknowledgement
        returns to the coordinator): once a peer believes this site
        holds the treaty, a crash-stop cannot unhold it.

        Raises :class:`~repro.logic.compile.CompilationError`, before
        anything changes, if a clause does not lower to escrow counters
        (one over a parameter or temporary); the site keeps the treaty
        it held.
        """
        base, position = self._delta_baseline()
        carried = base is self._installed
        installed = base.treaty.constraints
        cons = treaty.constraints
        rows: list[ClauseRows] = []
        #: per clause, its position in the baseline (-1: it enters)
        origin: list[int] = []
        entered: list[tuple[int, LinearConstraint]] = []
        last, in_order = -1, True
        for con in cons:
            at = position.pop(id(con), -1)
            if at < 0:
                entered.append((len(rows), con))
                rows.append(lower_clause(con))
            else:
                in_order = in_order and at > last
                last = at
                rows.append(base.rows[at])
            origin.append(at)
        left = list(position.values())  # ascending, like the enumeration
        # The static tier.  Deterministic given (catalog, treaty), so
        # the WAL record doubles as a recovery cross-check.
        summary = base.summary.copy()
        touched: set[str] = set()
        for at in left:
            touched.update(summary.add(installed[at], -1))
        for _at, con in entered:
            touched.update(summary.add(con))
        paths = patch_path_checks(
            self.catalog, summary, self.path_checks, touched if installed else None
        )

        engine = self.engine
        account = self.escrow
        if carried and account is not None:
            gone = [base.rows[at] for at in left]
            new = [rows[at] for at, _con in entered]
        else:
            self._fold_escrow_stats()
            account = self.escrow = EscrowAccount(EscrowProgram(), ())
            gone, new = [], rows
        account.install(gone, new, engine.moved, engine.peek)
        self.escrow_installs += 1
        counter, slots = account.headroom, account.program.slots
        grants: list[int | None] = [
            counter[slots[lowered][0]]
            if lowered.budget
            else (con.bound if con.op == "<=" else None)
            for con, lowered in zip(cons, rows)
        ]
        engine.moved.clear()

        # A delta needs a record to continue: this site's last one, and
        # carried clauses in the order that record lists them.
        if carried and in_order and base.chain < SNAPSHOT_EVERY:
            record = {"kind": "treaty_delta", "round": round_number}
            record.update(
                encode_treaty_delta(
                    self.treaty_round,  # of the record this one continues
                    left,
                    entered,
                    [
                        (at, grant)
                        for at, (was, grant) in enumerate(zip(origin, grants))
                        if grant is not None and (was < 0 or grant != base.grants[was])
                    ],
                    paths if paths != self.path_checks else None,
                )
            )
            chain = base.chain + 1
        else:
            record = {"kind": "treaty_install", "round": round_number}
            record.update(encode_local_treaty(treaty, _grant_map(cons, grants), paths))
            chain = 1
        self.wal.append(record)
        self.local_treaty = treaty
        self._headroom = None
        self.treaty_round = round_number
        self.path_checks = paths
        self._installed = _Installed(treaty, rows, summary, grants, chain)
        if self.validate:
            self._assert_install_matches_scratch()

    def _delta_baseline(self) -> tuple[_Installed, dict[int, int]]:
        """What this install is a delta against, with each installed
        clause object's position (the install pops the ones it keeps).

        With nothing installed -- or a baseline this site cannot vouch
        for: the treaty was swapped behind its back, or lists one
        clause object twice, which an identity diff cannot tell apart
        -- that is the empty treaty."""
        base = self._installed
        if base is not None and base.treaty is self.local_treaty:
            installed = base.treaty.constraints
            position = {id(con): at for at, con in enumerate(installed)}
            if len(position) == len(installed):
                return base, position
        empty = LocalTreaty(site=self.site_id)
        return _Installed(empty, [], ClauseSummary(), [], 0), {}

    def _assert_install_matches_scratch(self) -> None:
        """The validate-mode oracle of the delta install: everything
        the install carried or patched must equal its from-scratch
        derivation from (catalog, treaty, store) -- the headroom rule
        among them: every grant, carried counter or fresh read, is the
        clause's slack on the install-time store -- and the site's
        own log, replayed from its last snapshot through the delta
        chain, must say what the site now holds."""
        treaty, peek = self.local_treaty, self.engine.peek
        assert treaty is not None and self._installed is not None
        program = lower_to_escrow(treaty.constraints)
        scratch = EscrowAccount(program, [row.slack(peek) for row in program.rows])
        held = {"kind": "treaty_install", "round": self.treaty_round}
        held.update(
            encode_local_treaty(treaty, self.install_headroom, self.path_checks)
        )
        checks = {
            "path checks": (self.path_checks, build_path_checks(self.catalog, treaty)),
            "clause summary": (
                self._installed.summary,
                ClauseSummary.of(treaty.constraints),
            ),
            "install headroom": (
                self.install_headroom,
                {con: con.slack(peek) for con in treaty.constraints if con.op == "<="},
            ),
            "escrow rows, counters and index": (
                self.escrow.enforced(),
                scratch.enforced(),
            ),
            "install, as its log replays,": (self.wal.last_treaty_install(), held),
        }
        for what, (have, expect) in checks.items():
            if have != expect:
                raise InstallDivergence(
                    f"site {self.site_id}, round {self.treaty_round}: delta-"
                    f"installed {what} differ from scratch: {have} vs {expect}"
                )

    def replay_wal(self) -> int:
        """Restart path: restore the treaty state from the durable log.

        Reduces the log to its last *complete* install -- the last
        snapshot record with the delta records after it folded in; a
        torn tail (crash mid-append) is cut off: it was never acked, so
        no peer assumes this site has it -- and reinstalls that treaty
        with its recorded headroom snapshot.  Idempotent: replaying
        again reinstalls the same install.  Returns the replayed round
        number (-1 for a fresh log).
        """
        # Before anything is appended behind it, or the next record
        # would join the torn bytes into one unreadable interior line.
        self.wal.truncate_torn_tail()
        self._replay_paxos_state()
        record = self.wal.last_treaty_install()
        # Replay derives everything from scratch; the next live install
        # is then the delta from the empty treaty, logged as a snapshot.
        self._installed = None
        if record is None:
            self.local_treaty = None
            self.install_headroom = {}
            self.treaty_round = -1
            self.path_checks = {}
            self.drop_escrow()
            return -1
        treaty, headroom = decode_local_treaty(record)
        self.local_treaty = treaty
        # The path checks are re-derived, not restored: they are a pure
        # function of (catalog, treaty), and re-deriving keeps them
        # consistent with the code actually running after a restart.
        # Validate mode cross-checks the re-derivation against what was
        # recorded at install time.
        self.path_checks = build_path_checks(self.catalog, treaty)
        if self.validate:
            recorded = decode_recorded_paths(record)
            if recorded is not None and recorded != self.path_checks:
                raise PathCheckDivergence(
                    f"site {self.site_id}: replayed path checks do not "
                    "match the install-time record"
                )
        # The recorded snapshot, not a recomputation: slack already
        # consumed before the crash must stay consumed, or the adaptive
        # low-watermark would silently reset at every recovery.
        self.install_headroom = headroom
        self.treaty_round = record["round"]
        # The escrow counters take the opposite stance: the recorded
        # grants are the *install-time* slack, and everything consumed
        # since lives in the durable store -- so recovery reads every
        # counter from the store, once, as the new account's first
        # resync: counters identical to a freshly lowered treaty on the
        # recovered state.
        program = lower_to_escrow(treaty.constraints)
        self._fold_escrow_stats()
        self.escrow = EscrowAccount(program, [0] * len(program.rows))
        self.escrow.resync(self.engine.peek, program.touching)
        self.escrow_installs += 1
        self.engine.moved.clear()
        return self.treaty_round

    def _replay_paxos_state(self) -> None:
        """Rebuild the acceptor dicts from the durable log (the records
        were appended before the corresponding acks left the site, so
        the replayed state is at least as strong as anything a peer
        ever observed)."""
        promised: dict[int, int] = {}
        accepted: dict[int, tuple[int, tuple[tuple[int, bool], ...]]] = {}
        for record in self.wal.records():
            kind = record.get("kind")
            if kind == "paxos_promise":
                rnd = record["round"]
                promised[rnd] = max(promised.get(rnd, -1), record["ballot"])
            elif kind == "paxos_accept":
                rnd = record["round"]
                promised[rnd] = max(promised.get(rnd, -1), record["ballot"])
                accepted[rnd] = (
                    record["ballot"],
                    tuple((int(p), bool(ok)) for p, ok in record["verdicts"]),
                )
        self.paxos_promised = promised
        self.paxos_accepted = accepted

    # -- Paxos Commit acceptor state machine ---------------------------------------

    def paxos_accept(
        self,
        round_number: int,
        ballot: int,
        verdicts: tuple[tuple[int, bool], ...],
    ) -> bool:
        """Phase 2 accept: adopt the proposed verdict vector unless a
        higher ballot was already promised.  The accept is **logged to
        the WAL before it is acknowledged** -- that ordering is the
        whole point of Paxos Commit: once the proposer counts this
        ack toward its quorum, no crash of this site can un-log the
        verdicts a survivor would need to finish the round."""
        if ballot < self.paxos_promised.get(round_number, -1):
            return False
        self.wal.append(
            {
                "kind": "paxos_accept",
                "round": round_number,
                "ballot": ballot,
                "verdicts": [[p, ok] for p, ok in verdicts],
            }
        )
        self.paxos_promised[round_number] = ballot
        self.paxos_accepted[round_number] = (ballot, tuple(verdicts))
        return True

    def paxos_promise(
        self, round_number: int, ballot: int
    ) -> tuple[tuple[int, bool], ...] | None:
        """Phase 1 promise + report (a survivor's empty-verdict
        solicitation): promise the ballot, logged before the reply,
        and report the verdicts this acceptor last accepted (None if
        it never accepted -- or if the promise is refused because a
        higher ballot holds)."""
        if ballot < self.paxos_promised.get(round_number, -1):
            return None
        self.wal.append(
            {"kind": "paxos_promise", "round": round_number, "ballot": ballot}
        )
        self.paxos_promised[round_number] = ballot
        accepted = self.paxos_accepted.get(round_number)
        return accepted[1] if accepted is not None else None

    def paxos_forget(self, round_number: int) -> None:
        """Drop a closed round's acceptor state (no survivor can
        solicit it; the WAL records stay for replay)."""
        self.paxos_promised.pop(round_number, None)
        self.paxos_accepted.pop(round_number, None)

    # -- escrow fast-path plumbing -------------------------------------------------

    def drop_escrow(self) -> None:
        """Retire the current escrow account (crash-stop, treaty
        removal); its counters fold into the run-level stats."""
        self._fold_escrow_stats()
        self.escrow = None

    def _fold_escrow_stats(self) -> None:
        if self.escrow is None:
            return
        for key, value in self.escrow.stats().items():
            self.escrow_retired[key] = self.escrow_retired.get(key, 0) + value

    def escrow_stats(self) -> dict[str, int]:
        """Run-level escrow counters: retired accounts plus the live
        one."""
        out = dict(self.escrow_retired)
        if self.escrow is not None:
            for key, value in self.escrow.stats().items():
                out[key] = out.get(key, 0) + value
        return out

    # -- the online execution path (Section 5.1) ---------------------------------

    def execute(self, tx_name: str, params: Mapping[str, int] | None = None) -> SiteResult:
        """Run a transaction disconnected; commit iff the local treaty
        still holds afterwards."""
        txn = self.engine.begin()
        getobj = txn.read
        try:
            if params is None:
                params = {}
            proc = self.catalog.dispatch(tx_name, getobj, params)
            proc.run(getobj, txn.write, txn.emit, params, self.arrays)
            if self.validate:
                self._assert_execution_matches_interpreter(tx_name, params, proc, txn)
            self._assert_writes_local(txn.written, tx_name)
            if self.local_treaty is not None:
                treaty = self.local_treaty
                # One check per row, in row order; a procedure registered
                # after the install has none yet and takes the full check.
                checks = self.path_checks.get(tx_name)
                kind = checks[proc.row_index].kind if checks is not None else "full"
                stats = self.check_stats
                stats["checked"] += 1
                stats[kind] += 1
                if kind == "full":
                    stats["clauses_in_scope"] += len(treaty.constraints)
                if kind == "free":
                    # The path's writes touch no base any clause
                    # mentions: under H2 the treaty still holds, and
                    # no escrow row is over a written object either,
                    # so the delta computation is skipped along with
                    # the check.
                    violated: set[str] | frozenset[str] = frozenset()
                    if self.validate:
                        oracle = treaty.violations_after_writes(
                            getobj, txn.written
                        )
                        if oracle:
                            raise PathCheckDivergence(
                                f"site {self.site_id}, {tx_name} path "
                                f"{proc.row_index}: FREE bypass but full "
                                f"check violates {sorted(oracle)}"
                            )
                else:
                    escrow = self.escrow  # every installed treaty has one
                    engine = self.engine
                    if engine.moved:
                        # Non-transactional writes (sync broadcasts,
                        # post-sync hooks, cleanup runs) moved values
                        # under the counters; re-read their rows before
                        # trusting them.  The store already holds *this*
                        # transaction's writes, so the re-read must see
                        # its before-images -- reading the post-state
                        # would charge the deltas twice.
                        before_images = {
                            name: before
                            for name, before, _existed in txn.undo.entries
                        }
                        peek = engine.peek
                        escrow.resync(
                            lambda name: before_images[name]
                            if name in before_images
                            else peek(name),
                            engine.moved,
                        )
                        engine.moved.clear()
                    store_get = engine.store.get
                    deltas = {
                        name: store_get(name) - before
                        for name, before, _existed in txn.undo.entries
                    }
                    viol_idx = escrow.commit(deltas)
                    violated = (
                        escrow.violated_objects(viol_idx)
                        if viol_idx is not None
                        else frozenset()
                    )
                    if self.validate:
                        oracle = treaty.violations_after_writes(
                            getobj, txn.written
                        )
                        if set(violated) != oracle:
                            raise EscrowDivergence(
                                f"site {self.site_id}, {tx_name}: escrow says "
                                f"{sorted(violated)}, interpreted oracle says "
                                f"{sorted(oracle)} (deltas {deltas})"
                            )
                if violated:
                    attempted = frozenset(txn.written)
                    txn.abort()
                    return SiteResult(
                        committed=False,
                        violated=True,
                        row_index=proc.row_index,
                        violated_objects=frozenset(violated),
                        attempted_writes=attempted,
                    )
            log = tuple(txn.log)
            written = frozenset(txn.written)
            txn.commit()
            return SiteResult(
                committed=True,
                violated=False,
                log=log,
                row_index=proc.row_index,
                written=written,
            )
        except BaseException:
            if txn.active:
                txn.abort()
            raise

    def _assert_execution_matches_interpreter(
        self,
        tx_name: str,
        params: Mapping[str, int],
        proc: StoredProcedure,
        txn: StorageTxn,
    ) -> None:
        """The validate-mode oracle of the compiled clean path: the
        interpreted guards, evaluated on the pre-state, must select
        exactly the row the decider picked, and the interpreter,
        re-running that row's residual over a write overlay of the
        pre-state, must write the same values and print the same log."""
        before = {name: value for name, value, _existed in txn.undo.entries}
        store_get = self.engine.store.get
        rows, writes, log = self.catalog.replay(
            tx_name,
            lambda name: before[name] if name in before else store_get(name),
            params,
            self.arrays,
        )
        ran = {name: store_get(name) for name in txn.written}
        if rows != [proc.row_index] or writes != ran or log != tuple(txn.log):
            raise ExecutionDivergence(
                f"site {self.site_id}, {tx_name}: compiled row "
                f"{proc.row_index}, writes {ran}, log {txn.log}; interpreted "
                f"rows {rows}, writes {writes}, log {list(log)}"
            )

    def _assert_writes_local(self, written: set[str], tx_name: str) -> None:
        foreign = sorted(name for name in written if not self.owns(name))
        if foreign:
            raise AssertionError(
                f"{tx_name} at site {self.site_id} wrote non-local objects "
                f"{foreign}; apply the Appendix B transform first "
                "(Assumption 3.1)"
            )

    # -- cleanup-phase helpers -----------------------------------------------------

    def dirty_owned_values(self) -> dict[str, int]:
        """Values of owned objects updated since the round checkpoint."""
        return {
            name: self.engine.peek(name)
            for name in self.engine.dirty_objects()
            if self.owns(name)
        }

    def finish_sync(self) -> None:
        """End of a sync round this site participated in: the dirty
        set was broadcast, so reset the round-level dirty tracking."""
        self.engine.checkpoint()

    # -- the transport endpoint ------------------------------------------------------

    def handle(self, msg: Message):
        """Receive one typed transport message.

        - ``SyncBroadcast`` installs the sender's share of the round's
          update set into this site's store (snapshots for remote
          objects, no-ops for owned ones);
        - ``TreatyInstall`` installs the shipped local treaty (logged
          to the WAL before the ack returns);
        - ``Vote`` acknowledges a contender's priority claim in the
          violation-winner election;
        - ``VoteReply`` records a losing contender's concession;
        - ``RebalanceRequest`` logs, then acknowledges, a proactive
          treaty-refresh announcement (adaptive reallocation);
        - ``Rejoin`` acknowledges a recovered peer re-entering the
          cluster (the state refresh arrives as the rejoin round's
          SyncBroadcast exchange);
        - ``CleanupRun`` executes T' in full and replies with the
          (log, written) pair the coordinator cross-checks;
        - ``Phase2a`` drives the Paxos Commit acceptor: non-empty
          verdicts are an accept (WAL-logged before the ack), empty
          verdicts are a survivor's promise + report solicitation;
        - ``Phase2b`` is the quorum ack crossing back to the decision
          driver (this handler runs at the *coordinator*, which is
          what makes a mid-quorum coordinator crash schedulable);
        - ``Complete`` records a survivor-announced round completion
          in the WAL.
        """
        if isinstance(msg, SyncBroadcast):
            for name, value in msg.updates:
                self.engine.poke(name, value)
            return None
        if isinstance(msg, TreatyInstall):
            assert msg.treaty is not None
            self.install_treaty(msg.treaty, round_number=msg.round_number)
            return None
        if isinstance(msg, Vote):
            return True
        if isinstance(msg, VoteReply):
            return True
        if isinstance(msg, RebalanceRequest):
            # Log before ack, then acknowledge the proactive refresh;
            # the actual state exchange and treaty install arrive as
            # the round's SyncBroadcast / regeneration, like any
            # negotiation.  The logged request lets recovery see that
            # a refresh round was in flight at the crash.
            self.wal.append(
                {
                    "kind": "rebalance_request",
                    "origin": msg.src,
                    "objects": list(msg.objects),
                }
            )
            return True
        if isinstance(msg, Rejoin):
            return True
        if isinstance(msg, CleanupRun):
            return self.run_cleanup_transaction(msg.tx_name, dict(msg.params))
        if isinstance(msg, Phase2a):
            if msg.verdicts:
                return self.paxos_accept(msg.round_number, msg.ballot, msg.verdicts)
            return self.paxos_promise(msg.round_number, msg.ballot)
        if isinstance(msg, Phase2b):
            return True
        if isinstance(msg, Complete):
            self.wal.append(
                {
                    "kind": "round_complete",
                    "round": msg.round_number,
                    "committed": msg.committed,
                    "tx": msg.tx_name,
                }
            )
            return True
        raise TypeError(f"site {self.site_id}: unhandled message {msg!r}")

    def run_cleanup_transaction(
        self, tx_name: str, params: Mapping[str, int] | None = None
    ) -> tuple[tuple[int, ...], set[str]]:
        """Execute the violating transaction T' in full after sync.

        T' runs as the *complete* transaction (not a residual): the
        synchronized state may match a different symbolic row than the
        one that detected the violation.  T' is exempt from Assumption
        3.1 (see the remark after Theorem 3.8), so writes may touch
        any object; non-owned writes update this site's snapshots with
        values every other site computes identically (T' is
        deterministic).
        """
        tx = self.catalog.full_transaction(tx_name)
        log, written = run_transaction(self.engine, tx.body, params, self.arrays)
        # T' commits without a treaty check (the new treaty is
        # installed right after), so the escrow counters never saw
        # these writes: invalidate them like any non-transactional
        # mutation.
        self.engine.wrote_outside_commit(written)
        return log, written

    def state_snapshot(self) -> dict[str, int]:
        return self.engine.store.snapshot()
