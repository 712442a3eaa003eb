"""The homeostasis protocol's vocabulary and treaty generation (Section 3.3).

Rounds have three phases: treaty generation, normal execution and
cleanup.  The last two are the kernel's
(:class:`repro.protocol.kernel.HomeostasisCluster`); this module holds
what the kernel is configured from and what it reports --

- the round's first phase, **treaty generation**
  (:class:`TreatyGenerator`): look up the joint-table row psi matching
  the synchronized database, linearize it (Appendix C.1), pin objects
  remote-read by the matched residuals (Appendix C.3 / Assumption
  4.1), split into per-site templates, instantiate a configuration
  (Theorem 4.3 default, demarcation equal-split, Algorithm 1
  optimized, or demand-weighted), ready to install as local treaties
  at every site;
- the knobs and the online estimator of **adaptive reallocation**
  (:class:`AdaptiveSettings`, :class:`DemandEstimator`) and of
  Algorithm 1 (:class:`OptimizerSettings`);
- what a client observes (:class:`ClusterResult`, :class:`Unavailable`,
  :class:`ProtocolError`) and the kernel's counters
  (:class:`ClusterStats`, :class:`SyncRound`).

Treaty generation is *incremental*: factors of the joint table whose
objects did not change since the previous round keep their clauses
and configuration verbatim (their per-factor treaty is a pure
function of factor-local state, so regeneration would reproduce it;
for the stochastic optimizer the cached configuration remains one of
the valid optima).  A touched factor pays for what the database
changed, not for what its row says: everything a matched row derives
but the pin values -- which conjuncts linearize, which are pinned and
over what, the per-site split -- is kept per ``(instance, row)`` the
first time the row matches (its *shape*) and re-bound afterwards, and
the optimizer's value memo keeps the one thing that is not a function
of the values, the split the sampled futures chose; within a round,
instances that carry the same clause configure it once, through the
round's :class:`~repro.treaty.optimize.SampledFutures`.  This is an
engineering optimization -- validity (H1/H2) is untouched -- that turns
per-round cost from O(database) into O(touched factors), assembly
included: the recomputed pieces are handed to a
:class:`~repro.treaty.assembly.TreatyAssembly`, which re-derives only
the clauses they contribute to (docs/ARCHITECTURE.md, "What a round
costs").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.analysis.residual import residual_reads
from repro.analysis.symbolic import Row, SymbolicTable
from repro.lang.ast import Transaction
from repro.logic.linearize import (
    LinearizedTreaty,
    linearize_for_treaty,
    pin_constraint,
)
from repro.logic.terms import ObjT
from repro.protocol.messages import MessageStats, Outcome
from repro.protocol.transport import Transport
from repro.treaty.assembly import ContradictoryPins, TreatyAssembly, TreatyPiece
from repro.treaty.config import (
    Configuration,
    default_configuration,
    equal_split_configuration,
)
from repro.treaty.optimize import (
    Family,
    SampledFutures,
    SampledRun,
    WorkloadModel,
    configure_from_samples,
    demand_configuration,
    lower_families,
    sample_executions,
)
from repro.treaty.table import InstallDivergence, TreatyTable
from repro.treaty.templates import TreatyTemplates, build_templates

#: Recognized treaty strategies.
TreatyStrategy = str  # 'default' | 'equal-split' | 'optimized' | 'demand'

#: one generate(): the database as read and as a snapshot, and the
#: pieces it recomputed
_Round = tuple[Callable[[str], int], Mapping[str, int], dict[int, TreatyPiece]]


class ProtocolError(Exception):
    """Violations of protocol invariants (indicate bugs, not workload)."""


class Unavailable(Exception):
    """A submission could not complete because a site it needs is
    unreachable (its origin crashed, or its negotiation's participant
    closure includes a crashed/partitioned site).

    This is the protocol behaving correctly under faults, not a bug:
    the round aborted cleanly, no state or treaty changed, and the
    transaction can be retried once the missing site recovers.  The
    simulator prices each occurrence as a timeout stall; contrast 2PC,
    where *every* transaction raises this while any replica is down.
    """

    def __init__(
        self,
        reason: str,
        sites: frozenset[int] = frozenset(),
        status: Outcome = Outcome.UNAVAILABLE,
    ) -> None:
        super().__init__(reason)
        self.sites = sites
        #: how the facade reports this failure: ``REFUSED`` when the
        #: needed site was *known* down (fast refusal, no messages
        #: wasted), ``UNAVAILABLE`` when a timeout discovered the
        #: crash mid-round
        self.status = status


@dataclass
class ClusterResult:
    """What the client observes for one submitted transaction."""

    log: tuple[int, ...]
    site: int
    synced: bool  # did this transaction trigger a treaty negotiation?
    row_index: int | None = None
    #: sites the negotiation involved (empty for local commits); the
    #: simulator prices the round from the RTT edges between them
    participants: tuple[int, ...] = ()
    #: participants of the proactive treaty refresh this *committed*
    #: transaction triggered by breaching the adaptive low-watermark
    #: (empty when no refresh ran); priced like any negotiation
    rebalanced: tuple[int, ...] = ()
    #: unified result status (see :class:`~repro.protocol.messages.Outcome`);
    #: the kernel's ``submit`` raises on unavailability, so results it
    #: returns are always ``COMMITTED`` -- ``try_submit`` maps the
    #: exception into ``REFUSED``/``UNAVAILABLE`` results instead
    status: Outcome = Outcome.COMMITTED


@dataclass
class DemandEstimator:
    """Online per-object write-rate estimator over the commit trace.

    The negotiation input of the adaptive (``demand``) strategy: every
    committed or violating attempt bumps an exponentially-decayed
    counter per written object, and
    :func:`~repro.treaty.optimize.demand_configuration` sums the rates
    of each site's clause objects to weight its share of the slack.
    Because treaty objects are site-owned (the Appendix B transform
    gives every site its own delta objects), per-object rates *are*
    per-site, per-template consumption rates.

    This replaces the a-priori :class:`SequenceWorkloadModel` as the
    thing negotiations are configured from: the model guessed the
    future workload at build time, the estimator measures the one
    actually running.  Decay is lazy (applied on access from the step
    distance), so ``observe`` is O(write set).
    """

    #: observations after which an unrefreshed count loses half its
    #: weight -- the window the estimator "remembers" demand over
    halflife: int = 512
    _counts: dict[str, tuple[float, int]] = field(default_factory=dict)
    _step: int = 0

    def __post_init__(self) -> None:
        self._decay = 0.5 ** (1.0 / self.halflife)

    def observe(self, written) -> None:
        """Record one attempt's write set."""
        self._step += 1
        for name in written:
            count, last = self._counts.get(name, (0.0, self._step))
            decayed = count * self._decay ** (self._step - last)
            self._counts[name] = (decayed + 1.0, self._step)

    def rate(self, name: str) -> float:
        """The decayed write count of one object (0.0 if never seen)."""
        entry = self._counts.get(name)
        if entry is None:
            return 0.0
        count, last = entry
        return count * self._decay ** (self._step - last)


@dataclass
class AdaptiveSettings:
    """Knobs of the adaptive reallocation subsystem.

    ``watermark`` is the proactive-refresh trigger: after a commit, if
    any ``<=``-clause of the origin's local treaty touched by the
    write set has remaining slack below ``watermark`` times the slack
    it was granted at install time, the site requests a
    participant-scoped rebalance *before* the budget runs out --
    Soethout-style local coordination avoidance: pay a scoped refresh
    now instead of an abort + cleanup round later.  Clauses whose
    install-time grant was below ``min_headroom`` are exempt (a
    refresh cannot stretch a budget the global slack cannot fund; the
    violation path handles those).
    """

    watermark: float = 0.25
    min_headroom: int = 4
    #: estimator memory, in observations (see :class:`DemandEstimator`)
    halflife: int = 512


@dataclass
class OptimizerSettings:
    """Algorithm 1 knobs (Appendix C.2)."""

    model: WorkloadModel
    lookahead: int = 20
    cost_factor: int = 3
    engine: str = "fast"
    rng: random.Random = field(default_factory=lambda: random.Random(0))


@dataclass
class TreatyGenerator:
    """Builds (incrementally) a fresh treaty table from a synchronized
    database.

    The generator works *lazily* over the per-ground-instance symbolic
    tables rather than a materialized joint table: the joint row
    matching the current database is, by the cross-product
    construction of Section 2.2, exactly the conjunction of the rows
    each member table matches, so the conjunction can be assembled
    per-instance without ever materializing the product (whose size
    is exponential for workloads like TPC-C where one transaction
    spans several otherwise-independent object groups).
    """

    ground_tables: list[tuple[SymbolicTable, int]]  # (table, home site)
    locate: Callable[[str], int]
    sites: tuple[int, ...]
    strategy: TreatyStrategy = "default"
    optimizer: OptimizerSettings | None = None
    #: online demand estimator feeding the 'demand' strategy (the
    #: cluster wires its own estimator in at construction)
    demand: DemandEstimator | None = None
    #: family transactions, for optimizer workload simulation
    families: dict[str, Transaction] = field(default_factory=dict)
    arrays: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    #: cumulative count of instance recomputations (observability)
    instances_recomputed: int = 0

    #: the merged treaty, holding every instance's current piece
    _assembly: TreatyAssembly = field(init=False)
    _instance_objects: list[set[str]] | None = None
    #: per (instance, ``id`` of a row of its table): what the row
    #: derived the first time it matched.  Everything in it but the pin
    #: values is a function of the row, so later matches re-bind it.
    _shapes: dict[tuple[int, int], tuple[LinearizedTreaty, TreatyTemplates]] = field(
        init=False, default_factory=dict
    )
    #: the sampling optimizer's memo: the values of the objects an
    #: instance depends on -> the configuration chosen the first time
    #: they were seen, one integer per clause and site.  A piece is a
    #: function of those values in everything *but* which optimum the
    #: sampled futures picked, so that is all there is to remember; a
    #: revisited value combination (stock levels recur across refill
    #: cycles) keeps its optimum instead of re-sampling (H1/H2 validity
    #: is a per-piece property).  Unbounded in entries: dropping one
    #: would change which rounds sample, hence every later treaty.
    _memo: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = field(
        default_factory=dict
    )
    _instance_keys: list[tuple[str, ...]] | None = None
    #: :attr:`families` lowered for replay, the first time a round samples
    _lowered: dict[str, Family] | None = None
    #: workload samples shared by all instances within one generate(),
    #: with the clause work they share
    _futures: SampledFutures | None = None
    #: instances configured against :attr:`_futures` this round (not
    #: taken from :attr:`_memo`)
    _configured: set[int] = field(init=False, default_factory=set)
    #: the last generate()'s database and pieces, for the validate oracle
    _last_round: _Round | None = field(init=False, default=None)
    #: lazy reverse index: object name -> instances depending on it
    _object_to_instances: dict[str, list[int]] | None = None

    def __post_init__(self) -> None:
        self._assembly = TreatyAssembly(self.locate, self.sites, self.strategy)

    # -- instance/object indexing -------------------------------------------------

    def _objects_of_instance(self, idx: int) -> set[str]:
        """Objects whose values the instance's treaty piece depends on.

        These are exactly (a) objects mentioned by any row guard --
        they select the row and parameterize clause bounds/configs --
        and (b) remote reads of any row residual -- they become
        Appendix C.3 equality pins at their current values.  Objects
        the instance merely *writes* or reads locally do not influence
        the generated piece, so changes to them must not trigger
        recomputation (e.g. a New Order bumps its district's
        unfulfilled-order count, but its stock treaty is untouched).
        """
        if self._instance_objects is None:
            self._instance_objects = []
            for table, home in self.ground_tables:
                names: set[str] = set()
                for row in table.rows:
                    for obj in row.guard.objects():
                        names.add(obj.name)
                    for indexed in row.guard.indexed_objects():
                        grounded = indexed.try_ground()
                        if grounded is None:
                            raise ProtocolError(
                                f"ground instance {table.transaction.name} has a "
                                "parameterized guard; ground the workload fully"
                            )
                        names.add(grounded.name)
                    for read in residual_reads(row.residual):
                        if isinstance(read, str) and self.locate(read) != home:
                            names.add(read)
                self._instance_objects.append(names)
        return self._instance_objects[idx]

    def instances_touching(self, names) -> set[int]:
        """Instances whose treaty piece depends on any of the objects."""
        if self._object_to_instances is None:
            index: dict[str, list[int]] = {}
            for idx in range(len(self.ground_tables)):
                for name in self._objects_of_instance(idx):
                    index.setdefault(name, []).append(idx)
            self._object_to_instances = index
        out: set[int] = set()
        for name in names:
            out.update(self._object_to_instances.get(name, ()))
        return out

    def objects_touching(self, names) -> set[str]:
        """Union of the object sets of every instance touching ``names``
        (the state a negotiation over ``names`` must refresh)."""
        out: set[str] = set()
        for idx in self.instances_touching(names):
            out |= self._objects_of_instance(idx)
        return out

    def sites_touching(self, names) -> set[int]:
        """Sites a change to ``names`` drags into a negotiation: the
        home site of every affected instance (its snapshots of the
        changed objects parameterize its piece) plus the owners of
        every object those instances depend on (their current values
        feed the recomputation)."""
        sites: set[int] = set()
        for idx in self.instances_touching(names):
            sites.add(self.ground_tables[idx][1])
            for name in self._objects_of_instance(idx):
                sites.add(self.locate(name))
        return sites

    # -- per-instance computation ---------------------------------------------------

    def _derive(
        self, idx: int, row: Row, getobj: Callable[[str], int]
    ) -> tuple[LinearizedTreaty, TreatyTemplates]:
        """The clauses the instance's matched ``row`` yields on the
        current database, from scratch: its guard linearized (Appendix
        C.1), its remote reads pinned (Appendix C.3), every clause
        split per site.  Runs the first time a row matches, and under
        validate as the oracle for every piece bound from the result."""
        table, home = self.ground_tables[idx]
        lin = linearize_for_treaty(row.guard, getobj)
        # Appendix C.3: pin objects remote-read by the matched residual.
        # Sorted: the pins' order reaches the WAL bytes and the treaty
        # fingerprint, which must not follow the set's string hashing
        # (key=str because a parameterized read is a tuple).
        pinned_names: set[str] = set()
        for read in sorted(residual_reads(row.residual), key=str):
            if not isinstance(read, str):
                raise ProtocolError(
                    f"ground instance {table.transaction.name} has "
                    f"parameterized residual read {read!r}"
                )
            if self.locate(read) != home and read not in pinned_names:
                pinned_names.add(read)
                lin.pins.append((len(lin.constraints), ObjT(read)))
                lin.constraints.append(pin_constraint(ObjT(read), getobj))
                lin.pinned.add(ObjT(read))
        # No clause here is trivially true: linearization drops those,
        # and a pin has a coefficient.
        return lin, build_templates(lin, self.locate, self.sites)

    def _bind(
        self, idx: int, getobj: Callable[[str], int]
    ) -> tuple[LinearizedTreaty, TreatyTemplates]:
        """:meth:`_derive`'s result, through the matched row's shape.
        Pieces share their shape's lists; nothing mutates a piece."""
        row = self.ground_tables[idx][0].lookup(getobj)
        shape = self._shapes.get((idx, id(row)))
        if shape is None:
            shape = self._shapes[idx, id(row)] = self._derive(idx, row, getobj)
            return shape
        lin = shape[0].rebound(getobj)
        if lin is shape[0]:
            return shape
        return lin, shape[1].rebound(lin.constraints)

    def _piece(
        self,
        idx: int,
        getobj: Callable[[str], int],
        db_snapshot: Mapping[str, int],
    ) -> TreatyPiece:
        """The instance's piece: its bound shape plus a configuration."""
        lin, templates = self._bind(idx, getobj)
        # The deterministic strategies configure every time: the split
        # is cheaper to compute than to key.  So does 'demand', whose
        # split follows the estimator, not the object values.
        memo_key = split = None
        if self.strategy == "optimized":
            memo_key = self._memo_key(idx, getobj)
            split = self._memo.get(memo_key)
        if split is None:
            self.instances_recomputed += 1
            self._configured.add(idx)
            config = self._configure(templates, getobj, db_snapshot)
            split = tuple(
                config.values[clause.config_var(site)]
                for clause in templates.clauses
                for site in clause.sites
            )
            if memo_key is not None:
                self._memo[memo_key] = split
        width = len(self.sites)
        return TreatyPiece(
            constraints=lin.constraints,
            per_clause_config=[
                dict(zip(self.sites, split[at : at + width]))
                for at in range(0, len(split), width)
            ],
            site_exprs=[clause.site_exprs for clause in templates.clauses],
            pinned=lin.pinned,
        )

    def _memo_key(
        self, idx: int, getobj: Callable[[str], int]
    ) -> tuple[int, tuple[int, ...]]:
        if self._instance_keys is None:
            self._instance_keys = [
                tuple(sorted(self._objects_of_instance(i)))
                for i in range(len(self.ground_tables))
            ]
        return idx, tuple(getobj(n) for n in self._instance_keys[idx])

    def _configure(
        self, templates: TreatyTemplates, getobj, db_snapshot
    ) -> Configuration:
        if self.strategy == "default":
            return default_configuration(templates, getobj)
        if self.strategy == "equal-split":
            return equal_split_configuration(templates, getobj)
        if self.strategy == "demand":
            if self.demand is None:
                raise ProtocolError("strategy 'demand' requires a DemandEstimator")
            return demand_configuration(templates, getobj, self.demand.rate)
        if self.strategy == "optimized":
            if self.optimizer is None:
                raise ProtocolError("strategy 'optimized' requires OptimizerSettings")
            if self._futures is None:
                if self._lowered is None:
                    self._lowered = lower_families(self.families)
                self._futures = sample_executions(
                    db_snapshot,
                    self._lowered,
                    self.optimizer.model,
                    self.optimizer.lookahead,
                    self.optimizer.cost_factor,
                    self.optimizer.rng,
                    self.arrays,
                )
            config, _stats = configure_from_samples(
                templates, getobj, self._futures, engine=self.optimizer.engine
            )
            return config
        raise ProtocolError(f"unknown treaty strategy {self.strategy!r}")

    # -- assembly --------------------------------------------------------------------

    def generate(
        self,
        getobj: Callable[[str], int],
        db_snapshot: Mapping[str, int],
        round_number: int,
        dirty: set[str] | None = None,
    ) -> TreatyTable:
        """Build the treaty table; with ``dirty`` given, reuse cached
        instances whose objects are untouched.

        Assembly dedups identical clauses and drops ``<=``-clauses
        dominated by a tighter clause over the same expression (e.g.
        grounding one transaction over quantities 1..5 yields the
        nested guards ``stock >= 11 .. stock >= 15``; only the tightest
        needs enforcing, and it implies the rest).
        """
        self._futures = None  # fresh samples per generation
        self._configured = set()
        pieces = self._assembly.pieces
        if dirty is None or len(pieces) < len(self.ground_tables):
            stale: Iterable[int] = range(len(self.ground_tables))
        else:
            stale = sorted(self.instances_touching(dirty))
        changed = {idx: self._piece(idx, getobj, db_snapshot) for idx in stale}
        self._last_round = (getobj, db_snapshot, changed)
        try:
            return self._assembly.update(changed, round_number)
        except ContradictoryPins as exc:
            raise ProtocolError(str(exc)) from exc

    def assert_matches_scratch(self, table: TreatyTable) -> None:
        """The validate-mode oracle of incremental generation: the
        pieces :meth:`generate` just bound from cached shapes must equal
        what deriving them afresh gives, and the table it returned what
        its pieces assemble to with nothing carried over.  Under
        ``optimized`` the round's shared work is re-done unshared: every
        sampled run replayed through :mod:`repro.lang.interp` must write
        what its compiled replay wrote, and every piece configured this
        round must get the same split configured on its own."""
        assert self._last_round is not None
        getobj, db_snapshot, changed = self._last_round
        futures = self._futures
        if futures is not None:
            self._assert_replays_match(futures, db_snapshot, table.round_number)
        for idx, piece in changed.items():
            row = self.ground_tables[idx][0].lookup(getobj)
            lin, templates = self._derive(idx, row, getobj)
            have = (piece.constraints, piece.site_exprs, piece.pinned)
            expect = (
                lin.constraints,
                [clause.site_exprs for clause in templates.clauses],
                lin.pinned,
            )
            if have != expect:
                raise InstallDivergence(
                    f"round {table.round_number}: instance {idx}'s piece bound "
                    f"from its row shape differs from scratch: {have} vs {expect}"
                )
            if futures is not None and idx in self._configured:
                assert self.optimizer is not None
                config, _stats = configure_from_samples(
                    templates,
                    getobj,
                    SampledFutures(futures.runs),
                    engine=self.optimizer.engine,
                )
                values = config.values
                alone = [
                    {site: values[clause.config_var(site)] for site in self.sites}
                    for clause in templates.clauses
                ]
                if piece.per_clause_config != alone:
                    raise InstallDivergence(
                        f"round {table.round_number}: instance {idx}'s shared "
                        f"configuration differs from its own: "
                        f"{piece.per_clause_config} vs {alone}"
                    )
        self._assembly.assert_matches_scratch(table)

    def _assert_replays_match(
        self, futures: SampledFutures, db_snapshot: Mapping[str, int], round_number: int
    ) -> None:
        """Every compiled replay of ``futures`` wrote what the
        interpreter writes for its sampled sequence."""
        assert self._lowered is not None
        for at, run in enumerate(futures.runs):
            reference = SampledRun(dict(db_snapshot))
            for name, params in run.sampled:
                reference.replay_interpreted(self._lowered[name], params, self.arrays)
            have = (run.steps, run.writes, run.state)
            expect = (reference.steps, reference.writes, reference.state)
            if have != expect:
                raise InstallDivergence(
                    f"round {round_number}: sampled run {at}'s compiled replay "
                    f"differs from the interpreter's: {have} vs {expect}"
                )


@dataclass
class SyncRound:
    """What the most recent synchronization round covered.

    Exposed to post-sync hooks so they can confine their rewrites to
    the participant set (non-participant sites saw none of this
    round's messages and must not be mutated behind their backs).
    """

    participants: frozenset[int]
    #: the broadcast update set (object -> synchronized value)
    updates: dict[str, int]
    #: the subset of updates that actually changed since their owner's
    #: last checkpoint
    dirty: set[str]


@dataclass
class ClusterStats:
    """Aggregate protocol statistics.

    ``messages`` is a derived view over the transport trace -- the
    kernel sends typed messages and never maintains counters by hand.
    """

    submitted: int = 0
    committed_local: int = 0
    negotiations: int = 0
    #: proactive adaptive treaty refreshes (no violation, no abort)
    rebalances: int = 0
    #: rounds that could not run because a participant was unreachable
    #: (known-down fast refusal, or a timeout discovered mid-round)
    timeouts: int = 0
    #: rejoin rounds run by recovered sites (WAL replay + re-sync)
    recoveries: int = 0
    rounds: int = 0
    transport: Transport = field(default_factory=Transport)

    @property
    def messages(self) -> MessageStats:
        return self.transport.message_stats()

    @property
    def sync_ratio(self) -> float:
        if self.submitted == 0:
            return 0.0
        return self.negotiations / self.submitted
