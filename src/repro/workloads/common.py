"""Shared machinery of the replicated workloads.

Every workload the simulator drives (micro, geo, TPC-C, flash-sale,
banking, quota) shares one builder spine,
:class:`ReplicatedWorkloadBase`: ``cluster_spec`` assembling a
:class:`ClusterSpec` from the analysis products, ``build_homeostasis``
instantiating the kernel from it, and the LOCAL / 2PC baseline
constructors -- each defined here and nowhere else.  Their
``next_request`` methods all return the one :class:`WorkloadRequest`
shape, which is also what the simulator reads (``tx_name``,
``params``, ``lock_keys``, ``family``), so an experiment needs no
per-workload adapter.

The module also hosts the construction-time spec validators.  A
misconfigured workload used to fail deep inside the kernel -- a zero
item count surfaces as an opaque ``ValueError`` from the treaty
generator's empty ground basis, an unknown site as a ``KeyError``
mid-negotiation.  Every workload now validates its frozen spec in
``__post_init__`` and raises :class:`WorkloadSpecError` with the
field name in the message, so bad configs die at the constructor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.analysis.ground import assert_same_grounding, ground_family, ground_instances
from repro.analysis.symbolic import SymbolicTable, build_symbolic_table
from repro.lang.ast import Transaction
from repro.protocol.baselines import LocalCluster, TwoPhaseCommitCluster
from repro.protocol.config import ClusterSpec
from repro.protocol.homeostasis import AdaptiveSettings, OptimizerSettings
from repro.protocol.kernel import HomeostasisCluster
from repro.protocol.paxos_commit import DEFAULT_NEGOTIATION, NegotiationSpec
from repro.treaty.optimize import SequenceWorkloadModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.remote_writes import ReplicationSpec


class WorkloadSpecError(ValueError):
    """A workload was constructed with an invalid frozen spec.

    Subclasses ``ValueError`` so existing ``pytest.raises(ValueError)``
    call sites keep working; the message always names the offending
    field and the value it received.
    """


def require_positive(name: str, value: int | float) -> None:
    if not value > 0:
        raise WorkloadSpecError(f"{name} must be positive, got {value!r}")


def require_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise WorkloadSpecError(f"{name} must be in [0, 1], got {value!r}")


def require_sites(name: str, num_sites: int, floor: int = 1) -> None:
    """Site counts: at least ``floor`` (replication needs two)."""
    if num_sites < floor:
        raise WorkloadSpecError(
            f"{name} must be >= {floor} site(s), got {num_sites!r}"
        )


def require_nonempty(name: str, value: Sequence) -> None:
    if len(value) == 0:
        raise WorkloadSpecError(f"{name} must be non-empty")


@dataclass
class WorkloadRequest:
    """One client request, as the kernel and the simulator see it."""

    tx_name: str
    #: latency-reporting class (``SimResult.latency_stats(family)``)
    family: str
    params: dict[str, int]
    site: int
    #: objects relevant for contention modelling: same-key requests
    #: serialize on the simulator's item locks
    lock_keys: tuple


#: one family treaty generation grounds: the transaction, its parameter
#: domains, and the home site of every instance
Grounding = tuple[Transaction, Mapping[str, Sequence[int]], int]


class ReplicatedWorkloadBase:
    """Builder spine shared by every replicated workload.

    Subclasses populate (normally in ``__post_init__``):

    - ``sites`` -- tuple of site ids;
    - ``spec`` -- the :class:`ReplicationSpec` placing bases/deltas;
    - ``variants`` -- transformed per-site transactions by name;
    - ``tx_home`` -- transaction name -> origin site;
    - ``initial_db`` -- replicated initial store (deltas included);
    - ``initial_values`` -- the un-replicated logical values;
    - ``default_strategy`` -- the treaty strategy builders default to;

    and implement :meth:`ground_families` plus :meth:`workload_model`
    (only needed for ``strategy="optimized"``) and the two baseline
    hooks: :meth:`baseline_transactions` (untransformed variants) and,
    when ``initial_values`` is not the whole un-replicated store,
    :meth:`baseline_db`.
    """

    sites: tuple[int, ...]
    spec: "ReplicationSpec"
    variants: dict[str, Transaction]
    tx_home: dict[str, int]
    initial_db: dict[str, int]
    initial_values: dict[str, int]
    default_strategy: str = "equal-split"

    # -- analysis products ---------------------------------------------------

    def locate(self, name: str) -> int:
        return self.spec.locate(name, fallback=0)

    def variant_tables(self) -> dict[str, SymbolicTable]:
        """The symbolic table of every variant, by name: the site
        catalog's tables and the families' tables grounding starts from."""
        return {name: build_symbolic_table(tx) for name, tx in self.variants.items()}

    def ground_families(self, tables: Mapping[str, SymbolicTable]) -> list[Grounding]:
        """The families treaty generation grounds (``tables`` holds the
        variants' tables, for workloads that select by them)."""
        raise NotImplementedError

    def ground_tables(
        self, tables: Mapping[str, SymbolicTable] | None = None
    ) -> list[tuple[SymbolicTable, int]]:
        """Per-instance symbolic tables with home sites, the treaty
        generator's input: each family analysed once and grounded by
        substitution (a family that is not a variant is analysed here)."""
        if tables is None:
            tables = self.variant_tables()
        return [
            (instance, site)
            for tx, domains, site in self.ground_families(tables)
            for instance in ground_family(tx, domains, tables.get(tx.name))
        ]

    def workload_model(self) -> SequenceWorkloadModel:
        raise NotImplementedError

    # -- cluster builders ----------------------------------------------------

    def cluster_spec(
        self,
        strategy: str | None = None,
        lookahead: int = 20,
        cost_factor: int = 3,
        seed: int = 0,
        validate: bool = False,
        adaptive: AdaptiveSettings | None = None,
        negotiation: NegotiationSpec = DEFAULT_NEGOTIATION,
    ) -> ClusterSpec:
        """The workload as a :class:`ClusterSpec` (feed
        :func:`~repro.protocol.config.build_cluster` with any kernel)."""
        if strategy is None:
            strategy = self.default_strategy
        optimizer = None
        if strategy == "optimized":
            optimizer = OptimizerSettings(
                model=self.workload_model(),
                lookahead=lookahead,
                cost_factor=cost_factor,
                rng=random.Random(seed),
            )
        tables = self.variant_tables()
        ground = self.ground_tables(tables)
        if validate:
            # The oracle: every instance analysed on its own.
            reference = [
                (build_symbolic_table(gi.transaction), site)
                for tx, domains, site in self.ground_families(tables)
                for gi in ground_instances(tx, domains)
            ]
            assert_same_grounding(ground, reference)
        return ClusterSpec(
            sites=self.sites,
            locate=self.locate,
            initial_db=self.initial_db,
            tables=tuple(tables.values()),
            tx_home=self.tx_home,
            ground_tables=tuple(ground),
            families=dict(self.variants),
            strategy=strategy,
            optimizer=optimizer,
            adaptive=adaptive,
            negotiation=negotiation,
            validate=validate,
        )

    def build_homeostasis(
        self,
        strategy: str | None = None,
        lookahead: int = 20,
        cost_factor: int = 3,
        seed: int = 0,
        validate: bool = False,
        adaptive: AdaptiveSettings | None = None,
        negotiation: NegotiationSpec = DEFAULT_NEGOTIATION,
    ) -> HomeostasisCluster:
        spec = self.cluster_spec(
            strategy=strategy,
            lookahead=lookahead,
            cost_factor=cost_factor,
            seed=seed,
            validate=validate,
            adaptive=adaptive,
            negotiation=negotiation,
        )
        return HomeostasisCluster(spec)

    # -- baselines (LOCAL / 2PC replicate full state, no deltas) -------------

    def baseline_transactions(self) -> dict[str, Transaction]:
        raise NotImplementedError

    def baseline_db(self) -> dict[str, int]:
        return dict(self.initial_values)

    def build_local(self) -> LocalCluster:
        return LocalCluster(
            site_ids=self.sites,
            initial_db=self.baseline_db(),
            transactions=self.baseline_transactions(),
            tx_home=self.tx_home,
        )

    def build_2pc(self) -> TwoPhaseCommitCluster:
        return TwoPhaseCommitCluster(
            site_ids=self.sites,
            initial_db=self.baseline_db(),
            transactions=self.baseline_transactions(),
            tx_home=self.tx_home,
        )

    def reference_transaction(self, name: str) -> Transaction:
        """The transformed transaction for serial-equivalence checks."""
        return self.variants[name]
