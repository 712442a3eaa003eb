"""Cluster construction facade: :class:`ClusterSpec` + :func:`build_cluster`.

A :class:`ClusterSpec` is the declarative description of a cluster:
one frozen value naming the sites, the analysis products (symbolic
tables, ground tables, object placement), and every protocol option
-- reusable, inspectable, and independent of what hosts the kernel.
:func:`build_cluster` turns a spec into a running cluster.  There is
one kernel, :class:`~repro.protocol.kernel.HomeostasisCluster`, with
two entry points (``submit`` for one transaction, ``submit_window``
for a window of racing ones), and two ways to host it:

- ``kernel="sequential"`` and ``kernel="concurrent"`` are synonyms
  for the in-process kernel (the deterministic reference and
  differential oracle);
- ``kernel="async"`` -- the wall-clock
  :class:`~repro.runtime.cluster.AsyncClusterHost`, where each site
  runs as an asyncio task and every inter-site message crosses an
  event loop as encoded wire frames.

The spec builds a *fresh* :class:`TreatyGenerator` per cluster
(generators carry per-round caches), so one spec can configure a
cluster and its differential oracle side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.analysis.symbolic import SymbolicTable
from repro.lang.ast import Transaction
from repro.protocol.homeostasis import (
    AdaptiveSettings,
    OptimizerSettings,
    TreatyGenerator,
)
from repro.protocol.kernel import HomeostasisCluster
from repro.protocol.messages import Outcome
from repro.protocol.paxos_commit import DEFAULT_NEGOTIATION, NegotiationSpec
from repro.protocol.transport import Transport

if TYPE_CHECKING:  # pragma: no cover - runtime imports protocol, not back
    from repro.runtime.cluster import AsyncClusterHost

__all__ = ["ClusterSpec", "NegotiationSpec", "Outcome", "build_cluster"]

#: Kernels :func:`build_cluster` can instantiate.
KERNELS = ("sequential", "concurrent", "async")


@dataclass(frozen=True)
class ClusterSpec:
    """Everything needed to construct a homeostasis cluster, as data.

    The analysis products (``tables``, ``ground_tables``,
    ``families``) come out of the workload builders -- see e.g.
    :meth:`repro.workloads.micro.MicroWorkload.cluster_spec` -- and the
    remaining fields are the protocol options that used to be
    constructor keywords.
    """

    #: participating site ids
    sites: tuple[int, ...]
    #: object placement: object name -> owning site
    locate: Callable[[str], int]
    #: initial database contents (applied at every site, then
    #: checkpointed)
    initial_db: Mapping[str, int]
    #: runtime symbolic tables, one per registered transaction variant
    tables: tuple[SymbolicTable, ...]
    #: transaction name -> origin (home) site
    tx_home: Mapping[str, int]
    #: per-ground-instance symbolic tables with home sites, the treaty
    #: generator's input
    ground_tables: tuple[tuple[SymbolicTable, int], ...]
    #: family transactions, for optimizer workload simulation
    families: Mapping[str, Transaction] = field(default_factory=dict)
    #: declared array domains (parameterized object families)
    arrays: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    #: treaty configuration strategy:
    #: 'default' | 'equal-split' | 'optimized' | 'demand'
    strategy: str = "default"
    #: Algorithm 1 knobs (required by strategy='optimized')
    optimizer: OptimizerSettings | None = None
    #: adaptive-reallocation knobs (enables watermark refreshes)
    adaptive: AdaptiveSettings | None = None
    #: the cleanup round's Paxos Commit acceptor-set size and the
    #: arbitration policy; the default is F = 0 (the coordinator as
    #: sole acceptor, i.e. two-phase commit), a larger acceptor set
    #: makes a round survivor-completable when its coordinator crashes
    negotiation: NegotiationSpec = DEFAULT_NEGOTIATION
    #: run the validation oracles (H1/H2, sync agreement, escrow
    #: cross-checks) next to every protocol step
    validate: bool = False

    def make_generator(self) -> TreatyGenerator:
        """A fresh treaty generator for one cluster instance.

        Fresh per call on purpose: generators carry per-round caches
        and the online demand estimator, which must not be shared
        between a cluster and its differential oracle.
        """
        return TreatyGenerator(
            ground_tables=list(self.ground_tables),
            locate=self.locate,
            sites=tuple(self.sites),
            strategy=self.strategy,
            optimizer=self.optimizer,
            families=dict(self.families),
            arrays=dict(self.arrays),
            validate=self.validate,
        )


def build_cluster(
    spec: ClusterSpec,
    *,
    kernel: str = "sequential",
    transport: Transport | None = None,
    **kernel_options: Any,
) -> "HomeostasisCluster | AsyncClusterHost":
    """Instantiate the cluster a :class:`ClusterSpec` describes.

    ``transport`` overrides the message fabric (fault plans attach
    here); the async kernel builds its own wall-clock transport and
    accepts fault/timeout knobs through ``kernel_options`` (see
    :class:`~repro.runtime.cluster.AsyncClusterHost`), which the
    in-process kernel rejects.
    """
    if kernel == "sequential" or kernel == "concurrent":
        if kernel_options:
            unknown = ", ".join(sorted(kernel_options))
            raise TypeError(
                f"kernel {kernel!r} takes no extra options (got {unknown})"
            )
        return HomeostasisCluster(spec, transport=transport)
    if kernel == "async":
        # Imported lazily: the asyncio runtime is a consumer of the
        # protocol layer, not a dependency of it.
        from repro.runtime.cluster import AsyncClusterHost

        return AsyncClusterHost(spec, transport=transport, **kernel_options)
    raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
