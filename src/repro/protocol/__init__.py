"""The homeostasis protocol runtime and baselines (Sections 3 and 5).

- :mod:`repro.protocol.messages` -- the typed inter-site message
  vocabulary plus :class:`MessageStats`, a derived view over a
  transport trace;
- :mod:`repro.protocol.transport` -- the loopback message fabric:
  every message the distributed deployment would send is recorded
  with its endpoints, grouped per negotiation, and priced per edge by
  the simulator;
- :mod:`repro.protocol.site` -- a site server: storage engine,
  snapshots of remote objects, stored-procedure execution with the
  pre-commit local treaty check; also the transport endpoint;
- :mod:`repro.protocol.catalog` -- stored procedures compiled from
  symbolic tables (Section 5.1);
- :mod:`repro.protocol.remote_writes` -- the Appendix B transform
  eliminating remote writes via per-site delta objects;
- :mod:`repro.protocol.homeostasis` -- treaty generation (the first
  phase of a round) plus the protocol's settings, result and error
  types;
- :mod:`repro.protocol.kernel` -- the one kernel,
  :class:`HomeostasisCluster`: normal execution and the
  participant-scoped cleanup phase, implemented once as a wave engine
  (racing violators resolved by a real vote phase, parallel
  negotiations over disjoint closures) behind two entry points,
  ``submit`` (one transaction, a wave of one contender) and
  ``submit_window`` (a window of interleaved submissions);
- :mod:`repro.protocol.faults` -- deterministic fault injection for
  the transport: message drop/delay, site crash-stops at message
  indices, partitions over edge sets -- all surfacing as timeouts
  rather than hangs;
- :mod:`repro.protocol.baselines` -- LOCAL, 2PC and OPT
  (demarcation-style) execution modes from Section 6.
"""

from repro.protocol.messages import (
    CleanupRun,
    Decision,
    Message,
    MessageStats,
    Prepare,
    RebalanceRequest,
    Rejoin,
    SyncBroadcast,
    Vote,
    VoteReply,
)
from repro.protocol.transport import (
    NegotiationTrace,
    Transport,
    TransportError,
    UnreachableError,
)
from repro.protocol.catalog import StoredProcedure, StoredProcedureCatalog
from repro.protocol.faults import FaultPlan, Partition
from repro.protocol.site import SiteResult, SiteServer
from repro.protocol.remote_writes import ReplicationSpec, transform_for_site
from repro.protocol.homeostasis import (
    ClusterResult,
    SyncRound,
    TreatyStrategy,
    Unavailable,
)
from repro.protocol.kernel import (
    GroupOutcome,
    HomeostasisCluster,
    WindowOutcome,
    WindowResult,
)
from repro.protocol.baselines import LocalCluster, TwoPhaseCommitCluster

__all__ = [
    "CleanupRun",
    "ClusterResult",
    "Decision",
    "FaultPlan",
    "GroupOutcome",
    "HomeostasisCluster",
    "LocalCluster",
    "Message",
    "MessageStats",
    "NegotiationTrace",
    "Partition",
    "Prepare",
    "RebalanceRequest",
    "Rejoin",
    "ReplicationSpec",
    "SiteResult",
    "SiteServer",
    "StoredProcedure",
    "StoredProcedureCatalog",
    "SyncBroadcast",
    "SyncRound",
    "Transport",
    "TransportError",
    "TreatyStrategy",
    "TwoPhaseCommitCluster",
    "Unavailable",
    "UnreachableError",
    "Vote",
    "VoteReply",
    "WindowOutcome",
    "WindowResult",
    "transform_for_site",
]
