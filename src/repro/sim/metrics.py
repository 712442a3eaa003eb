"""Measurement plumbing: latency records, percentiles, summaries."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (pct in [0, 100])."""
    if not values:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[lo] == ordered[hi]:
        return ordered[lo]  # avoid float round-off on equal neighbours
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class TxnRecord:
    """One completed transaction as the simulator saw it."""

    start_ms: float
    end_ms: float
    kind: str  # 'local' | 'sync' | '2pc' | 'failed'
    replica: int
    family: str = ""
    #: latency decomposition (Figure 24): queueing/local/comm/solver
    wait_ms: float = 0.0
    local_ms: float = 0.0
    comm_ms: float = 0.0
    solver_ms: float = 0.0
    #: vote-exchange round trip among racing violators (concurrent
    #: runtime only; 0 for unopposed negotiations)
    vote_ms: float = 0.0
    #: proactive treaty refreshes this committed transaction triggered
    #: by breaching the adaptive low-watermark
    rebalances: int = 0
    #: scoped barrier-round cost of those refreshes (priced per edge,
    #: like any negotiation; charged to the triggering transaction)
    rebalance_ms: float = 0.0
    retries: int = 0
    #: True when the transaction failed because a site it needed was
    #: unreachable (crash-stop or partition); the record's latency is
    #: the unavailability-discovery timeout the client paid
    timed_out: bool = False
    #: sites the negotiation involved (empty for local commits or
    #: kernels that do not report participant-scoped rounds)
    participants: tuple[int, ...] = ()

    @property
    def latency_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass
class LatencyStats:
    """Percentile summary of a latency population (milliseconds)."""

    count: int
    mean: float
    p50: float
    p90: float
    p95: float
    p97: float
    p99: float
    p100: float

    @classmethod
    def of(cls, latencies: Sequence[float]) -> "LatencyStats":
        if not latencies:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=len(latencies),
            mean=sum(latencies) / len(latencies),
            p50=percentile(latencies, 50),
            p90=percentile(latencies, 90),
            p95=percentile(latencies, 95),
            p97=percentile(latencies, 97),
            p99=percentile(latencies, 99),
            p100=max(latencies),
        )


@dataclass
class SimResult:
    """Everything a benchmark needs from one simulation run."""

    mode: str
    records: list[TxnRecord] = field(default_factory=list)
    committed: int = 0
    negotiations: int = 0
    #: proactive adaptive treaty refreshes (no violation, no abort)
    rebalances: int = 0
    aborted_attempts: int = 0
    failed: int = 0
    #: submissions that failed because a site they needed was
    #: unreachable (a subset of ``failed``; the rest are lock-wait
    #: timeouts under 2PC)
    timeouts: int = 0
    #: crashed-site recoveries performed during the run (WAL replay +
    #: rejoin round), and their total priced cost
    recoveries: int = 0
    recovery_ms: float = 0.0
    measured_from_ms: float = 0.0
    measured_to_ms: float = 0.0
    num_replicas: int = 1
    #: run-level escrow account counters (from
    #: ``HomeostasisCluster.escrow_stats``; empty for kernels without
    #: the counter path, e.g. the 2PC baseline)
    escrow: dict = field(default_factory=dict)
    #: run-level static-tier counters (from
    #: ``HomeostasisCluster.classifier_stats``: FREE-path bypasses and
    #: clauses-in-scope per commit; empty for kernels without it)
    classifier: dict = field(default_factory=dict)
    #: run-level arbitration fairness counters (from
    #: ``HomeostasisCluster.fairness_stats``: elections, per-site
    #: win/loss streaks, credit balances, wait percentiles; empty for
    #: kernels without the credit ledger)
    fairness: dict = field(default_factory=dict)

    # -- derived metrics --------------------------------------------------------

    def _measured(self, family: str | None = None) -> list[TxnRecord]:
        out = [
            r
            for r in self.records
            if r.start_ms >= self.measured_from_ms and r.kind != "failed"
        ]
        if family is not None:
            out = [r for r in out if r.family == family]
        return out

    def latencies(self, family: str | None = None) -> list[float]:
        return [r.latency_ms for r in self._measured(family)]

    def latency_stats(self, family: str | None = None) -> LatencyStats:
        return LatencyStats.of(self.latencies(family))

    @property
    def duration_s(self) -> float:
        return max(self.measured_to_ms - self.measured_from_ms, 1e-9) / 1000.0

    def throughput_per_replica(self, family: str | None = None) -> float:
        """Committed transactions per second per replica."""
        return len(self._measured(family)) / self.duration_s / self.num_replicas

    def total_throughput(self, family: str | None = None) -> float:
        return len(self._measured(family)) / self.duration_s

    @property
    def sync_ratio(self) -> float:
        """Fraction of measured transactions that triggered a
        synchronization (Figures 12/15/18/26/29)."""
        measured = self._measured()
        if not measured:
            return 0.0
        synced = sum(1 for r in measured if r.kind == "sync")
        return synced / len(measured)

    @property
    def availability(self) -> float:
        """Fraction of completed submissions that committed (the
        Bailis-style first-class metric of the fault experiments).
        2PC's availability collapses to ~0 for the duration of any
        outage; homeostasis only loses the closures that touch the
        crashed site."""
        total = self.committed + self.failed
        if total == 0:
            return 1.0
        return self.committed / total

    def availability_between(self, t0_ms: float, t1_ms: float) -> float:
        """Availability restricted to submissions *starting* inside
        ``[t0_ms, t1_ms)`` -- used to read the availability floor
        during an outage window specifically, where the homeo-vs-2PC
        gap is sharpest."""
        committed = failed = 0
        for r in self.records:
            if t0_ms <= r.start_ms < t1_ms:
                if r.kind == "failed":
                    failed += 1
                else:
                    committed += 1
        total = committed + failed
        if total == 0:
            return 1.0
        return committed / total

    @property
    def rebalance_ratio(self) -> float:
        """Proactive refreshes per measured transaction.  Reported next
        to :attr:`sync_ratio` so adaptive runs cannot hide coordination
        by relabelling violations as refreshes -- the honest total is
        the sum of both ratios."""
        measured = self._measured()
        if not measured:
            return 0.0
        return sum(r.rebalances for r in measured) / len(measured)

    def participant_histogram(self) -> dict[int, int]:
        """Negotiation count by participant-set size (how scoped the
        cleanup rounds actually were)."""
        out: dict[int, int] = {}
        for r in self._measured():
            if r.kind == "sync" and r.participants:
                size = len(r.participants)
                out[size] = out.get(size, 0) + 1
        return out

    def breakdown_means(self) -> dict[str, float]:
        """Mean latency decomposition of *violating* transactions
        (Figure 24)."""
        synced = [r for r in self._measured() if r.kind == "sync"]
        if not synced:
            return {"local": 0.0, "comm": 0.0, "solver": 0.0, "wait": 0.0,
                    "vote": 0.0}
        n = len(synced)
        return {
            "local": sum(r.local_ms for r in synced) / n,
            "comm": sum(r.comm_ms for r in synced) / n,
            "solver": sum(r.solver_ms for r in synced) / n,
            "wait": sum(r.wait_ms for r in synced) / n,
            "vote": sum(r.vote_ms for r in synced) / n,
        }

    def latency_cdf(self, points: Sequence[float]) -> list[tuple[float, float]]:
        """(latency, cumulative probability) pairs at given latencies
        (Figure 27)."""
        lats = sorted(self.latencies())
        if not lats:
            return [(p, 0.0) for p in points]
        out = []
        for p in points:
            idx = bisect.bisect_right(lats, p)
            out.append((p, idx / len(lats)))
        return out
