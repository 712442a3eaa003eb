"""Differential oracle: the asyncio runtime vs. the deterministic kernel.

The correctness argument for :class:`~repro.runtime.cluster.
AsyncClusterHost` is behavioural, not structural: on a fault-free
schedule the host's scheduler serializes submissions (one turn at the
kernel at a time, in arrival order), so it must be *observationally
identical* to the in-process
:class:`~repro.protocol.kernel.HomeostasisCluster` fed the same
schedule -- same per-transaction outcomes and logs, same treaty
installs (round numbers and clause sets per site), same final stores,
same protocol counters.  Anything the wire codec mangles, any
reordering the inbox tasks introduce, any reply the transport
misroutes shows up as a divergence here.

:func:`run_differential` runs one schedule against both kernels and
reports every divergence; :func:`micro_case` / :func:`geo_case` build
small, violation-dense (spec factory, schedule) pairs from the
standard workloads.  Spec *factories*, not specs: an ``optimized``
strategy carries a seeded RNG inside its
:class:`~repro.protocol.homeostasis.OptimizerSettings`, so each kernel
must get its own freshly-built spec for the pair to stay twins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.protocol.config import ClusterSpec
from repro.protocol.kernel import HomeostasisCluster
from repro.runtime.client import ServeClient
from repro.runtime.cluster import AsyncClusterHost

#: One schedule entry: (transaction name, bound parameters).
Request = tuple[str, dict[str, int]]


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one oracle run."""

    #: schedule length that was replayed against both kernels
    transactions: int
    #: human-readable divergences; empty means the kernels agree
    mismatches: tuple[str, ...]
    #: transactions the schedule committed (same on both sides when ok)
    committed: int
    #: negotiation rounds the schedule triggered -- a schedule that
    #: never violates exercises nothing; the tests gate on this > 0
    negotiations: int

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        verdict = "agree" if self.ok else f"DIVERGE ({len(self.mismatches)})"
        return (
            f"{self.transactions} txns, {self.committed} committed, "
            f"{self.negotiations} negotiations: kernels {verdict}"
        )


def run_differential(
    spec_factory: Callable[[], ClusterSpec],
    schedule: Sequence[Request],
    *,
    timeout_s: float = 5.0,
    wire: bool = False,
) -> DifferentialReport:
    """Replay ``schedule`` on the async host and the deterministic
    kernel, and compare everything observable.

    ``spec_factory`` is invoked once per kernel so mutable spec
    internals (optimizer RNGs, generator caches) are never shared.
    The schedule must be fault-free -- both kernels run with no fault
    plan, so ``timeout_s`` is never actually paid.  With ``wire`` the
    host is driven the way clients drive it: :func:`~repro.runtime.
    serve.serve` runs in-process on the host's loop, one
    :class:`~repro.runtime.client.ServeClient` connection replays the
    schedule, and the ``stats`` reply's global state is compared too.
    """
    # Imported here: ``python -m repro.runtime.serve`` imports this
    # package before it runs the module as __main__.
    from repro.runtime.serve import result_reply, serving

    mismatches: list[str] = []
    oracle = HomeostasisCluster(spec_factory())
    with AsyncClusterHost(spec_factory(), timeout_s=timeout_s) as host:
        if wire:
            with serving(host) as address, ServeClient(*address) as client:
                replies = [client.submit(tx, params) for tx, params in schedule]
                wire_state = client.stats()["global_state"]
        else:
            replies = [
                result_reply(host.try_submit(tx, params)) for tx, params in schedule
            ]
        for i, ((tx_name, params), got) in enumerate(zip(schedule, replies)):
            want = result_reply(oracle.try_submit(tx_name, params))
            for field_name in ("status", "log", "synced", "site"):
                w, g = want[field_name], got[field_name]
                if w != g:
                    mismatches.append(
                        f"txn {i} ({tx_name}): {field_name} "
                        f"oracle={w!r} async={g!r}"
                    )
        if wire and wire_state != (want_state := oracle.global_state()):
            mismatches.append(
                f"stats global_state: oracle={want_state!r} wire={wire_state!r}"
            )
        _compare_treaties(oracle, host.cluster, mismatches)
        _compare_stores(oracle, host.cluster, mismatches)
        _compare_stats(oracle, host.cluster, mismatches)
        stats = host.stats
        report = DifferentialReport(
            transactions=len(schedule),
            mismatches=tuple(mismatches),
            committed=stats.committed_local,
            negotiations=stats.negotiations,
        )
    return report


def _compare_treaties(
    oracle: HomeostasisCluster, cluster: HomeostasisCluster, out: list[str]
) -> None:
    for sid in oracle.site_ids:
        want = _treaty_fingerprint(oracle.sites[sid])
        got = _treaty_fingerprint(cluster.sites[sid])
        if want != got:
            out.append(f"site {sid}: treaty oracle={want!r} async={got!r}")


def _treaty_fingerprint(server: Any) -> tuple[int, frozenset[str] | None]:
    treaty = server.local_treaty
    clauses = (
        None
        if treaty is None
        else frozenset(c.pretty() for c in treaty.constraints)
    )
    return (server.treaty_round, clauses)


def _compare_stores(
    oracle: HomeostasisCluster, cluster: HomeostasisCluster, out: list[str]
) -> None:
    for sid in oracle.site_ids:
        want = oracle.sites[sid].state_snapshot()
        got = cluster.sites[sid].state_snapshot()
        if want != got:
            diff = {
                k: (want.get(k), got.get(k))
                for k in set(want) | set(got)
                if want.get(k) != got.get(k)
            }
            out.append(f"site {sid}: store diverges on {diff!r}")


def _compare_stats(
    oracle: HomeostasisCluster, cluster: HomeostasisCluster, out: list[str]
) -> None:
    for field_name in (
        "submitted",
        "committed_local",
        "negotiations",
        "rebalances",
        "timeouts",
        "rounds",
    ):
        w = getattr(oracle.stats, field_name)
        g = getattr(cluster.stats, field_name)
        if w != g:
            out.append(f"stats.{field_name}: oracle={w} async={g}")


# -- canned cases ---------------------------------------------------------------


def micro_case(
    seed: int, txns: int = 40, *, validate: bool = False
) -> tuple[Callable[[], ClusterSpec], list[Request]]:
    """A small, violation-dense microbenchmark schedule.

    Tight stock (refill 6 split across 3 sites) makes treaties violate
    within a handful of buys, so the schedule exercises negotiation,
    re-execution, and treaty reinstall -- not just the local fast path.
    """
    from repro.workloads.micro import MicroWorkload

    workload = MicroWorkload(num_items=8, refill=6, num_sites=3)

    def factory() -> ClusterSpec:
        return workload.cluster_spec(
            strategy="equal-split", seed=seed, validate=validate
        )

    rng = random.Random(seed)
    schedule = [
        (req.tx_name, dict(req.params))
        for req in (workload.next_request(rng) for _ in range(txns))
    ]
    return factory, schedule


def geo_case(
    seed: int, txns: int = 40, *, validate: bool = False
) -> tuple[Callable[[], ClusterSpec], list[Request]]:
    """A replication-group schedule: two disjoint groups, so cleanup
    scopes stay participant-local while both groups churn."""
    from repro.workloads.geo import GeoMicroWorkload

    workload = GeoMicroWorkload(
        groups=((0, 1), (2, 3)), items_per_group=4, refill=6
    )

    def factory() -> ClusterSpec:
        return workload.cluster_spec(
            strategy="equal-split", seed=seed, validate=validate
        )

    rng = random.Random(seed)
    schedule = [
        (req.tx_name, dict(req.params))
        for req in (workload.next_request(rng) for _ in range(txns))
    ]
    return factory, schedule
