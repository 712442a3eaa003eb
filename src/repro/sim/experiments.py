"""Prepackaged experiment runners used by the benchmark suite.

Every public ``run_*`` function is "construct the workload, name the
network, delegate": :func:`_run` holds the one mode -> cluster switch,
the one :class:`SimConfig` literal and the one :func:`simulate` call,
and every workload's ``next_request`` already returns what the
simulator reads, so no experiment carries its own adapter.  Each
returns a :class:`SimResult`.

Scale note (documented in EXPERIMENTS.md): the paper's runs use
10,000 items / 100,000 stock rows and 300-500 s measurement windows
on real hardware; the reproduction runs scaled-down populations and
transaction counts so a full figure regenerates in seconds of wall
time.  All reported quantities are intensive (latency percentiles,
per-replica throughput, synchronization ratio), so shapes are
preserved under scaling.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Iterable

from repro.protocol.homeostasis import AdaptiveSettings
from repro.protocol.kernel import HomeostasisCluster
from repro.protocol.paxos_commit import DEFAULT_NEGOTIATION, NegotiationSpec
from repro.sim.metrics import SimResult
from repro.sim.network import rtt_matrix_for
from repro.sim.runner import FaultEvent, SimConfig, simulate
from repro.treaty.optimize import demand_split
from repro.workloads.banking import BankingWorkload
from repro.workloads.common import ReplicatedWorkloadBase
from repro.workloads.flashsale import FlashSaleWorkload
from repro.workloads.geo import GeoMicroWorkload
from repro.workloads.micro import MicroWorkload
from repro.workloads.quota import QuotaWorkload
from repro.workloads.tpcc import TpccWorkload


def solver_time_model(lookahead: int, cost_factor: int = 3) -> float:
    """Milliseconds of treaty-search time per negotiation.

    Calibrated to the paper's observation of "an additional overhead
    of less than 50 ms to find new treaties using the solver" at the
    default settings, growing with the lookahead interval L
    (Figure 24's solver component).
    """
    return 2.0 + 0.5 * lookahead * max(cost_factor, 1) / 3.0


#: experiment mode -> (simulator mode, treaty strategy, watermark
#: refresh on?).  A ``None`` strategy is a baseline cluster.  The last
#: two are the adaptive-reallocation experiments' pair: the
#: demand-weighted strategy plus the proactive refresh, against the
#: equal-split (demarcation OPT) allocation frozen between violations.
_MODES = {
    "homeo": ("homeo", "optimized", False),
    "opt": ("opt", "equal-split", False),
    "2pc": ("2pc", None, False),
    "local": ("local", None, False),
    "adaptive": ("homeo", "demand", True),
    "static": ("opt", "equal-split", False),
}
_EXECUTION_MODES = ("homeo", "opt", "2pc", "local")
_PROTOCOL_MODES = ("homeo", "opt")
_ALLOCATION_MODES = ("adaptive", "static")


def _run(
    experiment: str,
    modes: tuple[str, ...],
    mode: str,
    workload: ReplicatedWorkloadBase,
    network: dict,
    clients_per_replica: int | tuple[int, ...],
    max_txns: int,
    seed: int,
    config_overrides: dict | None,
    *,
    strategy: str | None = None,
    lookahead: int = 20,
    cost_factor: int = 3,
    watermark: float | None = None,
    negotiation: NegotiationSpec = DEFAULT_NEGOTIATION,
    validate: bool = False,
    **timing,
) -> SimResult:
    """Build ``workload``'s cluster for ``mode`` and simulate it.

    ``modes`` are the modes ``experiment`` supports; ``strategy``
    overrides a protocol mode's treaty strategy; ``network`` and
    ``timing`` are :class:`SimConfig` fields (RTTs and cores; window,
    duration, faults).  Solver time is charged exactly when the
    strategy runs the solver -- ``optimized``; equal-split and the
    demand configuration are closed-form.
    """
    if mode not in modes:
        raise ValueError(f"{experiment} modes: {'/'.join(modes)}, not {mode!r}")
    sim_mode, default_strategy, refresh = _MODES[mode]
    if default_strategy is None:
        strategy = None
        cluster = workload.build_2pc() if sim_mode == "2pc" else workload.build_local()
    else:
        strategy = strategy or default_strategy
        cluster = workload.build_homeostasis(
            strategy=strategy,
            lookahead=lookahead,
            cost_factor=cost_factor,
            seed=seed,
            validate=validate,
            adaptive=AdaptiveSettings(watermark=watermark) if refresh else None,
            negotiation=negotiation,
        )
    solver_ms = (
        solver_time_model(lookahead, cost_factor) if strategy == "optimized" else 0.0
    )
    config = SimConfig(
        mode=sim_mode,
        num_replicas=len(workload.sites),
        clients_per_replica=clients_per_replica,
        solver_ms=solver_ms,
        max_txns=max_txns,
        seed=seed,
        **network,
        **timing,
    )
    if config_overrides:
        config = replace(config, **config_overrides)
    return simulate(
        config, cluster, lambda rng, replica: workload.next_request(rng, site=replica)
    )


def _steady_micro(
    num_items: int, refill: int, num_replicas: int, seed: int, **kw
) -> MicroWorkload:
    """The microbenchmark with stock drawn at random, so measurements
    start at steady state."""
    return MicroWorkload(
        num_items=num_items,
        refill=refill,
        num_sites=num_replicas,
        initial_qty="random",
        init_seed=seed + 1,
        **kw,
    )


def _micro_or_tpcc(
    experiment: str,
    workload: str,
    num_items: int,
    refill: int,
    num_replicas: int,
    seed: int,
    **tpcc,
) -> tuple[ReplicatedWorkloadBase, dict]:
    """(workload, network) of the two-workload experiments: the Section
    6.1 microbenchmark on a uniform 100 ms network, or the Section 6.2
    TPC-C subset on Table 1 RTTs with c3.4xlarge cores."""
    if workload == "micro":
        return _steady_micro(num_items, refill, num_replicas, seed), {"rtt_ms": 100.0}
    if workload == "tpcc":
        return (
            TpccWorkload(
                num_warehouses=2,
                num_districts=2,
                items_per_district=num_items,
                num_sites=num_replicas,
                hotness=10,
                **tpcc,
            ),
            {"rtt_matrix": rtt_matrix_for(num_replicas), "cores_per_replica": 16},
        )
    raise ValueError(f"{experiment} workloads: micro/tpcc, not {workload!r}")


def run_micro(
    mode: str,
    rtt_ms: float = 100.0,
    num_replicas: int = 2,
    clients_per_replica: int = 16,
    num_items: int = 300,
    refill: int = 100,
    items_per_txn: int = 1,
    lookahead: int = 20,
    cost_factor: int = 3,
    max_txns: int = 8_000,
    seed: int = 0,
    audit_fraction: float = 0.0,
    config_overrides: dict | None = None,
) -> SimResult:
    """One microbenchmark point (Section 6.1 defaults scaled down).

    ``audit_fraction`` mixes in read-only ``Audit`` probes -- the
    traffic class the coordination-freedom classifier proves FREE, so
    it pays no treaty-check service component.
    """
    workload = _steady_micro(
        num_items,
        refill,
        num_replicas,
        seed,
        items_per_txn=items_per_txn,
        audit_fraction=audit_fraction,
    )
    return _run(
        "micro",
        _EXECUTION_MODES,
        mode,
        workload,
        {"rtt_ms": rtt_ms},
        clients_per_replica,
        max_txns,
        seed,
        config_overrides,
        lookahead=lookahead,
        cost_factor=cost_factor,
    )


def run_geo(
    mode: str = "homeo",
    groups: tuple[tuple[int, ...], ...] = ((0, 1), (2, 3), (0, 4)),
    num_replicas: int = 5,
    clients_per_replica: int = 8,
    items_per_group: int = 30,
    refill: int = 50,
    lookahead: int = 20,
    cost_factor: int = 3,
    max_txns: int = 3_000,
    seed: int = 0,
    config_overrides: dict | None = None,
) -> SimResult:
    """One geo-partitioned microbenchmark point (Table 1 RTTs).

    Items live in replication groups (site subsets), so treaty
    negotiations are participant-scoped and the simulator prices each
    one from the slowest RTT edge *inside the violating group* -- the
    scenario the flat ``2 * max_rtt`` model could not express.
    """
    workload = GeoMicroWorkload(
        groups=groups,
        num_sites=num_replicas,
        items_per_group=items_per_group,
        refill=refill,
        initial_qty="random",  # start at steady state
        init_seed=seed + 1,
    )
    return _run(
        "geo",
        _PROTOCOL_MODES,
        mode,
        workload,
        {"rtt_matrix": rtt_matrix_for(num_replicas)},
        clients_per_replica,
        max_txns,
        seed,
        config_overrides,
        lookahead=lookahead,
        cost_factor=cost_factor,
    )


def run_contention(
    mode: str = "homeo",
    rtt_ms: float = 100.0,
    num_replicas: int = 2,
    clients_per_replica: int = 8,
    num_items: int = 20,
    refill: int = 40,
    window_ms: float = 10.0,
    groups: tuple[tuple[int, ...], ...] | None = None,
    lookahead: int = 20,
    cost_factor: int = 3,
    max_txns: int = 2_000,
    seed: int = 0,
    skew: float = 0.0,
    negotiation: NegotiationSpec = DEFAULT_NEGOTIATION,
    config_overrides: dict | None = None,
) -> SimResult:
    """One racing-violator point through the kernel's windowed entry.

    Submissions are batched into ``window_ms`` arrival windows and
    handed to the kernel's ``submit_window``, so several transactions
    can violate treaties in the same window: the kernel's vote phase
    elects each conflict group's winner and losers re-run after the
    new treaties install.  Contention is
    swept by shrinking ``num_items`` (hotter items -> more racing
    violators) or widening ``window_ms``.  With ``groups`` given the
    item space is geo-partitioned (Table 1 RTTs) and disjoint groups'
    negotiations proceed in parallel waves.

    ``skew`` distributes the closed-loop client population over
    replicas by Zipf(``skew``) weights -- a hot low-id site then races
    in (and, under the legacy tie-break, wins) most elections, the
    regime where arbitration fairness separates the policies.
    ``negotiation`` picks the :class:`NegotiationSpec`: F >= 1 prices
    the Paxos Commit quorum as one extra scoped round trip and
    ``policy="credit"`` turns on the budgeted priority credit;
    ``SimResult.fairness`` then reports the ledger.
    """
    workload: ReplicatedWorkloadBase
    if groups is not None:
        workload = GeoMicroWorkload(
            groups=groups,
            num_sites=num_replicas,
            items_per_group=num_items,
            refill=refill,
            initial_qty="random",  # start at steady state
            init_seed=seed + 1,
        )
        network: dict = {"rtt_matrix": rtt_matrix_for(num_replicas)}
    else:
        workload = _steady_micro(num_items, refill, num_replicas, seed)
        network = {"rtt_ms": rtt_ms}
    clients: int | tuple[int, ...] = clients_per_replica
    if skew > 0.0:
        clients = skewed_client_counts(
            clients_per_replica * num_replicas,
            zipf_weights(num_replicas, skew),
        )
    return _run(
        "contention",
        _PROTOCOL_MODES,
        mode,
        workload,
        network,
        clients,
        max_txns,
        seed,
        config_overrides,
        lookahead=lookahead,
        cost_factor=cost_factor,
        negotiation=negotiation,
        window_ms=window_ms,
    )


def zipf_weights(n: int, skew: float) -> list[float]:
    """Zipf(``skew``) popularity weights over ``n`` ranks (rank 0
    hottest); ``skew = 0`` is uniform."""
    return [1.0 / (rank + 1) ** skew for rank in range(n)]


def skewed_client_counts(
    total_clients: int, weights: list[float]
) -> tuple[int, ...]:
    """Distribute a closed-loop client population over replicas
    proportionally to the weights, each replica keeping at least one
    client, the total preserved exactly.  This is how the adaptive
    experiments skew *offered load by site* -- the closed loop issues
    requests at the replica that hosts the client, so site heat must
    come from where clients live, not from request routing.

    The apportionment is :func:`repro.treaty.optimize.demand_split`
    (the property-tested largest-remainder partition): one guaranteed
    client per replica, the remainder split by weight.
    """
    n = len(weights)
    if total_clients < n:
        raise ValueError(f"need at least {n} clients for {n} replicas")
    return tuple(1 + s for s in demand_split(total_clients - n, weights, 0))


def run_adaptive_skew(
    mode: str,
    skew: float = 2.0,
    workload: str = "micro",
    num_replicas: int = 4,
    total_clients: int = 32,
    num_items: int = 60,
    refill: int = 80,
    initial_stock: int = 40,
    watermark: float = 0.25,
    max_txns: int = 2_500,
    seed: int = 0,
    validate: bool = False,
    config_overrides: dict | None = None,
) -> SimResult:
    """Adaptive vs static treaty allocation under Zipf site-load skew.

    Clients are distributed over replicas by Zipf(``skew``) weights,
    so one site consumes its treaty budgets much faster than the rest.
    ``mode``:

    - ``"adaptive"`` -- the demand-weighted strategy configured from
      the online :class:`~repro.protocol.homeostasis.DemandEstimator`,
      plus the proactive low-watermark refresh
      (:class:`~repro.protocol.homeostasis.AdaptiveSettings`);
    - ``"static"`` -- the equal-split (demarcation OPT) allocation the
      seed optimizer freezes between violations.

    Both modes face the identical offered load and pay identical
    per-edge negotiation prices; neither charges solver time (the
    demand configuration is closed-form).  ``workload`` selects the
    Section 6.1 microbenchmark or the Section 6.2 TPC-C subset.  The
    headline quantity is the sync ratio at high skew (plus
    ``SimResult.rebalances`` for the adaptive mode's refresh rounds,
    reported separately so the win cannot come from relabelling).
    """
    # Scarce TPC-C stock makes allocation the binding constraint: with
    # the default of 100 the per-site splits are so generous that even
    # a frozen equal split never violates at this scale, and there is
    # nothing to reallocate.
    built, network = _micro_or_tpcc(
        "adaptive skew",
        workload,
        num_items,
        refill,
        num_replicas,
        seed,
        initial_stock=initial_stock,
    )
    return _run(
        "adaptive skew",
        _ALLOCATION_MODES,
        mode,
        built,
        network,
        skewed_client_counts(total_clients, zipf_weights(num_replicas, skew)),
        max_txns,
        seed,
        config_overrides,
        watermark=watermark,
        validate=validate,
    )


def run_faults(
    mode: str,
    workload: str = "micro",
    crash_site: int = 1,
    crash_at_ms: float = 5_000.0,
    outage_ms: float = 10_000.0,
    cycles: int = 1,
    cycle_gap_ms: float = 2_000.0,
    num_replicas: int = 3,
    clients_per_replica: int = 8,
    num_items: int = 150,
    refill: int = 100,
    duration_ms: float = 25_000.0,
    max_txns: int = 100_000,
    seed: int = 0,
    validate: bool = False,
    config_overrides: dict | None = None,
) -> SimResult:
    """Availability under a site crash: homeostasis vs 2PC.

    Site ``crash_site`` crash-stops at ``crash_at_ms`` (losing its
    volatile treaty state; its database and treaty WAL are durable)
    and recovers ``outage_ms`` later via WAL replay plus a rejoin
    round; with ``cycles > 1`` the crash/recover pair repeats every
    ``outage_ms + cycle_gap_ms`` (the *crash rate* axis -- each cycle
    exercises the WAL replay and rejoin path again).  The run is
    **duration-bounded** so the outages are a fixed fraction of every
    mode's run and availabilities compare apples to apples.

    Expected contrast (the Gray & Lamport blocking argument made
    measurable): under ``mode="2pc"`` every commit needs every
    replica, so availability collapses to ~0 for the whole outage --
    clients cycle through ``SYNC_TIMEOUT_MS`` discovery stalls.  Under
    ``mode="homeo"`` the surviving sites keep committing on their
    local treaties; only transactions homed at the crashed site, or
    whose violation closure includes it, fail.  Read the gap with
    ``SimResult.availability_between(crash_at_ms, crash_at_ms +
    outage_ms)``.

    ``validate=True`` (homeo only) turns on the kernel's H1/H2 install
    assertions *and* the recovery assertion that the WAL-replayed
    treaty is identical to the cluster's treaty-table entry for the
    rejoining site.
    """
    fault_events = []
    for cycle in range(cycles):
        start = crash_at_ms + cycle * (outage_ms + cycle_gap_ms)
        fault_events.append(FaultEvent(at_ms=start, action="crash", site=crash_site))
        fault_events.append(
            FaultEvent(at_ms=start + outage_ms, action="recover", site=crash_site)
        )
    built, network = _micro_or_tpcc(
        "fault", workload, num_items, refill, num_replicas, seed
    )
    return _run(
        "fault",
        ("homeo", "2pc"),
        mode,
        built,
        network,
        clients_per_replica,
        max_txns,
        seed,
        config_overrides,
        strategy="equal-split",
        validate=validate,
        duration_ms=duration_ms,
        fault_events=tuple(fault_events),
    )


def run_winner_crash(
    num_sites: int = 3,
    seed: int = 0,
    policy: str = "priority",
) -> dict:
    """The winner-crash fault scenario: a survivor completes the round.

    Builds a validate-mode sequential cluster with a three-acceptor
    :class:`NegotiationSpec` (F = 1), locates a treaty-violating
    request with a fault-free twin (both clusters driven through the
    identical request prefix), then crash-stops the negotiation's
    *origin* right after the first ``Phase2b`` ack -- mid-quorum, the
    round incomplete.  At F = 0 (the default spec: 2PC) this is
    exactly the window where 2PC blocks; at F = 1 a surviving
    participant solicits the acceptors' WAL state, re-drives the
    accepted verdicts to a quorum at ballot 1, and finishes the round
    without the origin.  The crashed origin then recovers (WAL
    replay + missed cleanup re-run + rejoin, with the validate-mode
    recovered-treaty/H1/H2 oracles asserting along the way) and
    commits again.

    Returns the flat metric dict the benchmark harness folds into its
    fault gate -- everything in it must hold for the scenario to count
    as passed.
    """
    from repro.protocol.faults import FaultPlan

    spec = NegotiationSpec(policy=policy)

    def build(validate: bool):
        workload = MicroWorkload(
            num_items=18, refill=12, num_sites=num_sites, initial_qty="refill"
        )
        cluster = workload.build_homeostasis(
            strategy="equal-split", validate=validate, negotiation=spec
        )
        return workload, cluster

    twin_workload, twin = build(False)
    workload, cluster = build(True)
    rng = random.Random(seed + 1)
    violating = None
    for _ in range(600):
        req = twin_workload.next_request(rng, site=rng.randrange(num_sites))
        if twin.submit(req.tx_name, req.params).synced:
            violating = req
            break
        cluster.submit(req.tx_name, req.params)
    if violating is None:  # pragma: no cover - deterministic workload
        raise RuntimeError("no treaty-violating request found")

    # The origin handles one SyncBroadcast from each peer during the
    # round before any Phase2b ack reaches it; +1 more lands the crash
    # right after the first acceptor's accept is WAL-durable.
    origin = violating.site
    handled = cluster.transport._handled.get(origin, 0)
    cluster.transport.faults = FaultPlan(
        crash_after={origin: handled + (num_sites - 1) + 1}
    )
    result = cluster.submit(violating.tx_name, violating.params)
    stats = cluster.transport.message_stats()
    survivor_done = {
        "committed": bool(result.synced),
        "origin_down_at_completion": cluster.transport.is_down(origin),
        "origin_excluded": origin not in result.participants,
        "survivors": len(result.participants),
        "complete_messages": stats.complete_messages,
        "phase2a_messages": stats.phase2a_messages,
        "phase2b_messages": stats.phase2b_messages,
    }

    # Recovery: WAL replay, the missed cleanup re-run, the rejoin
    # round -- validate mode asserts the recovered treaty equals the
    # table entry.  Then the crashed site commits again.
    cluster.transport.faults = None
    cluster.recover_site(origin)
    post = cluster.submit(violating.tx_name, violating.params)
    survivor_done["recovered_clean"] = not cluster._missed_runs
    survivor_done["post_recovery_committed"] = post.status.name == "COMMITTED"
    return survivor_done


def run_tpcc(
    mode: str,
    hotness: int = 10,
    num_replicas: int = 2,
    clients_per_replica: int = 8,
    num_warehouses: int = 2,
    num_districts: int = 2,
    items_per_district: int = 60,
    mix: tuple[float, float, float] = (0.45, 0.45, 0.10),
    lookahead: int = 20,
    cost_factor: int = 3,
    max_txns: int = 1_500,
    seed: int = 0,
    config_overrides: dict | None = None,
) -> SimResult:
    """One TPC-C point (Section 6.2, scaled down; Table 1 RTTs)."""
    workload = TpccWorkload(
        num_warehouses=num_warehouses,
        num_districts=num_districts,
        items_per_district=items_per_district,
        num_sites=num_replicas,
        hotness=hotness,
        mix=mix,
    )
    return _run(
        "tpcc",
        _EXECUTION_MODES,
        mode,
        workload,
        # c3.4xlarge cores
        {"rtt_matrix": rtt_matrix_for(num_replicas), "cores_per_replica": 16},
        clients_per_replica,
        max_txns,
        seed,
        config_overrides,
        lookahead=lookahead,
        cost_factor=cost_factor,
    )


# -- scenario fleet ----------------------------------------------------------


def run_flashsale(
    mode: str = "adaptive",
    rtt_ms: float = 100.0,
    num_replicas: int = 2,
    clients_per_replica: int = 8,
    num_skus: int = 8,
    hot_stock: int = 150,
    cold_stock: int = 60,
    hot_fraction: float = 0.9,
    restock_fraction: float = 0.05,
    peek_fraction: float = 0.1,
    watermark: float = 0.25,
    window_ms: float = 0.0,
    negotiation: NegotiationSpec = DEFAULT_NEGOTIATION,
    max_txns: int = 2_500,
    seed: int = 0,
    validate: bool = False,
    config_overrides: dict | None = None,
) -> SimResult:
    """One flash-sale point: a stock treaty draining toward zero.

    Unlike :func:`run_adaptive_skew`, which skews *site* load through
    client placement, the flash sale skews *object* load: every site
    hammers SKU 0, so the hot treaty's headroom collapses while the
    cold catalog idles.  ``mode``:

    - ``"adaptive"`` -- demand-weighted splits plus the low-watermark
      refresh of :class:`~repro.protocol.homeostasis.AdaptiveSettings`
      (headroom chases the sale);
    - ``"static"`` -- the frozen equal split (every violation of the
      hot treaty pays a full negotiation).

    ``window_ms > 0`` batches submissions so violators race in
    arrival windows (required for contested negotiations, and
    therefore for any fairness measurement), and ``negotiation``
    attaches a Paxos Commit arbitration policy -- the flash sale is
    the starvation regime the credit ledger was built for, so
    ``SimResult.fairness`` is the quantity of interest there.
    """
    workload = FlashSaleWorkload(
        num_skus=num_skus,
        hot_stock=hot_stock,
        cold_stock=cold_stock,
        num_sites=num_replicas,
        hot_fraction=hot_fraction,
        restock_fraction=restock_fraction,
        peek_fraction=peek_fraction,
        init_seed=seed + 1,
    )
    return _run(
        "flash-sale",
        _ALLOCATION_MODES,
        mode,
        workload,
        {"rtt_ms": rtt_ms},
        clients_per_replica,
        max_txns,
        seed,
        config_overrides,
        watermark=watermark,
        negotiation=negotiation,
        validate=validate,
        window_ms=window_ms,
    )


def _audit(
    workload: ReplicatedWorkloadBase, stream: Iterable[tuple[str, dict[str, int]]]
) -> HomeostasisCluster:
    """Drive a validate-mode cluster (H1/H2 oracles on every install)
    through ``stream`` and return it for the audit of its final state."""
    cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
    for tx_name, params in stream:
        cluster.submit(tx_name, params)
    return cluster


def run_flashsale_sellout(
    num_sites: int = 2,
    hot_stock: int = 60,
    seed: int = 0,
) -> dict:
    """The oversell audit: drain the sale, count every unit.

    A validate-mode cluster (H1/H2 oracles on every install) takes
    three times as many hot-SKU checkouts as there is stock, spread
    round-robin over the sites.  The guarded decrement must sell
    *exactly* ``hot_stock`` units -- the treaty may defer coordination
    but never mint inventory -- and the tail of the sale, where every
    site's split has rounded down to nothing, must still terminate
    with the logical stock at exactly zero.

    Returns the flat metric dict the benchmark harness folds into the
    flash-sale gate; everything in it is deterministic.
    """
    workload = FlashSaleWorkload(
        num_skus=2,
        hot_stock=hot_stock,
        cold_stock=10,
        num_sites=num_sites,
        restock_fraction=0.0,
        init_seed=seed + 1,
    )
    cluster = _audit(
        workload,
        ((f"Checkout@s{i % num_sites}", {"item": 0}) for i in range(3 * hot_stock)),
    )
    levels = workload.stock_levels(cluster.global_state())
    return {
        "hot_stock": hot_stock,
        "hot_remaining": levels[0],
        "sold_out": levels[0] == 0,
        "oversold_units": sum(-v for v in levels.values() if v < 0),
        "min_stock": min(levels.values()),
        "sync_ratio": round(cluster.stats.sync_ratio, 5),
    }


def run_banking(
    mode: str = "homeo",
    rtt_ms: float = 100.0,
    num_replicas: int = 2,
    clients_per_replica: int = 8,
    num_accounts: int = 8,
    initial_balance: int = 30,
    deposit_fraction: float = 0.1,
    audit_fraction: float = 0.05,
    hot_fraction: float = 0.0,
    lookahead: int = 20,
    cost_factor: int = 3,
    window_ms: float = 0.0,
    negotiation: NegotiationSpec = DEFAULT_NEGOTIATION,
    max_txns: int = 4_000,
    seed: int = 0,
    validate: bool = False,
    config_overrides: dict | None = None,
) -> SimResult:
    """One banking point: cross-site transfers, non-negative balances.

    The transfer's debit is the treaty-bearing write (``b >= amount``
    headroom split across sites); the credit and the ``Deposit``
    family are pure local deltas, and ``Audit`` probes are the
    classifier-FREE class.  ``mode`` selects homeo / opt / 2pc /
    local exactly as in :func:`run_micro`.
    """
    workload = BankingWorkload(
        num_accounts=num_accounts,
        num_sites=num_replicas,
        initial_balance=initial_balance,
        deposit_fraction=deposit_fraction,
        audit_fraction=audit_fraction,
        hot_fraction=hot_fraction,
        init_seed=seed + 1,
    )
    return _run(
        "banking",
        _EXECUTION_MODES,
        mode,
        workload,
        {"rtt_ms": rtt_ms},
        clients_per_replica,
        max_txns,
        seed,
        config_overrides,
        lookahead=lookahead,
        cost_factor=cost_factor,
        negotiation=negotiation,
        validate=validate,
        window_ms=window_ms,
    )


def run_banking_conservation(
    num_sites: int = 3,
    num_accounts: int = 6,
    requests: int = 600,
    seed: int = 0,
) -> dict:
    """The money-supply audit: transfers conserve, balances stay >= 0.

    A validate-mode cluster takes a deterministic mixed stream
    (transfers, deposits, read-only audits); afterwards the logical
    money supply must equal the opening supply plus every committed
    deposit -- the protocol may defer writes into per-site deltas but
    may not mint or burn a unit -- and no account may be overdrawn.

    Returns the flat metric dict the benchmark harness folds into the
    banking gate; everything in it is deterministic.
    """
    workload = BankingWorkload(
        num_accounts=num_accounts,
        num_sites=num_sites,
        initial_balance=20,
        deposit_fraction=0.15,
        audit_fraction=0.05,
        init_seed=seed + 1,
    )
    rng = random.Random(seed)
    stream = [workload.next_request(rng) for _ in range(requests)]
    cluster = _audit(workload, ((r.tx_name, r.params) for r in stream))
    state = cluster.global_state()
    deposited = sum(r.params["amount"] for r in stream if r.family == "Deposit")
    problems = workload.conservation_violations(state, deposited)
    balances = workload.balances(state)
    return {
        "accounts": num_accounts,
        "requests": requests,
        "deposited": deposited,
        "expected_total": num_accounts * workload.initial_balance + deposited,
        "final_total": workload.total_money(state),
        "min_balance": min(balances.values()),
        "money_conserved": not problems,
        "conservation_problems": problems,
        "sync_ratio": round(cluster.stats.sync_ratio, 5),
    }


def run_quota(
    mode: str = "homeo",
    rtt_ms: float = 100.0,
    num_replicas: int = 2,
    clients_per_replica: int = 8,
    num_tenants: int = 150,
    limit: int = 12,
    usage_fraction: float = 0.05,
    hot_fraction: float = 0.0,
    lookahead: int = 20,
    cost_factor: int = 3,
    window_ms: float = 0.0,
    negotiation: NegotiationSpec = DEFAULT_NEGOTIATION,
    max_txns: int = 4_000,
    seed: int = 0,
    validate: bool = False,
    config_overrides: dict | None = None,
) -> SimResult:
    """One rate-limiter point: many small independent treaties.

    Every tenant carries its own ``used <= limit`` invariant, so the
    treaty table and the compiled-check cache hold one entry per
    tenant -- sweeping ``num_tenants`` stresses the per-commit
    metadata path rather than headroom arithmetic on one hot counter.
    """
    workload = QuotaWorkload(
        num_tenants=num_tenants,
        num_sites=num_replicas,
        limit=limit,
        usage_fraction=usage_fraction,
        hot_fraction=hot_fraction,
        init_seed=seed + 1,
    )
    return _run(
        "quota",
        _EXECUTION_MODES,
        mode,
        workload,
        {"rtt_ms": rtt_ms},
        clients_per_replica,
        max_txns,
        seed,
        config_overrides,
        lookahead=lookahead,
        cost_factor=cost_factor,
        negotiation=negotiation,
        validate=validate,
        window_ms=window_ms,
    )


def run_quota_saturation(
    num_sites: int = 2,
    num_tenants: int = 30,
    limit: int = 8,
    requests: int = 600,
    seed: int = 0,
) -> dict:
    """The overrun audit: a hammered tenant never escapes its limit.

    A validate-mode cluster takes a deterministic stream with 90% of
    hits aimed at tenant 0 -- far more than one window's budget, so
    the counter must cycle through the rollover path repeatedly --
    and afterwards every tenant's logical counter must sit inside
    ``[0, limit]``.

    Returns the flat metric dict the benchmark harness folds into the
    quota gate; everything in it is deterministic.
    """
    workload = QuotaWorkload(
        num_tenants=num_tenants,
        num_sites=num_sites,
        limit=limit,
        hot_fraction=0.9,
        init_seed=seed + 1,
    )
    rng = random.Random(seed)
    stream = (workload.next_request(rng) for _ in range(requests))
    cluster = _audit(workload, ((r.tx_name, r.params) for r in stream))
    state = cluster.global_state()
    levels = workload.usage_levels(state)
    overruns = workload.overruns(state)
    return {
        "tenants": num_tenants,
        "limit": limit,
        "requests": requests,
        "max_used": max(levels.values()),
        "min_used": min(levels.values()),
        "overrun_violations": len(overruns),
        "within_limits": not overruns,
        "sync_ratio": round(cluster.stats.sync_ratio, 5),
    }
