"""The experiment runner: a workload, a network and a mode.

The paper's Section 6 defines every experiment along three axes, and
:func:`run` takes them as they are: the caller builds the workload
spec (any :class:`ReplicatedWorkloadBase`), names the network as
:class:`SimConfig` fields (``rtt_ms=`` for a uniform network,
``rtt_matrix=rtt_matrix_for(n)`` plus ``cores_per_replica=16`` for
Table 1), and picks a row of :data:`_MODES`.  :func:`run` holds the one
mode -> cluster switch, the one :class:`SimConfig` literal and the one
:func:`simulate` call; every workload's ``next_request`` already
returns what the simulator reads.  The literal points live with their
callers (``benchmarks/scenarios.py`` names every gated one).

Scale note (README, *Benchmarks*): the paper's runs use 10,000 items /
100,000 stock rows and 300-500 s measurement windows on real hardware;
the reproduction runs scaled-down populations and transaction counts.
"""

from __future__ import annotations

import random

from repro.protocol.homeostasis import AdaptiveSettings
from repro.protocol.paxos_commit import DEFAULT_NEGOTIATION, NegotiationSpec
from repro.sim.metrics import SimResult
from repro.sim.runner import SimConfig, simulate
from repro.treaty.optimize import demand_split
from repro.workloads.common import ReplicatedWorkloadBase
from repro.workloads.micro import MicroWorkload


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


def run(
    mode: str,
    workload: ReplicatedWorkloadBase,
    *,
    seed: int = 0,
    strategy: str | None = None,
    lookahead: int = 20,
    cost_factor: int = 3,
    watermark: float = 0.25,
    negotiation: NegotiationSpec = DEFAULT_NEGOTIATION,
    validate: bool = False,
    **config,
) -> SimResult:
    """Build ``workload``'s cluster for ``mode`` and simulate it.

    ``strategy`` overrides a protocol mode's treaty strategy;
    ``config`` are :class:`SimConfig` fields (network, clients, run
    length, window, faults).  Solver time is charged exactly when the
    strategy runs the solver -- ``optimized``; equal-split and the
    demand configuration are closed-form.
    """
    if mode not in _MODES:
        raise ValueError(f"modes: {'/'.join(_MODES)}, not {mode!r}")
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
    if strategy == "optimized":
        config.setdefault("solver_ms", solver_time_model(lookahead, cost_factor))
    sim_config = SimConfig(
        mode=sim_mode, num_replicas=len(workload.sites), seed=seed, **config
    )
    return simulate(
        sim_config,
        cluster,
        lambda rng, replica: workload.next_request(rng, site=replica),
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


#: the winner-crash cluster: three sites, so F = 1 leaves a survivor
#: quorum, under the legacy arbitration order
WINNER_CRASH_SITES = 3
WINNER_CRASH_POLICY = "priority"


def run_winner_crash(seed: int = 0) -> dict:
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

    spec = NegotiationSpec(policy=WINNER_CRASH_POLICY)
    num_sites = WINNER_CRASH_SITES

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
