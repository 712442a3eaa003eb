"""The closed-loop discrete-event simulator.

Clients per replica issue transactions back to back (zero think
time), matching the paper's harness.  Each transaction passes through

1. **a CPU core** -- each replica has ``cores_per_replica`` servers
   with exponential service times (the Figure 17 saturation model);
2. **item locks** -- same-key transactions serialize; under 2PC the
   lock is held for the full two network round trips, which is what
   collapses throughput on hot items, waits beyond the
   ``lock_timeout_ms`` floor abort and retry (MySQL's 1 s minimum,
   the Figure 19/21 tails), and a waiter releases its core while
   blocked (local-path lock waits are same-replica microsecond-scale
   queues and stay inside the core occupancy);
3. **the protocol decision** -- delegated to the *real* kernel
   (``HomeostasisCluster`` / baselines), so violations happen exactly
   where the treaty math says they do; the simulator only prices
   them: a violation costs two round trips over the *participant set
   of the negotiation* (state sync + rerun/treaty install; Section
   5.1) plus the solver-time model.  The participant set comes from
   the kernel's transport trace (``ClusterResult.participants``), and
   each round is priced at the slowest RTT edge actually used -- a
   violation between two nearby sites never pays the cluster
   diameter.  Kernels that do not report participants fall back to
   the cluster-wide ``2 * max_rtt`` bound.

Under homeostasis/OPT, non-violating transactions never wait for an
in-flight negotiation (only the ~2% violating transactions pay the
round trips -- the paper's own latency accounting, Section 6.1).  How
*racing violators* queue depends on the driver: with
``window_ms > 0``, submissions are batched into arrival windows for
:meth:`~repro.protocol.kernel.HomeostasisCluster.submit_window`,
the kernel's real vote phase elects each conflict group's winner, and
losers' queueing (``wait_ms``) comes from the elections they actually
lost -- negotiations over disjoint participant closures proceed in
parallel.  With ``window_ms == 0`` (and for stand-in kernels without
``submit_window``) transactions go through ``submit`` one at a time,
and per-key negotiation gates approximate the same serialization.

**Faults**: ``SimConfig.fault_events`` schedules site crash-stops and
recoveries on the simulated clock; the driver forwards them to the
kernel (``crash_site`` / ``recover_site``), prices each recovery's
rejoin round from its participant edges, and converts the kernel's
``Unavailable`` refusals into failed records costing the client
``sync_timeout_ms`` (the time a real client spends discovering the
site is unreachable before giving up).  ``SimResult.availability``
and ``availability_between`` report the resulting commit fraction --
the metric on which homeostasis (only closures touching the crashed
site block) separates from 2PC (everything blocks).

The clock is float milliseconds.  Determinism: one seeded RNG drives
request generation and service times; the heap breaks ties by client
id.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.protocol.homeostasis import Unavailable
from repro.sim.metrics import SimResult, TxnRecord
from repro.sim.network import (
    max_rtt,
    negotiation_cost_ms,
    participants_rtt,
    uniform_rtt_matrix,
)


@dataclass
class SimRequest:
    """What the workload hands the simulator for one client turn."""

    tx_name: str
    params: dict[str, int]
    lock_keys: tuple
    family: str = ""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled site fault on the simulated clock.

    ``action`` is ``'crash'`` (the site crash-stops, losing volatile
    state) or ``'recover'`` (WAL replay + rejoin round; the kernel's
    ``recover_site`` returns the rejoin participants, which the
    simulator prices like any scoped negotiation).  Events fire just
    before the first submission whose ready time reaches ``at_ms``.
    """

    at_ms: float
    action: str  # 'crash' | 'recover'
    site: int


class SubmitTarget(Protocol):
    """The kernel interface the simulator drives."""

    def submit(self, tx_name: str, params: dict[str, int]): ...


@dataclass
class SimConfig:
    """Simulation knobs; defaults follow Section 6.1's defaults."""

    mode: str  # 'homeo' | 'opt' | '2pc' | 'local'
    num_replicas: int = 2
    #: closed-loop clients at each replica: one count for all, or a
    #: per-replica sequence (skewed offered load, e.g. the adaptive
    #: reallocation experiments' Zipf site weights)
    clients_per_replica: int | tuple[int, ...] = 16
    rtt_ms: float = 100.0
    rtt_matrix: list[list[float]] | None = None
    cores_per_replica: int = 32
    #: mean of the exponential *execution* service time (parse, locks,
    #: undo journal, store writes) -- the commit-time treaty check is
    #: priced separately below, by check mechanism
    local_service_ms: float = 1.5
    #: per-commit treaty-check cost when the kernel checks through the
    #: compiled closure (the pre-escrow model's 2.0 ms mean service
    #: was this plus ``local_service_ms``; kernels that do not report
    #: a mechanism -- 2PC, stubs -- price at this too)
    check_cost_ms: float = 0.5
    #: per-commit check cost when the kernel reports the escrow
    #: headroom counters engaged (the measured microbenchmark ratio,
    #: ~15x, applied to the modeled compiled cost)
    escrow_check_cost_ms: float = 0.03
    #: per-negotiation solver time (0 for OPT; grows with lookahead L)
    solver_ms: float = 0.0
    lock_timeout_ms: float = 1000.0
    max_retries: int = 5
    duration_ms: float = 60_000.0
    warmup_ms: float = 2_000.0
    max_txns: int = 20_000
    seed: int = 0
    #: arrival-window width for the concurrent runtime: submissions
    #: arriving within one window race through the kernel's real vote
    #: phase (requires a cluster with ``submit_window``; 0 keeps the
    #: per-transaction path)
    window_ms: float = 0.0
    #: scheduled site crashes/recoveries (see :class:`FaultEvent`);
    #: requires a kernel exposing ``crash_site`` / ``recover_site``
    fault_events: tuple[FaultEvent, ...] = ()
    #: what an unavailable submission costs its client: the time spent
    #: discovering the needed site is unreachable (vote/sync timeout)
    #: before giving up and re-entering the closed loop
    sync_timeout_ms: float = 500.0
    #: arbitration clock granularity for the windowed runtime: vote
    #: timestamps are quantized to this many milliseconds, so racing
    #: violators whose arrivals fall inside one quantum carry *equal*
    #: timestamps and the election is decided by the tie-break chain
    #: (credit, then site id).  0 keeps microsecond-distinct arrival
    #: timestamps, where ties -- and therefore the arbitration policy
    #: -- almost never matter.  Model of coarse per-site clocks; set it
    #: to ``window_ms`` to make every within-window race a tie.
    clock_quantum_ms: float = 0.0

    def matrix(self) -> list[list[float]]:
        if self.rtt_matrix is not None:
            return self.rtt_matrix
        return uniform_rtt_matrix(self.num_replicas, self.rtt_ms)

    def client_counts(self) -> list[int]:
        """Per-replica closed-loop client counts."""
        if isinstance(self.clients_per_replica, int):
            return [self.clients_per_replica] * self.num_replicas
        counts = [int(c) for c in self.clients_per_replica]
        if len(counts) != self.num_replicas:
            raise ValueError(
                f"clients_per_replica has {len(counts)} entries for "
                f"{self.num_replicas} replicas"
            )
        return counts


class _FaultSchedule:
    """Applies scheduled crash/recover events to the kernel as the
    simulated clock advances, pricing each recovery's rejoin round
    from its participant edges."""

    def __init__(
        self,
        events: tuple[FaultEvent, ...],
        cluster,
        matrix: list[list[float]],
        fallback_ms: float,
    ) -> None:
        self._pending = sorted(events, key=lambda e: (e.at_ms, e.site))
        self._cluster = cluster
        self._matrix = matrix
        self._fallback_ms = fallback_ms

    def apply_due(self, now_ms: float, result: SimResult) -> None:
        while self._pending and self._pending[0].at_ms <= now_ms:
            event = self._pending.pop(0)
            if event.action == "crash":
                self._cluster.crash_site(event.site)
            elif event.action == "recover":
                participants = self._cluster.recover_site(event.site)
                result.recoveries += 1
                result.recovery_ms += negotiation_cost_ms(
                    self._matrix, participants, fallback_ms=self._fallback_ms
                )
            else:
                raise ValueError(f"unknown fault action {event.action!r}")


def _collect_escrow(result: SimResult, cluster) -> None:
    """Fold the kernel's run-level escrow fast-path counters into the
    result (kernels without the counter path -- local, 2PC -- report
    nothing and the field stays empty)."""
    stats = getattr(cluster, "escrow_stats", None)
    if stats is not None:
        result.escrow = stats()


def _collect_classifier(result: SimResult, cluster) -> None:
    """Fold the kernel's static-tier (path-check) counters into the
    result (kernels without the classifier report nothing)."""
    stats = getattr(cluster, "classifier_stats", None)
    if stats is not None:
        result.classifier = stats()


def _collect_fairness(result: SimResult, cluster) -> None:
    """Fold the kernel's arbitration-fairness counters into the result
    (kernels without the credit ledger report nothing)."""
    stats = getattr(cluster, "fairness_stats", None)
    if stats is not None:
        result.fairness = stats()


def _quorum_round_ms(matrix: list[list[float]], cluster, participants) -> float:
    """Extra per-negotiation cost of the Paxos Commit decision round.

    With a :class:`~repro.protocol.paxos_commit.NegotiationSpec`
    attached, every won negotiation pays one more scoped round trip:
    the origin's Phase2a fan-out to the acceptor set and the Phase2b
    acks back.  The acceptors are co-located on the lowest participant
    sites, so the round is priced at the slowest RTT edge *inside the
    acceptor set* -- strictly no wider than the sync barrier already
    paid.  Legacy clusters (no spec) price zero here.
    """
    spec = getattr(cluster, "negotiation", None)
    if spec is None or not participants:
        return 0.0
    acceptors = tuple(sorted(participants)[: spec.acceptors])
    if len(acceptors) < 2:
        return 0.0
    return participants_rtt(matrix, acceptors)


def _free_transactions(cluster) -> frozenset:
    """Transactions the classifier proved coordination-free, read once
    at run start: their commits skip the treaty check at the site, so
    the simulator prices them with a zero check-cost component."""
    free = getattr(cluster, "free_transactions", None)
    return free() if free is not None else frozenset()


def _check_cost_ms(config: SimConfig, cluster) -> float:
    """Per-commit treaty-check service component, priced once at run
    start by the mechanism the kernel reports.

    The local baseline enforces no treaty, so it pays nothing; kernels
    that do not report a mechanism (2PC, test stubs) price at the
    compiled-closure cost, which keeps their total mean service equal
    to the pre-decomposition 2.0 ms model.  The constant is added to
    every service draw *after* the exponential sample, so it consumes
    no RNG draws -- the request sequence, and therefore the sync
    ratio, are unchanged by which mechanism is engaged.
    """
    if config.mode == "local":
        return 0.0
    mechanism = getattr(cluster, "check_mechanism", None)
    if mechanism is not None and mechanism() == "escrow":
        return config.escrow_check_cost_ms
    return config.check_cost_ms


def simulate(
    config: SimConfig,
    cluster: SubmitTarget,
    request_fn: Callable[[random.Random, int], SimRequest],
) -> SimResult:
    """Run one closed-loop simulation to ``max_txns`` or ``duration_ms``."""
    rng = random.Random(config.seed)
    matrix = config.matrix()
    # Warm the kernel's compiled treaty/guard checks before the first
    # arrival (covers both the per-transaction and the windowed
    # concurrent kernels): every in-run check is one closure call.
    warm = getattr(cluster, "precompile_checks", None)
    if warm is not None:
        warm()
    # Cluster-wide bound: the price of a round involving every site
    # (2PC's ROWA cohort always does; scoped negotiations price their
    # own participant edges and only degrade to this worst case).
    sync_cost_ms = 2.0 * max_rtt(matrix)
    check_ms = _check_cost_ms(config, cluster)
    free_txns = _free_transactions(cluster)

    result = SimResult(
        mode=config.mode,
        measured_from_ms=config.warmup_ms,
        num_replicas=config.num_replicas,
    )

    # Client heap: (ready_time, client_id, replica).
    clients: list[tuple[float, int, int]] = []
    cid = 0
    for replica, count in enumerate(config.client_counts()):
        for _ in range(count):
            # Small jitter avoids a lockstep start.
            clients.append((rng.uniform(0.0, 1.0), cid, replica))
            cid += 1
    heapq.heapify(clients)

    # Resources.
    cores: list[list[float]] = [
        [0.0] * config.cores_per_replica for _ in range(config.num_replicas)
    ]
    for pool in cores:
        heapq.heapify(pool)
    #: per (replica, key) lock-free time under homeo/opt/local;
    #: per key (cluster-wide) under 2PC.
    lock_free: dict[tuple, float] = {}
    now = 0.0
    faults = _FaultSchedule(config.fault_events, cluster, matrix, sync_cost_ms)

    if (
        config.mode in ("homeo", "opt")
        and config.window_ms > 0.0
        and hasattr(cluster, "submit_window")
    ):
        return _simulate_windows(
            config, cluster, request_fn, rng, matrix, sync_cost_ms,
            result, clients, cores, lock_free, faults,
        )

    while clients and result.committed < config.max_txns:
        ready, client, replica = heapq.heappop(clients)
        # Re-check the horizon *after* the pop: the popped client may
        # be scheduled past the end of the run, and no record may
        # start past ``duration_ms``.
        if ready >= config.duration_ms:
            break
        now = ready
        faults.apply_due(now, result)
        request = request_fn(rng, replica)
        service = rng.expovariate(1.0 / config.local_service_ms) + (
            0.0 if request.tx_name in free_txns else check_ms
        )

        if config.mode in ("homeo", "opt"):
            end, record = _run_protected(
                config, cluster, request, replica, ready, service,
                cores, lock_free, sync_cost_ms, matrix,
            )
        elif config.mode == "2pc":
            end, record = _run_2pc(
                config, cluster, request, replica, ready, service,
                cores, lock_free, sync_cost_ms, rng,
            )
        elif config.mode == "local":
            end, record = _run_local(
                config, cluster, request, replica, ready, service, cores, lock_free
            )
        else:
            raise ValueError(f"unknown mode {config.mode!r}")

        result.records.append(record)
        if record.kind != "failed":
            result.committed += 1
            if record.kind == "sync":
                result.negotiations += 1
        else:
            result.failed += 1
            if record.timed_out:
                result.timeouts += 1
        result.rebalances += record.rebalances
        result.aborted_attempts += record.retries
        heapq.heappush(clients, (end, client, replica))

    result.measured_to_ms = now
    # Transaction-count-bounded runs can finish before the nominal
    # warmup window; keep the warmup at 10% of the run in that case.
    result.measured_from_ms = min(config.warmup_ms, 0.1 * now)
    _collect_escrow(result, cluster)
    _collect_classifier(result, cluster)
    _collect_fairness(result, cluster)
    return result


@dataclass
class _WindowEntry:
    """One windowed submission's local-phase timing."""

    ready: float
    client: int
    replica: int
    request: SimRequest
    service: float
    start_exec: float
    local_end: float


def _simulate_windows(
    config: SimConfig,
    cluster,
    request_fn: Callable[[random.Random, int], SimRequest],
    rng: random.Random,
    matrix: list[list[float]],
    sync_cost_ms: float,
    result: SimResult,
    clients: list[tuple[float, int, int]],
    cores: list[list[float]],
    lock_free: dict[tuple, float],
    faults: _FaultSchedule,
) -> SimResult:
    """Drive a concurrent kernel with real interleaving.

    Submissions arriving within ``window_ms`` of each other form one
    window handed to ``cluster.submit_window``: several can violate
    treaties in the same window, the kernel's vote phase elects each
    conflict group's winner, and the timing model follows the
    *kernel's* resolution instead of per-key gates --

    - a group's election starts once its slowest contender discovers
      its violation (max of local finish times) and costs one vote
      round trip among the contender origins;
    - the winner then pays the two scoped barrier rounds plus solver
      time, priced per edge from its participant set;
    - each loser re-runs after the winning negotiation installs new
      treaties: its ``wait_ms`` is the election it actually lost, not
      a synthetic gate;
    - groups in the same wave have disjoint participant closures and
      do *not* serialize: each starts from its own contenders' finish
      times, never from another group's negotiation end.
    """
    solver = config.solver_ms if config.mode == "homeo" else 0.0
    check_ms = _check_cost_ms(config, cluster)
    free_txns = _free_transactions(cluster)
    now = 0.0
    while clients and result.committed < config.max_txns:
        if clients[0][0] >= config.duration_ms:
            break
        # Faults resolve at window boundaries: a crash lands between
        # windows, never inside one (within-window granularity would
        # need per-message timing the arrival-window model abstracts
        # away).
        faults.apply_due(clients[0][0], result)
        window_close = clients[0][0] + config.window_ms
        remaining = config.max_txns - result.committed

        entries: list[_WindowEntry] = []
        while (
            clients
            and clients[0][0] < window_close
            and clients[0][0] < config.duration_ms
            and len(entries) < remaining
        ):
            ready, client, replica = heapq.heappop(clients)
            now = ready
            request = request_fn(rng, replica)
            service = rng.expovariate(1.0 / config.local_service_ms) + (
                0.0 if request.tx_name in free_txns else check_ms
            )
            keys = [(replica, k) for k in request.lock_keys]
            start_exec, local_end = _local_attempt(
                cores, lock_free, replica, ready, service, keys
            )
            entries.append(
                _WindowEntry(ready, client, replica, request, service,
                             start_exec, local_end)
            )

        quantum = config.clock_quantum_ms
        window = cluster.submit_window(
            [(e.request.tx_name, e.request.params) for e in entries],
            timestamps=[
                round((e.ready // quantum) * quantum * 1000.0)
                if quantum > 0.0
                else round(e.ready * 1000.0)
                for e in entries
            ],
        )

        finish = [e.local_end for e in entries]
        wait = [e.start_exec - e.ready for e in entries]
        local = [e.service for e in entries]
        comm = [0.0] * len(entries)
        vote = [0.0] * len(entries)
        solver_of = [0.0] * len(entries)
        reb_count = [0] * len(entries)
        reb_ms = [0.0] * len(entries)
        for wave_groups in window.waves:
            for grp in wave_groups:
                # The election starts once every contender has locally
                # discovered its violation (or, for a proactive
                # refresh, committed past the watermark)...
                t0 = max(finish[m] for m in grp.members)
                vote_ms = (
                    participants_rtt(matrix, grp.contender_sites)
                    if len(grp.contender_sites) > 1
                    else 0.0
                )
                comm_ms = negotiation_cost_ms(
                    matrix, grp.participants, fallback_ms=sync_cost_ms
                )
                if not grp.rebalance:
                    # Paxos Commit decision round (Phase2a/Phase2b over
                    # the acceptor set); 0 for legacy clusters.
                    comm_ms += _quorum_round_ms(matrix, cluster, grp.participants)
                neg_end = t0 + vote_ms + comm_ms + solver
                w = grp.winner
                wait[w] += t0 - finish[w]
                if grp.rebalance:
                    # A won refresh: same barrier rounds, no abort and
                    # no re-run; charged to the triggering commit.
                    vote[w] += vote_ms
                    reb_count[w] += 1
                    reb_ms[w] += comm_ms + solver
                else:
                    vote[w], comm[w], solver_of[w] = vote_ms, comm_ms, solver
                finish[w] = neg_end
                # ...and each loser re-runs once the winner's treaty
                # installs: queueing from the election it really lost.
                # The re-run occupies a core (its CPU must be visible
                # to the saturation model) but does not publish into
                # ``lock_free`` -- those horizons describe arrival-time
                # queueing, and publishing negotiation-scale times
                # into them would make *non-violating* transactions of
                # later windows inherit waits they never pay (the
                # per-transaction path's non-violators never consult
                # negotiation gates either).
                for li in grp.losers:
                    entry = entries[li]
                    rerun_service = rng.expovariate(
                        1.0 / config.local_service_ms
                    ) + (
                        0.0
                        if entry.request.tx_name in free_txns
                        else check_ms
                    )
                    rerun_at = _acquire_core(cores, entry.replica, neg_end)
                    rerun_end = rerun_at + rerun_service
                    _release_core(cores, entry.replica, rerun_end)
                    wait[li] += rerun_at - finish[li]
                    local[li] += rerun_service
                    finish[li] = rerun_end

        for i, (entry, outcome) in enumerate(zip(entries, window.outcomes)):
            if outcome.failed:
                # Origin down, or the conflict group's scope contained
                # a crashed site: the client pays the discovery timeout
                # and retries after recovery.
                end = finish[i] + config.sync_timeout_ms
                result.records.append(
                    TxnRecord(
                        start_ms=entry.ready, end_ms=end, kind="failed",
                        replica=entry.replica, family=entry.request.family,
                        wait_ms=wait[i] + config.sync_timeout_ms,
                        local_ms=local[i], retries=outcome.lost_votes,
                        timed_out=True,
                    )
                )
                result.failed += 1
                result.timeouts += 1
                heapq.heappush(clients, (end, entry.client, entry.replica))
                continue
            kind = "sync" if outcome.synced else "local"
            record = TxnRecord(
                start_ms=entry.ready, end_ms=finish[i], kind=kind,
                replica=entry.replica, family=entry.request.family,
                wait_ms=wait[i], local_ms=local[i], comm_ms=comm[i],
                solver_ms=solver_of[i], vote_ms=vote[i],
                rebalances=reb_count[i], rebalance_ms=reb_ms[i],
                retries=outcome.lost_votes,
                participants=outcome.participants, wave=outcome.wave,
            )
            result.records.append(record)
            result.committed += 1
            if kind == "sync":
                result.negotiations += 1
            result.rebalances += reb_count[i]
            result.aborted_attempts += outcome.lost_votes
            heapq.heappush(clients, (finish[i], entry.client, entry.replica))

    result.measured_to_ms = now
    result.measured_from_ms = min(config.warmup_ms, 0.1 * now)
    _collect_escrow(result, cluster)
    _collect_classifier(result, cluster)
    _collect_fairness(result, cluster)
    return result


def _acquire_core(cores: list[list[float]], replica: int, at: float) -> float:
    free_at = heapq.heappop(cores[replica])
    return max(at, free_at)


def _release_core(cores: list[list[float]], replica: int, at: float) -> None:
    heapq.heappush(cores[replica], at)


def _local_attempt(
    cores: list[list[float]],
    lock_free: dict[tuple, float],
    replica: int,
    at: float,
    service: float,
    keys: list[tuple],
) -> tuple[float, float]:
    """One disconnected execution attempt: take a core, queue behind
    the per-(replica, key) locks, run, release.  Returns (start, end)."""
    start_exec = _acquire_core(cores, replica, at)
    for key in keys:
        start_exec = max(start_exec, lock_free.get(key, 0.0))
    end = start_exec + service
    _release_core(cores, replica, end)
    for key in keys:
        lock_free[key] = end
    return start_exec, end


def _run_protected(
    config: SimConfig,
    cluster: SubmitTarget,
    request: SimRequest,
    replica: int,
    ready: float,
    service: float,
    cores: list[list[float]],
    lock_free: dict[tuple, float],
    sync_cost_ms: float,
    matrix: list[list[float]],
) -> tuple[float, TxnRecord]:
    """Homeostasis / OPT, per-transaction kernels: local execution,
    negotiation on violation.

    Timing model: non-violating transactions never wait for an
    in-flight negotiation -- this matches the measured behaviour and
    the paper's own latency accounting ("4*0.98 + 200*0.02 =
    7.92 ms", Section 6.1), where only the ~2% violating transactions
    pay the two round trips.  Racing violators of one treaty
    serialize on a per-key negotiation gate -- an *approximation* of
    the vote phase for kernels that only expose ``submit`` (or runs
    with ``window_ms == 0``); the windowed driver replaces the gates
    with real lost-vote queueing (see ``_simulate_windows``).
    Treaties of unrelated objects renegotiate independently and in
    parallel, which is what keeps the protocol's aggregate throughput
    three orders of magnitude above 2PC.

    Each negotiation is priced from the participant set the kernel
    reports for it: two barrier rounds at the slowest RTT among the
    sites actually involved (per-edge latency pricing).
    """
    keys = [(replica, k) for k in request.lock_keys]
    start_exec, local_end = _local_attempt(
        cores, lock_free, replica, ready, service, keys
    )

    try:
        outcome = cluster.submit(request.tx_name, request.params)
    except Unavailable:
        # A site this transaction needs is unreachable (its origin
        # crashed, or its violation's closure touches a crashed site).
        # The client pays the discovery timeout and re-enters the
        # closed loop; everyone else's transactions are untouched --
        # the availability contrast with 2PC, where this branch fires
        # for *every* submission during an outage.
        end = local_end + config.sync_timeout_ms
        record = TxnRecord(
            start_ms=ready, end_ms=end, kind="failed", replica=replica,
            family=request.family,
            wait_ms=(start_exec - ready) + config.sync_timeout_ms,
            local_ms=service, timed_out=True,
        )
        return end, record
    if not outcome.synced:
        rebalanced = tuple(getattr(outcome, "rebalanced", ()) or ())
        if not rebalanced:
            record = TxnRecord(
                start_ms=ready, end_ms=local_end, kind="local", replica=replica,
                family=request.family,
                wait_ms=start_exec - ready, local_ms=service,
            )
            return local_end, record
        # The commit breached the adaptive low-watermark and triggered
        # a proactive refresh: two scoped barrier rounds priced from
        # the refresh's participant edges, charged to the triggering
        # transaction and serialized behind the same per-key
        # negotiation gates a cleanup round would use.
        comm = negotiation_cost_ms(matrix, rebalanced, fallback_ms=sync_cost_ms)
        refresh_start = local_end
        for k in request.lock_keys:
            refresh_start = max(refresh_start, lock_free.get(("neg", k), 0.0))
        end = refresh_start + comm
        for k in request.lock_keys:
            lock_free[("neg", k)] = end
        record = TxnRecord(
            start_ms=ready, end_ms=end, kind="local", replica=replica,
            family=request.family,
            wait_ms=(start_exec - ready) + (refresh_start - local_end),
            local_ms=service,
            rebalances=1, rebalance_ms=comm,
        )
        return end, record

    solver = config.solver_ms if config.mode == "homeo" else 0.0
    participants = tuple(getattr(outcome, "participants", ()) or ())
    comm = negotiation_cost_ms(
        matrix, participants, fallback_ms=sync_cost_ms
    ) + _quorum_round_ms(matrix, cluster, participants)
    negotiation_start = local_end
    for k in request.lock_keys:
        negotiation_start = max(negotiation_start, lock_free.get(("neg", k), 0.0))
    end = negotiation_start + comm + solver
    for k in request.lock_keys:
        lock_free[("neg", k)] = end
    record = TxnRecord(
        start_ms=ready, end_ms=end, kind="sync", replica=replica,
        family=request.family,
        wait_ms=(start_exec - ready) + (negotiation_start - local_end),
        local_ms=service,
        comm_ms=comm, solver_ms=solver,
        participants=participants,
    )
    return end, record


def _run_2pc(
    config: SimConfig,
    cluster: SubmitTarget,
    request: SimRequest,
    replica: int,
    ready: float,
    service: float,
    cores: list[list[float]],
    lock_free: dict[tuple, float],
    sync_cost_ms: float,
    rng: random.Random,
) -> tuple[float, TxnRecord]:
    """2PC: cluster-wide item locks held across execution and both
    commit rounds (the paper's model: the per-key hold is
    ``service + 2 RTT``).

    Core accounting: each attempt's CPU (``service``) is charged to a
    server at dispatch, and the core is *released while the
    transaction blocks on item locks* -- identically whether the wait
    ends in a commit or in a ``lock_timeout_ms`` abort (a retry
    re-runs the body, charging the CPU again).  Hot-key contention
    therefore saturates the lock chain, not the server pool.  (The
    seed model pinned a core through the whole lock wait on the
    commit path only -- up to ``lock_timeout_ms`` of phantom CPU per
    waiter -- which overstated CPU pressure exactly where Figures
    16-18 measure the client-count saturation knee.)
    """
    attempt_start = ready
    retries = 0
    while True:
        start_exec = _acquire_core(cores, replica, attempt_start)
        # CPU charged at dispatch; the lock wait costs no server time
        # on either path.
        _release_core(cores, replica, start_exec + service)
        lock_at = start_exec
        for key in request.lock_keys:
            lock_at = max(lock_at, lock_free.get(("2pc", key), 0.0))
        wait = lock_at - start_exec
        if wait > config.lock_timeout_ms:
            # MySQL-style lock wait timeout: abort, retry from scratch.
            abort_at = start_exec + config.lock_timeout_ms
            retries += 1
            if retries > config.max_retries:
                record = TxnRecord(
                    start_ms=ready, end_ms=abort_at, kind="failed",
                    replica=replica, family=request.family, retries=retries,
                )
                return abort_at, record
            attempt_start = abort_at
            continue
        # Execution sits inside the critical section, as in the seed:
        # the lock is held for service + two commit round trips.
        commit_end = lock_at + service + sync_cost_ms
        try:
            cluster.submit(request.tx_name, request.params)
        except Unavailable:
            # 2PC blocks: a cohort is unreachable, so the commit can
            # never finish.  The transaction holds its item locks for
            # the full wait-then-give-up window (propagating the
            # outage onto every waiter of the same keys) and fails.
            fail_end = lock_at + service + config.sync_timeout_ms
            for key in request.lock_keys:
                lock_free[("2pc", key)] = fail_end
            record = TxnRecord(
                start_ms=ready, end_ms=fail_end, kind="failed",
                replica=replica, family=request.family,
                wait_ms=(lock_at - ready) + config.sync_timeout_ms,
                local_ms=service, retries=retries, timed_out=True,
            )
            return fail_end, record
        for key in request.lock_keys:
            lock_free[("2pc", key)] = commit_end
        record = TxnRecord(
            start_ms=ready, end_ms=commit_end, kind="2pc", replica=replica,
            family=request.family,
            wait_ms=(lock_at - ready), local_ms=service,
            comm_ms=sync_cost_ms,
            retries=retries,
        )
        return commit_end, record


def _run_local(
    config: SimConfig,
    cluster: SubmitTarget,
    request: SimRequest,
    replica: int,
    ready: float,
    service: float,
    cores: list[list[float]],
    lock_free: dict[tuple, float],
) -> tuple[float, TxnRecord]:
    """LOCAL: uncoordinated execution at the origin replica."""
    keys = [(replica, k) for k in request.lock_keys]
    start_exec, end = _local_attempt(
        cores, lock_free, replica, ready, service, keys
    )
    cluster.submit(request.tx_name, request.params)
    record = TxnRecord(
        start_ms=ready, end_ms=end, kind="local", replica=replica,
        family=request.family,
        wait_ms=start_exec - ready, local_ms=service,
    )
    return end, record
