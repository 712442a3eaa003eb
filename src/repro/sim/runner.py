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
   the kernel's transport trace (``GroupOutcome.participants``), and
   each round is priced at the slowest RTT edge actually used -- a
   violation between two nearby sites never pays the cluster
   diameter.  Kernels that do not report participants fall back to
   the cluster-wide ``2 * max_rtt`` bound.

Under homeostasis/OPT, non-violating transactions never wait for an
in-flight negotiation (only the ~2% violating transactions pay the
round trips -- the paper's own latency accounting, Section 6.1).

**One driver.**  :func:`simulate` is the only loop over the client
heap.  Under ``homeo`` / ``opt`` it collects the submissions arriving
within ``window_ms`` of each other and hands them to
:meth:`~repro.protocol.kernel.HomeostasisCluster.submit_window`: the
kernel's real vote phase elects each conflict group's winner, losers'
queueing (``wait_ms``) comes from the elections they actually lost,
and negotiations over disjoint participant closures proceed in
parallel.  A ``window_ms == 0`` run is windows of exactly one entry --
one pop, the same RNG draw order, the trivial election -- and racing
violators there queue on **the per-key negotiation gate**: a round
starts no earlier than the end of the last round won by a transaction
sharing one of its lock keys (the arrival window is what serializes
racing violators when ``window_ms > 0``, so the gate is keyed on
``window_ms == 0``; non-violators never consult it).  The 2PC and
LOCAL baselines decide per transaction (:func:`_run_2pc`,
:func:`_run_local`) from the same loop.

Three rules the two former drivers (``submit`` + gates,
``submit_window`` + elections) disagreed on, now stated once:

1. the gate above -- kept, as a rule of the one driver;
2. a won *refresh* is charged ``comm + solver`` like a cleanup round
   (it regenerates treaties too); every adaptive experiment runs a
   closed-form strategy with ``solver_ms = 0``;
3. a round is priced from the participant closure it opened with
   (``GroupOutcome.participants``) -- the barrier rounds went out over
   those edges even if Paxos survivor completion finished the round
   without a crashed member; ``TxnRecord.participants`` reports the
   survivors.

**Faults**: ``SimConfig.fault_events`` schedules site crash-stops and
recoveries on the simulated clock; the driver forwards them to the
kernel (``crash_site`` / ``recover_site``), prices each recovery's
rejoin round from its participant edges, and converts the kernel's
``Unavailable`` refusals into failed records costing the client
``SYNC_TIMEOUT_MS`` (the time a real client spends discovering the
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


def crash_schedule(
    site: int,
    at_ms: float,
    outage_ms: float,
    cycles: int = 1,
    gap_ms: float = 2_000.0,
) -> tuple[FaultEvent, ...]:
    """``site`` crash-stops at ``at_ms`` and recovers ``outage_ms``
    later; with ``cycles > 1`` the pair repeats every ``outage_ms +
    gap_ms`` (the *crash rate* axis -- each cycle exercises the WAL
    replay and rejoin path again)."""
    events: list[FaultEvent] = []
    for cycle in range(cycles):
        start = at_ms + cycle * (outage_ms + gap_ms)
        events.append(FaultEvent(at_ms=start, action="crash", site=site))
        events.append(FaultEvent(at_ms=start + outage_ms, action="recover", site=site))
    return tuple(events)


class SubmitTarget(Protocol):
    """The kernel interface the simulator drives: the baselines
    through ``submit``, the protocol kernels (``homeo`` / ``opt``)
    through ``submit_window``."""

    def submit(self, tx_name: str, params: dict[str, int]): ...


#: Cost constants of the pricing model, float milliseconds.  Nothing
#: sets them per run; they are the block a calibration against the
#: measured kernel replaces with fitted values.
#:
#: Mean of the exponential *execution* service time (parse, locks,
#: undo journal, store writes); the commit-time treaty check is priced
#: separately, by check mechanism.
LOCAL_SERVICE_MS = 1.5
#: Per-commit treaty-check cost of kernels that report no mechanism
#: (2PC, stubs): the price of the retired compiled-closure check, which
#: keeps their mean service at the pre-decomposition 2.0 ms.
CHECK_COST_MS = 0.5
#: Per-commit check cost with the escrow headroom counters engaged
#: (the measured microbenchmark ratio, ~15x, on the compiled cost).
ESCROW_CHECK_COST_MS = 0.03
#: Records starting before this are excluded from the derived metrics
#: (10% of the run when a count-bounded run ends sooner).
WARMUP_MS = 2_000.0
#: What an unavailable submission costs its client: the time spent
#: discovering the needed site is unreachable (vote/sync timeout)
#: before giving up and re-entering the closed loop.
SYNC_TIMEOUT_MS = 500.0


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
    #: per-negotiation solver time (0 for OPT; grows with lookahead L)
    solver_ms: float = 0.0
    lock_timeout_ms: float = 1000.0
    max_retries: int = 5
    duration_ms: float = 60_000.0
    max_txns: int = 20_000
    seed: int = 0
    #: arrival-window width under ``homeo`` / ``opt``: submissions
    #: arriving within one window race through the kernel's real vote
    #: phase (0: every window holds exactly one submission, and racing
    #: violators queue on the per-key negotiation gate instead)
    window_ms: float = 0.0
    #: scheduled site crashes/recoveries (see :class:`FaultEvent`);
    #: requires a kernel exposing ``crash_site`` / ``recover_site``
    fault_events: tuple[FaultEvent, ...] = ()
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


def _quorum_round_ms(
    matrix: list[list[float]], cluster, origin: int, participants
) -> float:
    """Extra per-negotiation cost of the Paxos Commit decision round.

    Every won negotiation decides over the acceptor set the kernel's
    spec places (:meth:`~repro.protocol.paxos_commit.NegotiationSpec.
    acceptors_for`): the origin's Phase2a fan-out to the other
    acceptors and the Phase2b acks back, priced at the slowest RTT
    edge *inside the acceptor set* -- strictly no wider than the sync
    barrier already paid.  At F = 0 the origin is the sole acceptor
    and the round costs nothing.
    """
    acceptors = cluster.negotiation.acceptors_for(origin, participants)
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
    that do not report a mechanism (2PC, test stubs) price at
    :data:`CHECK_COST_MS`.  The constant is added to
    every service draw *after* the exponential sample, so it consumes
    no RNG draws -- the request sequence, and therefore the sync
    ratio, are unchanged by which mechanism is engaged.
    """
    if config.mode == "local":
        return 0.0
    mechanism = getattr(cluster, "check_mechanism", None)
    if mechanism is not None and mechanism() == "escrow":
        return ESCROW_CHECK_COST_MS
    return CHECK_COST_MS


@dataclass
class _Entry:
    """One client turn popped off the heap: who, when, what, and the
    service time drawn for its first execution attempt."""

    ready: float
    client: int
    replica: int
    request: SimRequest
    service: float


def simulate(
    config: SimConfig,
    cluster: SubmitTarget,
    request_fn: Callable[[random.Random, int], SimRequest],
) -> SimResult:
    """Run one closed-loop simulation to ``max_txns`` or ``duration_ms``."""
    if config.mode not in ("homeo", "opt", "2pc", "local"):
        raise ValueError(f"unknown mode {config.mode!r}")
    protected = config.mode in ("homeo", "opt")
    rng = random.Random(config.seed)
    matrix = config.matrix()
    # Warm the kernel's per-object clause index before the first
    # arrival, so no in-run commit pays for building it.
    warm = getattr(cluster, "precompile_checks", None)
    if warm is not None:
        warm()
    # Cluster-wide bound: the price of a round involving every site
    # (2PC's ROWA cohort always does; scoped negotiations price their
    # own participant edges and only degrade to this worst case).
    sync_cost_ms = 2.0 * max_rtt(matrix)
    check_ms = _check_cost_ms(config, cluster)
    free_txns = _free_transactions(cluster)

    def draw_service(request: SimRequest) -> float:
        return rng.expovariate(1.0 / LOCAL_SERVICE_MS) + (
            0.0 if request.tx_name in free_txns else check_ms
        )

    result = SimResult(mode=config.mode, num_replicas=config.num_replicas)

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
    #: per (replica, key) lock-free time under homeo/opt/local, plus
    #: the ("neg", key) negotiation gates; per key (cluster-wide)
    #: under 2PC.
    lock_free: dict[tuple, float] = {}
    now = 0.0
    faults = _FaultSchedule(config.fault_events, cluster, matrix, sync_cost_ms)

    while clients and result.committed < config.max_txns:
        # No record may start past ``duration_ms``.
        opens = clients[0][0]
        if opens >= config.duration_ms:
            break
        # Faults resolve at window boundaries: a crash lands between
        # windows, never inside one (within-window granularity would
        # need per-message timing the arrival-window model abstracts
        # away).
        faults.apply_due(opens, result)
        # The baselines decide per transaction, so only the protocol
        # kernels ever see more than one entry; with ``window_ms == 0``
        # nothing else is ready before the window closes either.
        closes = opens + (config.window_ms if protected else 0.0)
        room = config.max_txns - result.committed
        entries: list[_Entry] = []
        while not entries or (
            clients
            and clients[0][0] < closes
            and clients[0][0] < config.duration_ms
            and len(entries) < room
        ):
            ready, client, replica = heapq.heappop(clients)
            now = ready
            request = request_fn(rng, replica)
            entries.append(
                _Entry(ready, client, replica, request, draw_service(request))
            )

        if protected:
            records = _run_window(
                config,
                cluster,
                entries,
                cores,
                lock_free,
                sync_cost_ms,
                matrix,
                draw_service,
            )
        elif config.mode == "2pc":
            records = [
                _run_2pc(config, cluster, e, cores, lock_free, sync_cost_ms)
                for e in entries
            ]
        else:
            records = [_run_local(cluster, e, cores, lock_free) for e in entries]

        for entry, record in zip(entries, records):
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
            heapq.heappush(clients, (record.end_ms, entry.client, entry.replica))

    result.measured_to_ms = now
    # Transaction-count-bounded runs can finish before the nominal
    # warmup window; keep the warmup at 10% of the run in that case.
    result.measured_from_ms = min(WARMUP_MS, 0.1 * now)
    # Run-level counters of the kernels that keep them (escrow fast
    # path, static tier, arbitration fairness); the baselines report
    # nothing and the fields stay empty.
    for name in ("escrow", "classifier", "fairness"):
        stats = getattr(cluster, f"{name}_stats", None)
        if stats is not None:
            setattr(result, name, stats())
    return result


def _acquire_core(cores: list[list[float]], replica: int, at: float) -> float:
    free_at = heapq.heappop(cores[replica])
    return max(at, free_at)


def _release_core(cores: list[list[float]], replica: int, at: float) -> None:
    heapq.heappush(cores[replica], at)


def _local_attempt(
    cores: list[list[float]], lock_free: dict[tuple, float], entry: _Entry
) -> tuple[float, float]:
    """One disconnected execution attempt: take a core, queue behind
    the per-(replica, key) locks, run, release.  Returns (start, end)."""
    replica = entry.replica
    keys = [(replica, k) for k in entry.request.lock_keys]
    start_exec = _acquire_core(cores, replica, entry.ready)
    for key in keys:
        start_exec = max(start_exec, lock_free.get(key, 0.0))
    end = start_exec + entry.service
    _release_core(cores, replica, end)
    for key in keys:
        lock_free[key] = end
    return start_exec, end


def _run_window(
    config: SimConfig,
    cluster,
    entries: list[_Entry],
    cores: list[list[float]],
    lock_free: dict[tuple, float],
    sync_cost_ms: float,
    matrix: list[list[float]],
    draw_service: Callable[[SimRequest], float],
) -> list[TxnRecord]:
    """Homeostasis / OPT: one arrival window through the real kernel.

    Every entry executes disconnected at its origin; the window then
    goes to ``cluster.submit_window`` -- several entries can violate
    treaties in the same window, the kernel's vote phase elects each
    conflict group's winner -- and the timing model follows the
    *kernel's* resolution:

    - non-violating transactions never wait for an in-flight
      negotiation ("4*0.98 + 200*0.02 = 7.92 ms", Section 6.1: only
      the ~2% violating transactions pay the two round trips);
    - a group's election starts once its slowest contender discovers
      its violation (max of local finish times) and costs one vote
      round trip among the contender origins;
    - the winner then pays the two scoped barrier rounds plus solver
      time, priced per edge from its participant set, which is what
      keeps treaties of unrelated objects renegotiating independently
      and in parallel;
    - each loser re-runs after the winning negotiation installs new
      treaties: its ``wait_ms`` is the election it actually lost;
    - groups in the same wave have disjoint participant closures and
      do *not* serialize: each starts from its own contenders' finish
      times, never from another group's negotiation end;
    - with ``window_ms == 0`` (windows of one, trivial elections) a
      round additionally queues behind the per-key negotiation gates
      of its winner's lock keys, and moves them to its own end.
    """
    solver = config.solver_ms if config.mode == "homeo" else 0.0
    gated = config.window_ms == 0.0
    n = len(entries)
    wait = [0.0] * n
    finish = [0.0] * n
    for i, e in enumerate(entries):
        start_exec, finish[i] = _local_attempt(cores, lock_free, e)
        wait[i] = start_exec - e.ready

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

    local = [e.service for e in entries]
    comm = [0.0] * n
    vote = [0.0] * n
    solver_of = [0.0] * n
    reb_count = [0] * n
    reb_ms = [0.0] * n
    for wave_groups in window.waves:
        for grp in wave_groups:
            w = grp.winner
            # The election starts once every contender has locally
            # discovered its violation (or, for a proactive refresh,
            # committed past the watermark)...
            t0 = max(finish[m] for m in grp.members)
            # ...and, in a window of one, once the last round won on
            # one of its lock keys is over (the negotiation gate).
            gates = (
                [("neg", k) for k in entries[w].request.lock_keys] if gated else []
            )
            for gate in gates:
                t0 = max(t0, lock_free.get(gate, 0.0))
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
                # the acceptor set); 0 at F = 0.
                comm_ms += _quorum_round_ms(
                    matrix, cluster, window.outcomes[w].site, grp.participants
                )
            neg_end = t0 + vote_ms + comm_ms + solver
            for gate in gates:
                lock_free[gate] = neg_end
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
            # later windows inherit waits they never pay.
            for li in grp.losers:
                entry = entries[li]
                rerun_service = draw_service(entry.request)
                rerun_at = _acquire_core(cores, entry.replica, neg_end)
                rerun_end = rerun_at + rerun_service
                _release_core(cores, entry.replica, rerun_end)
                wait[li] += rerun_at - finish[li]
                local[li] += rerun_service
                finish[li] = rerun_end

    records: list[TxnRecord] = []
    for i, (entry, outcome) in enumerate(zip(entries, window.outcomes)):
        if outcome.failed:
            # Origin down, or the conflict group's scope contained a
            # crashed site.  The client pays the discovery timeout and
            # retries after recovery; everyone else's transactions are
            # untouched -- the availability contrast with 2PC, where
            # *every* submission fails during an outage.
            records.append(
                TxnRecord(
                    start_ms=entry.ready,
                    end_ms=finish[i] + SYNC_TIMEOUT_MS,
                    kind="failed", replica=entry.replica,
                    family=entry.request.family,
                    wait_ms=wait[i] + SYNC_TIMEOUT_MS,
                    local_ms=local[i], retries=outcome.lost_votes,
                    timed_out=True,
                )
            )
            continue
        records.append(
            TxnRecord(
                start_ms=entry.ready, end_ms=finish[i],
                kind="sync" if outcome.synced else "local",
                replica=entry.replica, family=entry.request.family,
                wait_ms=wait[i], local_ms=local[i], comm_ms=comm[i],
                solver_ms=solver_of[i], vote_ms=vote[i],
                rebalances=reb_count[i], rebalance_ms=reb_ms[i],
                retries=outcome.lost_votes,
                participants=outcome.participants,
            )
        )
    return records


def _run_2pc(
    config: SimConfig,
    cluster: SubmitTarget,
    entry: _Entry,
    cores: list[list[float]],
    lock_free: dict[tuple, float],
    sync_cost_ms: float,
) -> TxnRecord:
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
    request, replica = entry.request, entry.replica
    ready, service = entry.ready, entry.service
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
                return TxnRecord(
                    start_ms=ready, end_ms=abort_at, kind="failed",
                    replica=replica, family=request.family, retries=retries,
                )
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
            fail_end = lock_at + service + SYNC_TIMEOUT_MS
            for key in request.lock_keys:
                lock_free[("2pc", key)] = fail_end
            return TxnRecord(
                start_ms=ready, end_ms=fail_end, kind="failed",
                replica=replica, family=request.family,
                wait_ms=(lock_at - ready) + SYNC_TIMEOUT_MS,
                local_ms=service, retries=retries, timed_out=True,
            )
        for key in request.lock_keys:
            lock_free[("2pc", key)] = commit_end
        return TxnRecord(
            start_ms=ready, end_ms=commit_end, kind="2pc", replica=replica,
            family=request.family,
            wait_ms=(lock_at - ready), local_ms=service,
            comm_ms=sync_cost_ms,
            retries=retries,
        )


def _run_local(
    cluster: SubmitTarget,
    entry: _Entry,
    cores: list[list[float]],
    lock_free: dict[tuple, float],
) -> TxnRecord:
    """LOCAL: uncoordinated execution at the origin replica."""
    request = entry.request
    start_exec, end = _local_attempt(cores, lock_free, entry)
    cluster.submit(request.tx_name, request.params)
    return TxnRecord(
        start_ms=entry.ready, end_ms=end, kind="local", replica=entry.replica,
        family=request.family,
        wait_ms=start_exec - entry.ready, local_ms=entry.service,
    )
