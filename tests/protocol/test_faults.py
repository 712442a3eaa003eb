"""Fault injection, crash-stop recovery, and availability.

Covers the acceptance criteria of the fault-tolerant runtime:

- the FaultPlan is deterministic and order-independent (same seed ->
  same drop/delay schedule, regardless of call pattern);
- partitions sever exactly their edge set for exactly their window;
- an unreachable participant surfaces as a timeout that aborts the
  round cleanly (treaties and state unchanged, trace marked aborted);
- crashed sites are refused from participant closures until they
  rejoin; transactions retry successfully after recovery;
- a recovered site replays its WAL and rejoins with an identical
  installed treaty (asserted in validate mode, H1/H2 intact);
- 2PC blocks during any outage (the Gray & Lamport behaviour) while
  homeostasis keeps committing on the surviving sites -- also at the
  simulator level, where the availability gap is the metric;
- the concurrent runtime degrades per conflict group, not wholesale.
"""

import random

import pytest

from repro.protocol.faults import FaultPlan, Partition
from repro.protocol.homeostasis import Unavailable
from repro.protocol.messages import SyncBroadcast, Vote
from repro.protocol.transport import Transport, UnreachableError
from repro.sim.experiments import run
from repro.sim.runner import crash_schedule
from repro.workloads.micro import MicroWorkload


class _Recorder:
    def __init__(self):
        self.received = []

    def handle(self, msg):
        self.received.append(msg)
        return "ack"


def _fabric(n=3, faults=None):
    transport = Transport(faults=faults)
    endpoints = [_Recorder() for _ in range(n)]
    for sid, ep in enumerate(endpoints):
        transport.register(sid, ep)
    return transport, endpoints


class TestFaultPlan:
    def test_drop_schedule_is_deterministic_and_index_keyed(self):
        plan = FaultPlan(seed=7, drop_rate=0.3)
        fates = [plan.drops(i) for i in range(200)]
        assert fates == [plan.drops(i) for i in range(200)]
        # Order independence: querying out of order changes nothing.
        assert fates[120] == plan.drops(120)
        assert any(fates) and not all(fates)
        # A different seed redraws the schedule.
        other = [FaultPlan(seed=8, drop_rate=0.3).drops(i) for i in range(200)]
        assert other != fates

    def test_delay_magnitude_and_timeout_equivalence(self):
        plan = FaultPlan(seed=1, delay_rate=0.5, delay_ms=40.0, timeout_ms=100.0)
        delays = [plan.delay_of(i) for i in range(100)]
        assert set(delays) == {0.0, 40.0}
        # A delay at/past the sender's patience is a drop: the
        # transport surfaces it as unreachable.
        transport, _ = _fabric(2, faults=FaultPlan(
            seed=1, delay_rate=1.0, delay_ms=500.0, timeout_ms=100.0
        ))
        with pytest.raises(UnreachableError):
            transport.send(Vote(src=0, dst=1))
        assert transport.undelivered and not transport.trace

    def test_delays_accumulate_on_the_open_round(self):
        transport, _ = _fabric(2, faults=FaultPlan(
            seed=1, delay_rate=1.0, delay_ms=25.0, timeout_ms=1_000.0
        ))
        trace = transport.begin("cleanup", 0)
        transport.send(Vote(src=0, dst=1))
        transport.send(SyncBroadcast(src=0, dst=1))
        transport.end(trace)
        assert trace.delay_ms == 50.0
        assert transport.total_delay_ms == 50.0


class TestPartitions:
    def test_partition_severs_only_its_edges_during_its_window(self):
        part = Partition.separating({0}, {1}, start=0, stop=4)
        transport, _ = _fabric(3, faults=FaultPlan(partitions=(part,)))
        with pytest.raises(UnreachableError):
            transport.send(Vote(src=0, dst=1))  # event 1: severed
        transport.send(Vote(src=0, dst=2))  # other edge unaffected
        transport.send(Vote(src=2, dst=1))
        # Events advanced past the window: the partition healed.
        transport.send(Vote(src=0, dst=1))
        assert len(transport.trace) == 3

    def test_separating_covers_all_cross_edges(self):
        part = Partition.separating({0, 1}, {2, 3})
        assert part.edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})


class TestCrashStop:
    def test_down_site_is_unreachable_and_recovers(self):
        transport, endpoints = _fabric(2)
        transport.crash(1)
        with pytest.raises(UnreachableError):
            transport.send(Vote(src=0, dst=1))
        assert not endpoints[1].received
        transport.recover(1)
        transport.send(Vote(src=0, dst=1))
        assert len(endpoints[1].received) == 1

    def test_crashed_sender_cannot_send(self):
        transport, _ = _fabric(2)
        transport.crash(0)
        with pytest.raises(UnreachableError):
            transport.send(Vote(src=0, dst=1))

    def test_plan_crash_fires_after_handling_the_fatal_message(self):
        transport, endpoints = _fabric(2, faults=FaultPlan(crash_after={1: 2}))
        transport.send(Vote(src=0, dst=1))
        with pytest.raises(UnreachableError):
            transport.send(Vote(src=0, dst=1))  # handled, then crash
        # The fatal message WAS handled: its state change happened.
        assert len(endpoints[1].received) == 2
        assert transport.is_down(1)


def _micro_cluster(num_sites=3, validate=True, **kwargs):
    workload = MicroWorkload(
        num_items=18,
        refill=12,
        num_sites=num_sites,
        initial_qty="refill",
        **kwargs,
    )
    return workload, workload.build_homeostasis(
        strategy="equal-split", validate=validate
    )


class TestClusterFaults:
    def test_survivors_commit_while_closures_touching_crash_fail(self):
        workload, cluster = _micro_cluster()
        rng = random.Random(0)
        cluster.crash_site(2)

        committed = refused = origin_down = 0
        for _ in range(300):
            site = rng.randrange(3)
            req = workload.next_request(rng, site=site)
            try:
                cluster.submit(req.tx_name, req.params)
                committed += 1
            except Unavailable as exc:
                if exc.sites == frozenset({2}) and site == 2:
                    origin_down += 1
                else:
                    refused += 1
        assert committed > 0, "surviving sites stopped committing"
        assert origin_down > 0 and refused > 0
        # Refusals were fast (known-down): no message ever targeted
        # the crashed site.
        assert all(m.dst != 2 and m.src != 2 for m in cluster.transport.trace)

    def test_midround_timeout_aborts_cleanly_and_retry_succeeds(self):
        workload, cluster = _micro_cluster(validate=True)

        # Find a request that violates (drives a negotiation), using a
        # fault-free twin driven through the identical request
        # sequence; every non-violating request is replayed on the
        # real cluster so both reach the violation with equal state.
        twin_workload, twin = _micro_cluster(validate=False)
        twin_rng = random.Random(1)
        violating = None
        for _ in range(400):
            req = twin_workload.next_request(twin_rng, site=twin_rng.randrange(3))
            if twin.submit(req.tx_name, req.params).synced:
                violating = req
                break
            cluster.submit(req.tx_name, req.params)
        assert violating is not None

        # Now crash a participant *mid-round* via the plan: the next
        # message any site handles kills it -- which will be during the
        # violating round's announce/sync prefix.
        before_treaties = {
            sid: {c.pretty() for c in server.local_treaty.constraints}
            for sid, server in cluster.sites.items()
        }
        before_negotiations = cluster.stats.negotiations
        peer = next(s for s in cluster.site_ids if s != violating.site)
        handled = cluster.transport._handled.get(peer, 0)
        cluster.transport.faults = FaultPlan(crash_after={peer: handled + 1})
        with pytest.raises(Unavailable):
            cluster.submit(violating.tx_name, violating.params)
        assert cluster.transport.is_down(peer)
        assert cluster.transport.aborted_rounds(), "round not marked aborted"
        assert cluster.stats.negotiations == before_negotiations
        assert cluster.stats.timeouts >= 1
        # No survivor's treaty changed: the round aborted before any
        # install.
        for sid, server in cluster.sites.items():
            if sid != peer:
                assert {
                    c.pretty() for c in server.local_treaty.constraints
                } == before_treaties[sid]

        # Recovery: WAL replay + rejoin (validate asserts identical
        # treaty + H1/H2), then the same transaction succeeds.
        cluster.transport.faults = None
        participants = cluster.recover_site(peer)
        assert peer in participants
        result = cluster.submit(violating.tx_name, violating.params)
        assert result.synced
        assert cluster.stats.recoveries == 1

    def test_recovered_treaty_identical_after_other_sites_negotiated(self):
        """Negotiations among surviving sites must not invalidate the
        crashed site's WAL: rounds touching its factors are refused,
        so its replayed treaty still matches the treaty table."""
        workload, cluster = _micro_cluster()
        rng = random.Random(2)
        for _ in range(150):  # warm up, install a few treaties
            req = workload.next_request(rng, site=rng.randrange(3))
            cluster.submit(req.tx_name, req.params)
        cluster.crash_site(0)
        for _ in range(200):  # survivors keep going where they can
            req = workload.next_request(rng, site=rng.randrange(3))
            try:
                cluster.submit(req.tx_name, req.params)
            except Unavailable:
                pass
        # validate mode asserts replayed == treaty table entry (and
        # H1/H2) inside recover_site; reaching here is the assertion.
        cluster.recover_site(0)
        req = workload.next_request(rng, site=0)
        cluster.submit(req.tx_name, req.params)

    def test_recovered_escrow_counters_match_fresh_lowering(self):
        """WAL replay plus the store resync must leave the recovered
        site's escrow counters identical to lowering its treaty
        freshly on the recovered state -- headroom consumed before the
        crash lives in the durable store, never in the (volatile)
        account."""
        from repro.logic.compile import lower_to_escrow

        workload, cluster = _micro_cluster()
        rng = random.Random(3)
        for _ in range(150):
            req = workload.next_request(rng, site=rng.randrange(3))
            cluster.submit(req.tx_name, req.params)
        cluster.crash_site(1)
        assert cluster.sites[1].escrow is None  # dropped with the crash
        for _ in range(100):
            req = workload.next_request(rng, site=rng.randrange(3))
            try:
                cluster.submit(req.tx_name, req.params)
            except Unavailable:
                pass
        cluster.recover_site(1)
        server = cluster.sites[1]
        assert server.escrow is not None
        program = server.escrow.program
        # The lowering of a fresh install of the replayed treaty, and
        # exactly the slack a fresh lowering would grant.
        fresh = lower_to_escrow(server.local_treaty.constraints)
        assert (program.rows, program.touching) == (fresh.rows, fresh.touching)
        assert server.escrow.headroom == [
            row.slack(server.engine.peek) for row in program.rows
        ]
        # (The rejoin synchronization may have moved objects again;
        # the next checked commit's resync covers that.)
        # The recovered account keeps enforcing (validate mode runs
        # the interpreted oracle next to it).
        req = workload.next_request(rng, site=1)
        cluster.submit(req.tx_name, req.params)

    def test_replay_after_delta_installs_reproduces_the_live_state(self):
        """Installs are clause deltas on the live site, and delta
        records in its log; replay folds the chain over the last
        snapshot record and derives everything from scratch.  Crashing
        right after the N-th install, the two must coincide: same
        treaty, headroom grants, path partition, and an escrow account
        enforcing the same rows from the same counters under the same
        budget (the patched program numbers its rows by slot, the
        replayed one by position: ``enforced`` names them by
        constraint)."""
        workload, cluster = _micro_cluster()
        server = cluster.sites[1]
        rng = random.Random(4)
        installs = 0
        while installs < 6:
            req = workload.next_request(rng, site=rng.randrange(3))
            result = cluster.submit(req.tx_name, req.params)
            installs += result.synced and 1 in result.participants

        def volatile_state():
            return (
                server.treaty_round,
                list(server.local_treaty.constraints),
                dict(server.install_headroom),
                dict(server.path_checks),
                server.escrow.enforced(),
            )

        live = volatile_state()
        cluster.crash_site(1)
        assert server.local_treaty is None and server.escrow is None
        assert server.replay_wal() == live[0]
        assert volatile_state() == live
        # Back in the cluster, the next installs are deltas again
        # (validate mode holds each to the from-scratch oracle).
        cluster.recover_site(1)
        for _ in range(150):
            req = workload.next_request(rng, site=rng.randrange(3))
            cluster.submit(req.tx_name, req.params)
        assert server.treaty_round > live[0]

    def test_first_install_after_recovery_is_logged_as_a_snapshot(self):
        """A site writes delta records against the install it holds in
        memory.  A crash takes that baseline with it: the replayed
        treaty is rebuilt from the log, so the next install is logged
        whole, and deltas resume behind it."""
        import json

        workload, cluster = _micro_cluster()
        server = cluster.sites[1]

        def drive(installs):
            rng, seen = random.Random(6), 0
            while seen < installs:
                req = workload.next_request(rng, site=rng.randrange(3))
                result = cluster.submit(req.tx_name, req.params)
                seen += result.synced and 1 in result.participants

        def kinds():
            # Install records only: a round's origin also logs its
            # decision (``paxos_accept``) between them.
            lines = bytes(server.wal._buf).splitlines()
            return [
                kind
                for kind in (json.loads(line)["kind"] for line in lines)
                if kind.startswith("treaty_")
            ]

        drive(4)
        assert kinds()[-3:] == ["treaty_delta"] * 3
        cluster.crash_site(1)
        logged = len(kinds())
        cluster.recover_site(1)
        drive(3)
        after = kinds()[logged:]
        assert after[0] == "treaty_install"
        assert after[1:] and set(after[1:]) == {"treaty_delta"}
        # validate mode replayed the log after each of those installs
        # and compared it to the live site; once more, from outside:
        live = (server.treaty_round, list(server.local_treaty.constraints))
        cluster.crash_site(1)
        assert server.replay_wal() == live[0]
        assert list(server.local_treaty.constraints) == live[1]

    def test_both_sides_of_a_partition_keep_committing_locally(self):
        """A network partition (severed edges, no crash: every site is
        alive) lets *both* sides keep committing non-violating
        transactions; only cross-partition negotiations time out, and
        they abort cleanly without installing anything."""
        workload, cluster = _micro_cluster(validate=False)
        # Sever site 2 from sites {0, 1} for a long event window.
        cluster.transport.faults = FaultPlan(
            partitions=(Partition.separating({0, 1}, {2}),)
        )
        rng = random.Random(6)
        committed = {0: 0, 1: 0, 2: 0}
        timed_out = 0
        for _ in range(300):
            site = rng.randrange(3)
            req = workload.next_request(rng, site=site)
            try:
                cluster.submit(req.tx_name, req.params)
                committed[site] += 1
            except Unavailable:
                timed_out += 1
        assert all(committed[s] > 0 for s in (0, 1, 2)), committed
        assert timed_out > 0
        assert cluster.stats.timeouts == timed_out
        assert cluster.transport.aborted_rounds()
        # A partition is not a crash: nobody is marked down, and
        # healing it needs no WAL replay or rejoin round.
        assert not cluster.transport.down
        cluster.transport.faults = None
        req = workload.next_request(rng, site=2)
        cluster.submit(req.tx_name, req.params)

    def test_force_synchronize_refuses_during_outage(self):
        _, cluster = _micro_cluster()
        cluster.crash_site(1)
        with pytest.raises(Unavailable):
            cluster.force_synchronize()
        cluster.recover_site(1)
        cluster.force_synchronize()


class Test2PCBlocks:
    def test_2pc_blocks_wholesale_and_leaves_no_partial_state(self):
        workload = MicroWorkload(num_items=10, refill=8, num_sites=3)
        cluster = workload.build_2pc()
        cluster.submit("Buy@s0", {"item": 1})
        before = {s: cluster.replica_state(s) for s in (0, 1)}
        cluster.crash_site(2)
        for origin in (0, 1):
            with pytest.raises(Unavailable):
                cluster.submit(f"Buy@s{origin}", {"item": 2})
        # The refused transactions left no trace on any live replica.
        for s in (0, 1):
            assert cluster.replica_state(s) == before[s]
        cluster.recover_site(2)
        cluster.submit("Buy@s1", {"item": 2})
        assert cluster.replica_state(0) == cluster.replica_state(2)

    def test_2pc_aborts_cleanly_on_crash_discovered_mid_prepare(self):
        workload = MicroWorkload(num_items=10, refill=8, num_sites=3)
        cluster = workload.build_2pc()
        cluster.submit("Buy@s0", {"item": 3})
        state_before = {s: cluster.replica_state(s) for s in cluster.site_ids}
        # Site 2 dies on the prepare it is about to receive: handled,
        # but its vote never arrives.  Order is deterministic (cohorts
        # prepared in site order: 1 then 2).
        handled = cluster.transport._handled.get(2, 0)
        cluster.transport.faults = FaultPlan(crash_after={2: handled + 1})
        with pytest.raises(Unavailable):
            cluster.submit("Buy@s0", {"item": 3})
        # Origin rolled back; cohort 1's staged write was discarded by
        # the abort decision.  Nobody moved.
        for s in (0, 1):
            assert cluster.replica_state(s) == state_before[s]
        assert cluster.transport.aborted_rounds()


class TestLocalRecovery:
    def test_recovery_keeps_the_replicas_own_commits(self):
        # LOCAL replicas diverge by design: the 2PC recovery inherited
        # from the shared base (copy a live peer's snapshot) would
        # overwrite the write s1 committed before crashing.
        workload = MicroWorkload(num_items=10, refill=8, num_sites=3)
        cluster = workload.build_local()
        cluster.submit("Buy@s1", {"item": 2})
        committed = cluster.replica_state(1)
        assert committed != cluster.replica_state(0)
        cluster.crash_site(1)
        assert cluster.recover_site(1) == (1,)
        assert cluster.replica_state(1) == committed


class TestConcurrentFaults:
    def test_window_degrades_per_group(self):
        workload, cluster = _micro_cluster(validate=False)
        cluster.crash_site(2)
        # A window mixing all three origins: site-2 submissions fail
        # fast, the rest of the window executes.
        requests, timestamps = [], []
        rng = random.Random(4)
        for i, site in enumerate([0, 1, 2, 0, 1, 2]):
            req = workload.next_request(rng, site=site)
            requests.append((req.tx_name, req.params))
            timestamps.append(i)
        result = cluster.submit_window(requests, timestamps=timestamps)
        by_site = {}
        for out, (_name, _params) in zip(result.outcomes, requests):
            by_site.setdefault(out.site, []).append(out)
        assert all(out.failed for out in by_site[2])
        assert all(not out.failed for out in by_site[0] + by_site[1])

    def test_violating_window_fails_only_groups_needing_the_crash(self):
        workload, cluster = _micro_cluster(validate=False)
        rng = random.Random(5)
        # Exhaust budgets until windows start negotiating.
        for _ in range(40):
            reqs = [workload.next_request(rng, rng.randrange(3)) for _ in range(6)]
            cluster.submit_window([(r.tx_name, r.params) for r in reqs])
        cluster.crash_site(2)
        sent_before_crash = len(cluster.transport.trace)
        failed = completed = 0
        for _ in range(40):
            reqs = [workload.next_request(rng, rng.randrange(2)) for _ in range(6)]
            result = cluster.submit_window([(r.tx_name, r.params) for r in reqs])
            for out in result.outcomes:
                if out.failed:
                    failed += 1
                else:
                    completed += 1
        # Violations kept happening and their closures (which span the
        # crashed site's treaty factors) were refused, while purely
        # local commits continued.
        assert completed > 0 and failed > 0
        # Groups needing the crashed site were refused up front: no
        # message sent while it was down ever targeted it.
        assert all(
            m.dst != 2 and m.src != 2
            for m in cluster.transport.trace[sent_before_crash:]
        )
        cluster.recover_site(2)
        reqs = [workload.next_request(rng, rng.randrange(3)) for _ in range(6)]
        result = cluster.submit_window([(r.tx_name, r.params) for r in reqs])
        assert all(not out.failed for out in result.outcomes)


class TestSimulatorAvailability:
    def test_availability_gap_and_recovery(self):
        point = dict(
            strategy="equal-split",
            clients_per_replica=3,
            duration_ms=3_200.0,
            max_txns=100_000,
            fault_events=crash_schedule(1, 800.0, 1_500.0),
        )
        workload = MicroWorkload(num_items=60, num_sites=3, initial_qty="random")
        homeo = run("homeo", workload, validate=True, **point)
        twopc = run("2pc", workload, **point)
        window = (800.0, 2_300.0)
        assert homeo.recoveries == 1 and twopc.recoveries == 1
        assert homeo.availability_between(*window) > 0.5
        assert twopc.availability_between(*window) == 0.0
        assert homeo.availability > twopc.availability
        assert homeo.timeouts > 0
        assert homeo.recovery_ms > 0.0
        # Before the crash both modes are fully available.
        assert homeo.availability_between(0.0, 800.0) == 1.0
        assert twopc.availability_between(0.0, 800.0) == 1.0

    def test_fault_free_run_unchanged(self):
        """No fault events -> byte-identical results to the plain
        driver (the fault machinery must cost nothing when unused)."""
        workload = MicroWorkload(num_items=80, initial_qty="random")
        base = run("homeo", workload, max_txns=400)
        assert base.failed == 0 and base.timeouts == 0 and base.recoveries == 0
