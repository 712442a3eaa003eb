"""Tests for the discrete-event runner's timing model."""

import pytest

from repro.protocol.paxos_commit import DEFAULT_NEGOTIATION
from repro.sim.experiments import (
    run,
    skewed_client_counts,
    solver_time_model,
    zipf_weights,
)
from repro.protocol.kernel import GroupOutcome, WindowOutcome, WindowResult
from repro.sim.network import rtt_matrix_for
from repro.sim.runner import SimConfig, SimRequest, _Entry, _run_2pc, simulate
from repro.workloads.geo import GeoMicroWorkload
from repro.workloads.micro import MicroWorkload


def _micro(seed=0, **spec):
    """The microbenchmark at steady state (stock drawn at random)."""
    return MicroWorkload(initial_qty="random", init_seed=seed + 1, **spec)


def _contention(seed, window_ms=10.0, **config):
    """The racing-violator point: 8 clients a replica, 8 hot items."""
    return run(
        "homeo", _micro(seed, num_items=8, refill=20), seed=seed,
        clients_per_replica=8, window_ms=window_ms, **config,
    )


def _adaptive(mode, seed=0, skew=2.0, num_items=60, refill=80, **kw):
    """The adaptive-skew point: four replicas, 32 Zipf-placed clients."""
    return run(
        mode, _micro(seed, num_items=num_items, refill=refill, num_sites=4),
        seed=seed,
        clients_per_replica=skewed_client_counts(32, zipf_weights(4, skew)),
        **kw,
    )


class _StubCluster:
    """Deterministic decision source: sync every Nth submission.

    ``participants`` (when given) is reported on every synced outcome,
    mimicking a kernel with participant-scoped negotiation; without it
    the outcome carries no participant info and the simulator must
    fall back to cluster-wide pricing.  ``submit`` serves the 2PC /
    LOCAL baselines, ``submit_window`` the protocol modes.
    """

    negotiation = DEFAULT_NEGOTIATION

    def __init__(self, sync_every=0, participants=None):
        self.sync_every = sync_every
        self.participants = participants
        self.count = 0

    def submit(self, tx_name, params):
        self.count += 1
        synced = self.sync_every and self.count % self.sync_every == 0

        class Outcome:
            pass

        out = Outcome()
        out.synced = bool(synced)
        if self.participants is not None:
            out.participants = self.participants if synced else ()
        return out

    def submit_window(self, requests, timestamps=None):
        """The ``submit`` decision per entry; every synced entry is
        its own unopposed conflict group."""
        outcomes, groups = [], []
        for i, (tx_name, params) in enumerate(requests):
            out = self.submit(tx_name, params)
            participants = tuple(getattr(out, "participants", ()))
            outcomes.append(
                WindowOutcome(
                    index=i, tx_name=tx_name, synced=out.synced,
                    participants=participants,
                )
            )
            if out.synced:
                groups.append(
                    GroupOutcome(
                        wave=0, winner=i, losers=(), contender_sites=(),
                        participants=participants, scope=participants,
                        negotiation_index=-1,
                    )
                )
        return WindowResult(outcomes=outcomes, waves=[groups])


def _request_fn(rng, replica):
    return SimRequest("T", {}, (rng.randrange(50),), family="T")


def _config(mode, **kw):
    defaults = dict(
        mode=mode, num_replicas=2, clients_per_replica=4,
        rtt_ms=100.0, max_txns=800, seed=1,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestTimingModel:
    def test_local_latency_is_service_scale(self):
        res = simulate(_config("local"), _StubCluster(), _request_fn)
        assert res.committed == 800
        assert res.latency_stats().p50 < 10.0

    def test_2pc_latency_floor_is_two_rtt(self):
        res = simulate(_config("2pc"), _StubCluster(), _request_fn)
        stats = res.latency_stats()
        assert stats.p50 >= 200.0

    def test_homeo_without_violations_matches_local(self):
        res = simulate(_config("homeo"), _StubCluster(sync_every=0), _request_fn)
        assert res.negotiations == 0
        assert res.latency_stats().p97 < 25.0

    def test_homeo_violations_pay_two_rtt_plus_solver(self):
        config = _config("homeo", solver_ms=30.0)
        res = simulate(config, _StubCluster(sync_every=10), _request_fn)
        assert res.negotiations > 0
        synced = [r for r in res.records if r.kind == "sync"]
        for r in synced:
            assert r.comm_ms == pytest.approx(200.0)
            assert r.solver_ms == pytest.approx(30.0)
            assert r.latency_ms >= 230.0

    def test_opt_has_no_solver_cost(self):
        config = _config("opt", solver_ms=30.0)
        res = simulate(config, _StubCluster(sync_every=10), _request_fn)
        synced = [r for r in res.records if r.kind == "sync"]
        assert synced and all(r.solver_ms == 0.0 for r in synced)

    def test_sync_ratio_matches_stub(self):
        res = simulate(_config("homeo"), _StubCluster(sync_every=5), _request_fn)
        assert res.sync_ratio == pytest.approx(0.2, abs=0.05)

    def test_2pc_hot_lock_queueing(self):
        """All clients hammering one item must queue behind the 2-RTT
        lock hold and eventually hit the timeout."""

        def hot_request(rng, replica):
            return SimRequest("T", {}, (0,), family="T")

        config = _config("2pc", max_txns=300, clients_per_replica=8)
        res = simulate(config, _StubCluster(), hot_request)
        assert res.aborted_attempts > 0
        assert res.latency_stats().p99 >= 1000.0  # the MySQL-style tail

    def test_determinism(self):
        a = simulate(_config("homeo"), _StubCluster(sync_every=7), _request_fn)
        b = simulate(_config("homeo"), _StubCluster(sync_every=7), _request_fn)
        assert a.latencies() == b.latencies()

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            simulate(_config("bogus"), _StubCluster(), _request_fn)


class TestDurationBound:
    def test_no_record_starts_past_duration(self):
        """Regression: the loop bound used the *previous* iteration's
        clock, so a client popped past the horizon still executed one
        extra transaction."""
        config = _config("local", max_txns=100_000, duration_ms=80.0)
        res = simulate(config, _StubCluster(), _request_fn)
        assert res.records, "expected a populated run"
        assert max(r.start_ms for r in res.records) < 80.0
        assert res.measured_to_ms < 80.0

    def test_duration_bound_under_2pc_retries(self):
        config = _config(
            "2pc", max_txns=100_000, duration_ms=500.0, clients_per_replica=8,
        )
        res = simulate(config, _StubCluster(), lambda rng, r: SimRequest("T", {}, (0,)))
        assert max(r.start_ms for r in res.records) < 500.0


class Test2pcCoreAccounting:
    """Satellite fix: the core is released while a transaction blocks
    on item locks, identically for committing and aborting waiters."""

    def _call(self, lock_horizon, max_retries=0):
        config = SimConfig(mode="2pc", lock_timeout_ms=1000.0, max_retries=max_retries)
        cores = [[0.0]]
        lock_free = {("2pc", "k"): lock_horizon}
        request = SimRequest("T", {}, ("k",), family="T")
        entry = _Entry(ready=0.0, client=0, replica=0, request=request, service=5.0)
        record = _run_2pc(config, _StubCluster(), entry, cores, lock_free, 200.0)
        return record.end_ms, record, cores

    def test_committing_and_aborting_waiters_occupy_cores_identically(self):
        # Same dispatch, same service; one waiter gets the lock after
        # 300 ms and commits, the other would wait 3000 ms and aborts.
        end_c, rec_c, cores_c = self._call(lock_horizon=300.0)
        end_a, rec_a, cores_a = self._call(lock_horizon=3000.0)
        assert rec_c.kind == "2pc" and rec_a.kind == "failed"
        # Both occupied the core for exactly the 5 ms of CPU work --
        # the lock wait costs no server time on either path.
        assert cores_c == cores_a == [[5.0]]
        # The commit still pays wait + service + 2 RTT in latency (the
        # lock hold keeps execution inside the critical section).
        assert end_c == pytest.approx(300.0 + 5.0 + 200.0)
        assert end_a == pytest.approx(1000.0)

    def test_commit_waiters_do_not_pin_cores(self):
        """Macro regression: long lock waiters that eventually commit
        must not starve unrelated transactions of cores.  Under the
        seed model (core held through the wait) the cold family's p50
        here was >10x the 2-RTT floor."""
        state = {"n": 0}

        def request_fn(rng, replica):
            state["n"] += 1
            if state["n"] % 8 == 0:
                return SimRequest("cold", {}, (1000 + state["n"],), family="cold")
            return SimRequest("hot", {}, (0,), family="hot")

        config = _config(
            "2pc", clients_per_replica=8, max_txns=600,
            lock_timeout_ms=10_000.0, seed=2, cores_per_replica=2,
        )
        res = simulate(config, _StubCluster(), request_fn)
        assert res.aborted_attempts == 0  # every waiter commits
        cold = res.latency_stats("cold")
        assert cold.count > 20
        # Cold transactions ride the free cores: ~2 RTT + service.
        assert cold.p50 < 250.0
        assert res.latency_stats("hot").p50 > 1000.0  # the hot chain queues


class TestWindowedDriver:
    """The concurrent runtime driven with real interleaving."""

    def test_contention_run_produces_real_races(self):
        res = _contention(0, max_txns=1000)
        assert res.committed == 1000
        assert res.negotiations > 0
        contested = [r for r in res.records if r.kind == "sync" and r.vote_ms > 0]
        assert contested, "expected contested elections"
        losers = [r for r in res.records if r.retries > 0]
        assert losers, "expected transactions that lost a vote"
        # A loser's queueing is the election it lost: at least the
        # winner's negotiation (2 scoped RTTs at 100 ms) long.
        assert max(r.wait_ms for r in losers) >= 200.0
        assert res.aborted_attempts == sum(r.retries for r in res.records)

    def test_contention_determinism(self):
        """Two runs with the same seed produce identical records --
        the seeded arbitration order is deterministic end to end."""
        a = _contention(5, max_txns=600)
        b = _contention(5, max_txns=600)
        assert a.records == b.records
        assert a.aborted_attempts == b.aborted_attempts

    def test_disjoint_groups_priced_independently(self):
        """Geo-partitioned contention: each group's negotiations are
        priced from its own edge, as in the per-transaction path."""
        workload = GeoMicroWorkload(
            groups=((0, 1), (2, 3)), num_sites=4, items_per_group=6,
            refill=16, initial_qty="random", init_seed=2,
        )
        res = run(
            "homeo", workload, seed=1, rtt_matrix=rtt_matrix_for(4),
            clients_per_replica=6, window_ms=10.0, max_txns=800, solver_ms=0.0,
        )
        matrix = rtt_matrix_for(4)
        synced = [r for r in res.records if r.kind == "sync"]
        assert synced
        for r in synced:
            if r.participants == (0, 1):
                assert r.comm_ms == pytest.approx(2 * matrix[0][1])
            elif r.participants == (2, 3):
                assert r.comm_ms == pytest.approx(2 * matrix[2][3])

    def test_window_zero_keeps_legacy_path_for_concurrent_kernels(self):
        """``window_ms == 0`` is windows of one: every election is the
        trivial one (no vote round, no lost votes), and racing
        violators queue on the per-key negotiation gate instead -- some
        round waits out another round of its item, a wait no core or
        item-lock queue (millisecond scale) could produce."""
        res = _contention(3, window_ms=0.0, max_txns=400)
        assert res.committed == 400
        assert all(r.vote_ms == 0.0 and r.retries == 0 for r in res.records)
        synced = [r for r in res.records if r.kind == "sync"]
        assert any(r.wait_ms >= 100.0 for r in synced)
        windowed = _contention(3, max_txns=400)
        assert any(r.retries for r in windowed.records)


class _RefreshStub(_StubCluster):
    """Every would-be violation is a won proactive refresh instead."""

    def submit_window(self, requests, timestamps=None):
        window = super().submit_window(requests, timestamps)
        for grp in window.waves[0]:
            grp.rebalance = True
            out = window.outcomes[grp.winner]
            out.synced, out.rebalances = False, 1
        return window


class _SurvivorStub(_StubCluster):
    """Site 3 dies after the barrier rounds: survivors finish the round."""

    def submit_window(self, requests, timestamps=None):
        window = super().submit_window(requests, timestamps)
        for grp in window.waves[0]:
            window.outcomes[grp.winner].participants = (0, 1)
        return window


class TestOneDriverRules:
    """The two pricing rules the former ``submit`` and ``submit_window``
    drivers disagreed on (``sim/runner.py`` module docstring); the
    third, the negotiation gate, is pinned by
    ``test_window_zero_keeps_legacy_path_for_concurrent_kernels``."""

    def test_won_refresh_is_charged_comm_plus_solver(self):
        config = _config("homeo", solver_ms=30.0)
        res = simulate(config, _RefreshStub(sync_every=10), _request_fn)
        refreshed = [r for r in res.records if r.rebalances]
        assert refreshed and res.negotiations == 0
        assert res.rebalances == len(refreshed)
        for r in refreshed:
            assert r.kind == "local"
            assert r.rebalance_ms == pytest.approx(200.0 + 30.0)
            assert r.comm_ms == 0.0 and r.solver_ms == 0.0
            assert r.latency_ms >= 230.0

    def test_round_is_priced_from_the_closure_it_opened_with(self):
        config = SimConfig(
            mode="homeo", num_replicas=5, clients_per_replica=2,
            rtt_matrix=rtt_matrix_for(5), max_txns=400, seed=3,
        )
        stub = _SurvivorStub(sync_every=10, participants=(0, 1, 3))
        res = simulate(config, stub, _request_fn)
        synced = [r for r in res.records if r.kind == "sync"]
        assert synced
        for r in synced:
            # 2 x the UE<->SG edge the dead site was on, not 2 x 64.
            assert r.comm_ms == pytest.approx(2 * 243.0)
            assert r.participants == (0, 1)


class TestPerEdgePricing:
    """Negotiations are priced from the RTT edges the participants
    actually use, not the cluster-wide worst edge."""

    def _table1_config(self, **kw):
        defaults = dict(
            mode="homeo", num_replicas=5, clients_per_replica=2,
            rtt_matrix=rtt_matrix_for(5), max_txns=400, seed=3,
        )
        defaults.update(kw)
        return SimConfig(**defaults)

    def test_ue_uw_violation_priced_from_edge(self):
        """Table 1 regression: a (0, 1) = UE<->UW violation costs
        2 x 64 = 128 ms, not 2 x 372 = 744 ms."""
        config = self._table1_config()
        stub = _StubCluster(sync_every=10, participants=(0, 1))
        res = simulate(config, stub, _request_fn)
        synced = [r for r in res.records if r.kind == "sync"]
        assert synced
        for r in synced:
            assert r.comm_ms == pytest.approx(128.0)
            assert r.participants == (0, 1)

    def test_flat_fallback_without_participants(self):
        """Kernels that report no participant set pay the diameter."""
        config = self._table1_config()
        stub = _StubCluster(sync_every=10)  # no participants attribute
        res = simulate(config, stub, _request_fn)
        synced = [r for r in res.records if r.kind == "sync"]
        assert synced
        for r in synced:
            assert r.comm_ms == pytest.approx(744.0)

    def test_single_site_negotiation_is_near_free(self):
        config = self._table1_config()
        stub = _StubCluster(sync_every=10, participants=(2,))
        res = simulate(config, stub, _request_fn)
        synced = [r for r in res.records if r.kind == "sync"]
        assert synced
        for r in synced:
            assert r.comm_ms == pytest.approx(1.0)  # 2 x the 0.5 diagonal

    def test_run_geo_scopes_and_prices_by_group(self):
        """End-to-end: the geo workload's (0, 1) group never pays more
        than its own 64 ms edge unless extra sites join the round."""
        workload = GeoMicroWorkload(
            groups=((0, 1),), num_sites=5, items_per_group=30, refill=50,
            initial_qty="random", init_seed=2,
        )
        res = run(
            "homeo", workload, seed=1, rtt_matrix=rtt_matrix_for(5),
            clients_per_replica=2, max_txns=500, solver_ms=0.0,
        )
        synced = [r for r in res.records if r.kind == "sync"]
        assert synced, "expected negotiations"
        for r in synced:
            assert r.participants == (0, 1)
            assert r.comm_ms == pytest.approx(128.0)
        assert set(res.participant_histogram()) == {2}


class TestExperimentRunners:
    def test_solver_time_model_grows_with_lookahead(self):
        assert solver_time_model(100) > solver_time_model(10)

    def test_run_micro_smoke(self):
        res = run("homeo", _micro(num_items=40), rtt_ms=50.0, max_txns=600)
        assert res.committed == 600
        assert res.mode == "homeo"
        assert res.latency_stats().count > 0

    def test_run_micro_reports_escrow_stats(self):
        """A homeostasis run folds the kernel's escrow fast-path
        counters into the result; the local baseline has no treaty
        kernel and reports nothing."""
        res = run("homeo", _micro(num_items=40), max_txns=400)
        assert res.escrow["installs"] > 0
        assert res.escrow["sites_with_treaty"] > 0
        assert res.escrow["violations"] > 0
        assert run("local", _micro(num_items=40), max_txns=200).escrow == {}

    def test_run_micro_modes_ordering(self):
        """The headline result at smoke scale: local >= homeo >> 2pc."""
        local = run("local", _micro(num_items=40), max_txns=800)
        homeo = run("homeo", _micro(num_items=40), max_txns=800)
        two_pc = run("2pc", _micro(num_items=40), max_txns=800)
        t_local = local.throughput_per_replica()
        t_homeo = homeo.throughput_per_replica()
        t_2pc = two_pc.throughput_per_replica()
        assert t_local >= t_homeo > 3 * t_2pc


class TestAdaptiveSkew:
    def test_skewed_client_counts_partition_exactly(self):
        for skew in (0.0, 1.0, 2.5):
            counts = skewed_client_counts(32, zipf_weights(4, skew))
            assert sum(counts) == 32
            assert all(c >= 1 for c in counts)
            # Hotter ranks never get fewer clients than colder ones.
            assert list(counts) == sorted(counts, reverse=True)

    def test_per_replica_client_sequence_drives_the_loop(self):
        config = SimConfig(mode="homeo", num_replicas=3,
                           clients_per_replica=(4, 1, 1))
        assert config.client_counts() == [4, 1, 1]
        with pytest.raises(ValueError):
            SimConfig(mode="homeo", num_replicas=2,
                      clients_per_replica=(1, 1, 1)).client_counts()

    def test_adaptive_beats_static_at_high_skew(self):
        """The headline invariant at smoke scale, on the micro
        workload: demand-weighted allocation plus the watermark
        refresh strictly lowers the sync ratio under Zipf site skew --
        even counting every refresh round against it."""
        static = _adaptive("static", max_txns=900)
        adaptive = _adaptive("adaptive", max_txns=900)
        assert adaptive.sync_ratio < static.sync_ratio
        assert (
            adaptive.sync_ratio + adaptive.rebalance_ratio
            < static.sync_ratio
        )

    def test_rebalance_records_are_priced(self):
        """Refresh rounds must cost simulated time: every rebalancing
        record carries a positive rebalance_ms and the run's rebalance
        total matches the records."""
        res = _adaptive(
            "adaptive", num_items=12, refill=30, max_txns=900, watermark=0.6
        )
        rebalancers = [r for r in res.records if r.rebalances]
        assert rebalancers, "expected watermark refreshes at this scale"
        for r in rebalancers:
            assert r.kind == "local"  # the triggering txn committed
            assert r.rebalance_ms > 0.0
        assert res.rebalances == sum(r.rebalances for r in res.records)

    def test_adaptive_skew_determinism(self):
        a = _adaptive("adaptive", seed=3, skew=1.5, max_txns=500)
        b = _adaptive("adaptive", seed=3, skew=1.5, max_txns=500)
        assert a.sync_ratio == b.sync_ratio
        assert a.rebalances == b.rebalances
        assert [r.end_ms for r in a.records] == [r.end_ms for r in b.records]

    def test_validate_mode_holds_through_a_run(self):
        """The global treaty is never weakened: a validate-mode
        adaptive run (H1 + per-site H2 + untouched non-participants
        asserted at every install) completes without protocol errors."""
        res = _adaptive(
            "adaptive", seed=1, num_items=20, max_txns=400, validate=True
        )
        assert res.committed == 400
