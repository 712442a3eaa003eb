"""Theorem 3.8 as executable property tests.

The homeostasis protocol's correctness guarantee: an external
observer cannot distinguish a protocol execution from a serial
execution of the same transactions on a consistent database --
same per-transaction logs, same final database.

These tests run randomized workload schedules through the full
protocol kernel (treaty generation, disconnected execution, violation
-> synchronization -> rerun) and compare against the straightforward
serial evaluation.  Every treaty strategy must pass.
"""

import random

import pytest
from conftest import examples
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lang.interp import evaluate
from repro.workloads.micro import MicroWorkload


def _run_schedule(cluster, workload, schedule):
    logs = []
    for req in schedule:
        logs.append(cluster.submit(req.tx_name, req.params).log)
    return logs


def _serial_reference(workload, schedule):
    state = dict(workload.initial_db)
    logs = []
    for req in schedule:
        out = evaluate(
            workload.reference_transaction(req.tx_name), state, params=req.params
        )
        state = out.db
        logs.append(out.log)
    return state, logs


def _assert_equivalent(cluster, workload, schedule):
    logs = _run_schedule(cluster, workload, schedule)
    state, serial_logs = _serial_reference(workload, schedule)
    assert logs == serial_logs, "per-transaction logs diverged"
    final = cluster.global_state()
    for key in set(state) | set(final):
        assert state.get(key, 0) == final.get(key, 0), f"divergence on {key}"


@pytest.mark.parametrize("strategy", ["default", "equal-split", "optimized"])
def test_theorem_38_micro(strategy):
    workload = MicroWorkload(num_items=8, refill=12, num_sites=2)
    cluster = workload.build_homeostasis(strategy=strategy, validate=True)
    rng = random.Random(42)
    schedule = [workload.next_request(rng) for _ in range(300)]
    _assert_equivalent(cluster, workload, schedule)


@pytest.mark.parametrize("num_sites", [2, 3, 4])
def test_theorem_38_varying_sites(num_sites):
    workload = MicroWorkload(num_items=5, refill=10, num_sites=num_sites)
    cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
    rng = random.Random(7)
    schedule = [workload.next_request(rng) for _ in range(200)]
    _assert_equivalent(cluster, workload, schedule)


def test_theorem_38_multi_item():
    workload = MicroWorkload(num_items=8, refill=15, num_sites=2, items_per_txn=2)
    cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
    rng = random.Random(3)
    schedule = [workload.next_request(rng) for _ in range(200)]
    _assert_equivalent(cluster, workload, schedule)


def test_theorem_38_skewed_sites():
    workload = MicroWorkload(
        num_items=6, refill=10, num_sites=2, site_weights={0: 0.9, 1: 0.1}
    )
    cluster = workload.build_homeostasis(strategy="optimized", validate=True)
    rng = random.Random(11)
    schedule = [workload.next_request(rng) for _ in range(250)]
    _assert_equivalent(cluster, workload, schedule)


@settings(
    max_examples=examples(12),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    num_items=st.integers(2, 6),
    refill=st.integers(4, 20),
    strategy=st.sampled_from(["default", "equal-split", "optimized"]),
)
def test_theorem_38_property(seed, num_items, refill, strategy):
    """PROPERTY: protocol execution is observationally equivalent to
    serial execution for random workloads, populations, strategies."""
    workload = MicroWorkload(num_items=num_items, refill=refill, num_sites=2)
    cluster = workload.build_homeostasis(strategy=strategy, validate=True)
    rng = random.Random(seed)
    schedule = [workload.next_request(rng) for _ in range(120)]
    _assert_equivalent(cluster, workload, schedule)


class TestProtocolAccounting:
    def test_sync_ratio_and_messages(self):
        workload = MicroWorkload(num_items=4, refill=8, num_sites=2)
        cluster = workload.build_homeostasis(strategy="equal-split")
        rng = random.Random(1)
        for _ in range(200):
            req = workload.next_request(rng)
            cluster.submit(req.tx_name, req.params)
        stats = cluster.stats
        assert stats.submitted == 200
        assert 0 < stats.negotiations < 200
        assert stats.committed_local == 200 - stats.negotiations
        # Each negotiation is one sync round: K*(K-1) broadcasts.
        assert stats.messages.sync_broadcasts == stats.negotiations * 2
        assert stats.messages.vote_messages == stats.negotiations * 1

    def test_default_strategy_syncs_on_every_write(self):
        """Theorem 4.3's frozen default degenerates to distributed
        locking: every state-changing transaction negotiates."""
        workload = MicroWorkload(num_items=3, refill=10, num_sites=2)
        cluster = workload.build_homeostasis(strategy="default")
        rng = random.Random(5)
        for _ in range(50):
            req = workload.next_request(rng)
            cluster.submit(req.tx_name, req.params)
        assert cluster.stats.negotiations == 50

    def test_unknown_transaction_rejected(self):
        from repro.protocol.homeostasis import ProtocolError

        workload = MicroWorkload(num_items=2, refill=5, num_sites=2)
        cluster = workload.build_homeostasis(strategy="equal-split")
        with pytest.raises(ProtocolError):
            cluster.submit("NoSuchTx", {})

    def test_force_synchronize(self):
        workload = MicroWorkload(num_items=3, refill=10, num_sites=2)
        cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
        rng = random.Random(2)
        for _ in range(30):
            req = workload.next_request(rng)
            cluster.submit(req.tx_name, req.params)
        before = cluster.stats.rounds
        cluster.force_synchronize()
        assert cluster.stats.rounds == before + 1

    def test_incremental_matches_full_regeneration(self):
        """The incremental treaty cache must produce the same local
        treaties a from-scratch generator would."""
        workload = MicroWorkload(num_items=4, refill=10, num_sites=2)
        cluster = workload.build_homeostasis(strategy="equal-split")
        rng = random.Random(9)
        for _ in range(150):
            req = workload.next_request(rng)
            cluster.submit(req.tx_name, req.params)
        # Rebuild from scratch on the synchronized state.
        cluster.force_synchronize()
        fresh_gen = workload.build_homeostasis(strategy="equal-split").generator
        ref = cluster.sites[0].engine.peek
        snapshot = cluster.sites[0].engine.store.snapshot()
        fresh = fresh_gen.generate(ref, snapshot, 1, dirty=None)
        incremental = cluster.treaty_table
        assert incremental is not None
        for site in (0, 1):
            a = {c.pretty() for c in incremental.local_for(site).constraints}
            b = {c.pretty() for c in fresh.local_for(site).constraints}
            assert a == b
