"""Tests for the TPC-C subset workload (Section 6.2, Appendix E)."""

import random

import pytest

from repro.lang.interp import evaluate
from repro.protocol.paxos_commit import NegotiationSpec
from repro.workloads.tpcc import TpccWorkload


@pytest.fixture(scope="module")
def small_workload():
    return TpccWorkload(
        num_warehouses=1,
        num_districts=1,
        items_per_district=6,
        num_customers=5,
        num_sites=2,
        hotness=20,
        initial_stock=40,
    )


class TestEncoding:
    def test_three_families_per_site(self, small_workload):
        names = set(small_workload.variants)
        for site in (0, 1):
            for family in ("NewOrder", "Payment", "Delivery"):
                assert f"{family}@s{site}" in names

    def test_payment_is_treaty_irrelevant(self, small_workload):
        """Appendix E: Payment instances run without ever needing to
        synchronize, so they are excluded from treaty grounding."""
        tables = small_workload.ground_tables()
        assert not any(
            t.transaction.name.startswith("Payment") for t, _ in tables
        )

    def test_delivery_and_neworder_ground(self, small_workload):
        tables = small_workload.ground_tables()
        families = {t.transaction.name.split("#", 1)[0] for t, _ in tables}
        assert families == {
            "NewOrder@s0", "NewOrder@s1", "Delivery@s0", "Delivery@s1"
        }

    def test_order_counters_are_site_local(self, small_workload):
        assert small_workload.locate("next_oid_s0[0,0]") == 0
        assert small_workload.locate("next_oid_s1[0,0]") == 1

    def test_hot_item_sampling(self, small_workload):
        rng = random.Random(0)
        hot = 0
        total = 4000
        for _ in range(total):
            item = small_workload._sample_item(rng)
            if item in small_workload.hot_items:
                hot += 1
        assert abs(hot / total - small_workload.hotness / 100) < 0.03


class TestProtocolBehaviour:
    def test_payment_never_syncs(self, small_workload):
        cluster = small_workload.build_homeostasis(strategy="equal-split")
        rng = random.Random(1)
        for _ in range(60):
            params = small_workload._sample_params(rng, "Payment")
            site = rng.randrange(2)
            out = cluster.submit(f"Payment@s{site}", params)
            assert not out.synced

    def test_delivery_always_syncs(self, small_workload):
        """Appendix E: Delivery's printed output depends on remote
        state, so every *delivering* execution violates its pinned
        treaty.  A Delivery that finds the district empty prints
        nothing, reads nothing remotely in its matched residual, and
        correctly commits locally -- the analysis derives both cases."""
        cluster = small_workload.build_homeostasis(strategy="equal-split")
        rng = random.Random(2)
        delivered, empties = [], []
        for k in range(16):
            params = small_workload._sample_params(rng, "Delivery")
            out = cluster.submit(f"Delivery@s{k % 2}", params)
            (delivered if out.log else empties).append(out.synced)
        assert delivered and all(delivered), "non-empty deliveries must sync"
        if empties:
            assert not any(empties), "empty deliveries are unobservable"

    def test_neworder_syncs_only_at_boundaries(self, small_workload):
        cluster = small_workload.build_homeostasis(strategy="equal-split")
        rng = random.Random(3)
        outcomes = []
        for _ in range(120):
            params = small_workload._sample_params(rng, "NewOrder")
            site = rng.randrange(2)
            outcomes.append(cluster.submit(f"NewOrder@s{site}", params).synced)
        # Most commit locally; some boundary crossings negotiate.
        assert 0 < sum(outcomes) < 60

    def test_equivalence_to_serial(self, small_workload):
        """Theorem 3.8 over the full three-transaction mix."""
        cluster = small_workload.build_homeostasis(
            strategy="equal-split", validate=True
        )
        rng = random.Random(4)
        schedule = [small_workload.next_request(rng) for _ in range(250)]
        logs = [
            cluster.submit(req.tx_name, req.params).log for req in schedule
        ]
        state = dict(small_workload.initial_db)
        for req, log in zip(schedule, logs):
            out = evaluate(
                small_workload.reference_transaction(req.tx_name),
                state,
                params=req.params,
            )
            state = out.db
            assert out.log == log
        final = cluster.global_state()
        for key in set(state) | set(final):
            assert state.get(key, 0) == final.get(key, 0), key

    def test_paxos_commit_and_credit_arbitration(self, small_workload):
        """The shared builder spine gives TPC-C the ``negotiation``
        knob its hand-rolled ``cluster_spec`` lacked: windows race
        under credit arbitration, every cleanup decision goes through
        the acceptor quorum, and each window stays serializable in its
        commit order (validate mode on throughout)."""
        spec = small_workload.cluster_spec(
            strategy="equal-split", negotiation=NegotiationSpec(policy="credit")
        )
        assert spec.negotiation.policy == "credit"
        cluster = small_workload.build_homeostasis(
            strategy="equal-split",
            validate=True,
            negotiation=NegotiationSpec(policy="credit"),
        )
        rng = random.Random(6)
        state = dict(small_workload.initial_db)
        for _ in range(6):
            window = [
                small_workload.next_request(rng, site=k % 2) for k in range(8)
            ]
            result = cluster.submit_window(
                [(req.tx_name, req.params) for req in window]
            )
            assert sorted(result.commit_order) == list(range(len(window)))
            for idx in result.commit_order:
                req = window[idx]
                out = evaluate(
                    small_workload.reference_transaction(req.tx_name),
                    state,
                    params=req.params,
                )
                state = out.db
                assert out.log == result.outcomes[idx].log
        final = cluster.global_state()
        for key in set(state) | set(final):
            assert state.get(key, 0) == final.get(key, 0), key
        stats = cluster.transport.message_stats()
        assert cluster.stats.negotiations > 0
        assert stats.phase2a_messages > 0 and stats.phase2b_messages > 0

    def test_hotness_increases_sync_ratio(self):
        """Figure 29's shape at kernel level: more hot-item orders,
        more treaty violations."""
        ratios = []
        for hotness in (1, 50):
            # Scale such that cold items never reach their treaty
            # boundary within the run (like the paper's 10,000-item
            # population over a finite window) while the single hot
            # item cycles repeatedly.
            workload = TpccWorkload(
                num_warehouses=1,
                num_districts=1,
                items_per_district=60,
                num_customers=5,
                num_sites=2,
                hotness=hotness,
                initial_stock=120,
                mix=(1.0, 0.0, 0.0),  # NewOrder only, isolate the effect
            )
            cluster = workload.build_homeostasis(strategy="equal-split")
            rng = random.Random(5)
            for _ in range(600):
                req = workload.next_request(rng)
                cluster.submit(req.tx_name, req.params)
            ratios.append(cluster.stats.sync_ratio)
        assert ratios[1] > ratios[0], ratios
