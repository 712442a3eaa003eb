"""Arbitration fairness under the fleet workloads.

The flash sale is the starvation regime the credit ledger (PR 9) was
built for: every site races violations of the *same* hot treaty, so
elections are frequent and a pure site-id tie-break lets one site
lose indefinitely.  These tests run the fleet's contested points
under the concurrent kernel with coarse arbitration clocks (every
in-window race ties, so the tie-break chain decides) and check the
``SimResult.fairness`` plumbing end to end: elections are actually
contested, per-site ledgers are recorded, and the budgeted credit
policy bounds the worst losing streak.
"""

import pytest

from repro.protocol.paxos_commit import NegotiationSpec
from repro.sim.experiments import run
from repro.workloads.banking import BankingWorkload
from repro.workloads.flashsale import FlashSaleWorkload
from repro.workloads.quota import QuotaWorkload

#: the hot-SKU sale: every site races violations of SKU 0's treaty
_HOT_SALE = dict(hot_stock=120, cold_stock=60, restock_fraction=0.0, peek_fraction=0.0)


def _fairness_point(mode, workload, policy="credit"):
    """Four replicas of 8 clients racing in 10 ms windows, with a
    clock so coarse every within-window vote ties (harness idiom)."""
    return run(
        mode,
        workload,
        negotiation=NegotiationSpec(policy=policy),
        clients_per_replica=8,
        window_ms=10.0,
        max_txns=900,
        clock_quantum_ms=1e6,
    )


def test_flashsale_fairness_is_recorded_and_bounded():
    result = _fairness_point("static", FlashSaleWorkload(num_sites=4, **_HOT_SALE))
    fairness = result.fairness
    assert fairness["policy"] == "credit"
    assert fairness["elections"] > 0, "hot-SKU point held no contested elections"
    assert set(fairness["per_site"]) == {0, 1, 2, 3}
    # Credit's construction bound: a loser accrues credit and must win
    # before its streak passes the ledger budget.
    assert fairness["max_consecutive_losses"] <= 3
    for site, ledger in fairness["per_site"].items():
        # ``elections`` counts contested groups only; wins also cover
        # uncontested rounds, so the per-site bound is on losses.
        assert ledger["losses"] <= fairness["elections"]
        assert ledger["max_consecutive_losses"] <= fairness[
            "max_consecutive_losses"
        ]


def test_flashsale_credit_bounds_what_priority_lets_grow():
    credit, priority = (
        _fairness_point(
            "static", FlashSaleWorkload(num_sites=4, **_HOT_SALE), policy
        ).fairness
        for policy in ("credit", "priority")
    )
    assert credit["elections"] > 0 and priority["elections"] > 0
    assert (
        credit["max_consecutive_losses"] <= priority["max_consecutive_losses"]
    ), (
        f"credit {credit['max_consecutive_losses']} vs priority "
        f"{priority['max_consecutive_losses']}"
    )


def test_quota_hot_tenant_fairness():
    result = _fairness_point(
        "homeo",
        QuotaWorkload(num_tenants=10, num_sites=4, limit=8, hot_fraction=0.9),
    )
    fairness = result.fairness
    assert fairness["elections"] > 0, "hot-tenant point held no elections"
    assert fairness["max_consecutive_losses"] <= 3
    assert all(
        ledger["wait_p99"] >= ledger["wait_p50"]
        for ledger in fairness["per_site"].values()
    )


def test_banking_hot_account_fairness():
    result = _fairness_point(
        "homeo",
        BankingWorkload(
            num_accounts=4,
            num_sites=4,
            initial_balance=200,
            deposit_fraction=0.0,
            hot_fraction=0.9,
        ),
    )
    fairness = result.fairness
    assert fairness["elections"] > 0, "hot-account point held no elections"
    assert fairness["max_consecutive_losses"] <= 3


@pytest.mark.parametrize(
    "mode, workload",
    [
        ("adaptive", FlashSaleWorkload),
        ("homeo", BankingWorkload),
        ("homeo", QuotaWorkload),
    ],
    ids=["flashsale", "banking", "quota"],
)
def test_uncontested_points_record_empty_fairness(mode, workload):
    """The sequential kernel (window_ms=0, the default spec) holds no
    elections; the fairness block must say so, not lie."""
    result = run(mode, workload(), clients_per_replica=8, max_txns=150)
    assert result.fairness["elections"] == 0
    assert result.fairness["max_consecutive_losses"] == 0
