"""Figures 28-29: distributed TPC-C against skew H (Appendix F.2) --
one sweep, read as overall throughput and sync ratio.

Paper's setup: the database is partitioned across machines (one per
warehouse) and replicated across two datacenters; mix 49/49/2.
"""

from _common import assert_factor, assert_monotone, once, print_table

from repro.sim.experiments import run
from repro.sim.network import rtt_matrix_for
from repro.workloads.tpcc import TpccWorkload

DIST_MIX = (0.49, 0.49, 0.02)

#: series -> (mode, clients per replica)
SERIES = {"homeo": ("homeo", 8), "opt": ("opt", 8), "2pc-c1": ("2pc", 1)}


def _point(mode, clients, h):
    workload = TpccWorkload(
        num_warehouses=3,  # scaled-down stand-in for 10 machines
        num_districts=2,
        items_per_district=60,
        hotness=h,
        mix=DIST_MIX,
    )
    return run(
        mode,
        workload,
        rtt_matrix=rtt_matrix_for(2),  # UE + UW
        cores_per_replica=16,  # c3.4xlarge
        clients_per_replica=clients,
        max_txns=1_500,
    )


def _sweep(run_once, hotness, series):
    return {
        (name, h): run_once(_point, *SERIES[name], h)
        for h in hotness
        for name in series
    }


def test_fig28_dist_tpcc_throughput(benchmark, run_once):
    """Figure 28: distributed TPC-C overall system throughput vs skew H.

    Paper's shape: homeostasis achieves ~80% of OPT's throughput and
    roughly an order of magnitude more than the estimated 2PC bound;
    throughput falls as H grows.
    """
    hotness = (1, 50)
    results = once(
        benchmark, lambda: _sweep(run_once, hotness, ("homeo", "opt", "2pc-c1"))
    )

    rows = []
    for h in hotness:
        homeo = results[("homeo", h)].total_throughput()
        opt = results[("opt", h)].total_throughput()
        est = 8 * results[("2pc-c1", h)].total_throughput()
        rows.append([h, homeo, opt, est])
    print_table(
        "Figure 28: distributed TPC-C overall throughput vs H (txn/s)",
        ["H", "homeo", "opt", "2pc(est)"],
        rows,
    )

    for h in hotness:
        homeo = results[("homeo", h)].total_throughput()
        opt = results[("opt", h)].total_throughput()
        est = 8 * results[("2pc-c1", h)].total_throughput()
        # Homeostasis reaches a large fraction of OPT...
        assert homeo >= 0.5 * opt, f"homeo {homeo:.0f} vs opt {opt:.0f} at H={h}"
        # ...and beats the optimistic linear-scaling 2PC estimate at
        # every skew (by a wide margin at low skew; at H = 50 our
        # reduced hot-item population makes negotiation queues bite
        # harder than the paper's, so the bar there is parity).
        assert homeo > est, f"homeo {homeo:.0f} vs 2pc(est) {est:.0f} at H={h}"
    assert_factor(
        results[("homeo", 1)].total_throughput(),
        8 * results[("2pc-c1", 1)].total_throughput(),
        2.0,
        "homeo vs 2pc(est) at low skew",
    )
    assert_monotone(
        [results[("homeo", h)].total_throughput() for h in hotness],
        increasing=False, label="homeo throughput vs H", tolerance=0.25,
    )


def test_fig29_dist_tpcc_syncratio(benchmark, run_once):
    """Figure 29: distributed TPC-C synchronization ratio vs skew H.

    Paper's shape: the fraction of transactions requiring
    synchronization rises with H for both homeostasis and OPT, with
    homeostasis somewhat above OPT (its automatically derived treaties
    are near but not exactly the hand-crafted optimum); both stay in the
    single-digit range.
    """
    hotness = (1, 25, 50)
    results = once(benchmark, lambda: _sweep(run_once, hotness, ("homeo", "opt")))

    rows = [
        [h] + [results[(m, h)].sync_ratio * 100 for m in ("homeo", "opt")]
        for h in hotness
    ]
    print_table(
        "Figure 29: distributed TPC-C synchronization ratio vs H (%)",
        ["H", "homeo", "opt"],
        rows,
    )

    assert_monotone(
        [results[("homeo", h)].sync_ratio for h in hotness],
        increasing=True, label="homeo sync ratio vs H", tolerance=0.25,
    )
    for h in hotness:
        homeo = results[("homeo", h)].sync_ratio
        opt = results[("opt", h)].sync_ratio
        assert 0.0 < homeo < 0.25
        assert 0.0 < opt < 0.25
        assert homeo >= 0.5 * opt  # same order of magnitude
