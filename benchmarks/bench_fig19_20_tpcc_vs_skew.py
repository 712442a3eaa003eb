"""Figures 19-20: TPC-C New Order against workload skew H (Nr = 2 on
UE+UW, Nc = 8) -- one sweep, read as latency and throughput."""

from _common import TPCC_TXNS, assert_factor, assert_monotone, once, print_table

from repro.sim.experiments import run
from repro.sim.network import rtt_matrix_for
from repro.workloads.tpcc import TpccWorkload

MODES = ("homeo", "opt", "2pc")


def _point(mode, h):
    return run(
        mode,
        TpccWorkload(items_per_district=60, hotness=h),
        rtt_matrix=rtt_matrix_for(2),  # UE + UW
        cores_per_replica=16,  # c3.4xlarge
        clients_per_replica=8,
        max_txns=TPCC_TXNS,
    )


def _sweep(run_once, hotness):
    return {(mode, h): run_once(_point, mode, h) for h in hotness for mode in MODES}


def test_fig19_tpcc_latency_vs_skew(benchmark, run_once):
    """Figure 19: TPC-C New Order latency percentiles vs workload skew H.

    Paper's shape (Nr = 2 on UE+UW, Nc = 8): as H (the share of New
    Orders hitting the 1% hot items) grows, hot-item treaties are
    violated more often and a larger fraction of transactions takes the
    negotiation latency hit; 2PC's profile is H-insensitive (every
    transaction pays two RTTs) but develops lock-timeout tails.
    """
    results = once(benchmark, lambda: _sweep(run_once, (1, 50)))

    rows = []
    for (mode, h), res in sorted(results.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        s = res.latency_stats("NewOrder")
        rows.append([f"{mode}-h{h}", s.p50, s.p90, s.p97, s.p99, res.sync_ratio * 100])
    print_table(
        "Figure 19: TPC-C New Order latency vs skew (ms; overall sync %)",
        ["series", "p50", "p90", "p97", "p99", "sync%"],
        rows,
    )

    # Homeostasis median stays local at both skews; 2PC pays >= 2 RTT.
    for h in (1, 50):
        assert results[("homeo", h)].latency_stats("NewOrder").p50 < 10.0
        assert results[("2pc", h)].latency_stats("NewOrder").p50 >= 100.0
    # Higher skew -> more violating New Orders -> fatter homeo tail.
    assert (
        results[("homeo", 50)].latency_stats("NewOrder").p97
        >= results[("homeo", 1)].latency_stats("NewOrder").p97
    )
    # 2PC's median is comparatively unaffected by skew.
    p50_low = results[("2pc", 1)].latency_stats("NewOrder").p50
    p50_high = results[("2pc", 50)].latency_stats("NewOrder").p50
    assert p50_high < 4 * p50_low


def test_fig20_tpcc_throughput_vs_skew(benchmark, run_once):
    """Figure 20: TPC-C New Order throughput per replica vs skew H.

    Paper's shape: both homeostasis and 2PC lose throughput as H grows
    (hot treaties violate more / hot locks conflict more), but the
    homeostasis curve stays far above 2PC at every skew.
    """
    hotness = (5, 25, 50)
    results = once(benchmark, lambda: _sweep(run_once, hotness))

    rows = [
        [h] + [results[(m, h)].throughput_per_replica("NewOrder") for m in MODES]
        for h in hotness
    ]
    print_table(
        "Figure 20: TPC-C New Order throughput per replica vs H (txn/s)",
        ["H", "homeo", "opt", "2pc"],
        rows,
    )

    for h in hotness:
        assert_factor(
            results[("homeo", h)].throughput_per_replica("NewOrder"),
            results[("2pc", h)].throughput_per_replica("NewOrder"),
            2.0,
            f"homeo vs 2pc at H={h}",
        )
    # Throughput falls (or at best holds) as skew rises.
    assert_monotone(
        [results[("homeo", h)].throughput_per_replica("NewOrder") for h in hotness],
        increasing=False, label="homeo NO throughput vs H", tolerance=0.25,
    )
