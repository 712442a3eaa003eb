"""Figures 10-12: the microbenchmark against network RTT (Nr = 2,
Nc = 16) -- one sweep, read as latency, throughput and sync ratio."""

from _common import (
    MICRO_ITEMS,
    MICRO_TXNS,
    assert_factor,
    assert_monotone,
    once,
    print_table,
)

from repro.sim.experiments import run
from repro.workloads.micro import MicroWorkload

RTTS = (50.0, 100.0, 200.0)
MODES = ("homeo", "opt", "2pc", "local")


def _point(mode, rtt):
    workload = MicroWorkload(num_items=MICRO_ITEMS, initial_qty="random")
    return run(mode, workload, rtt_ms=rtt, max_txns=MICRO_TXNS)


def _sweep(run_once, rtts=RTTS, modes=MODES):
    return {
        (mode, rtt): run_once(_point, mode, rtt) for rtt in rtts for mode in modes
    }


def test_fig10_latency_vs_rtt(benchmark, run_once):
    """Figure 10: microbenchmark latency percentiles vs network RTT.

    Paper's shape (Nr = 2, Nc = 16): under homeostasis ~97% of
    transactions execute locally in a few ms; the violating tail costs
    about two RTTs (plus solver time, which puts homeo slightly above OPT
    at the far right).  2PC latency is consistently ~2 RTT for *every*
    transaction; LOCAL stays at local service time regardless of RTT.
    """
    results = once(benchmark, lambda: _sweep(run_once, rtts=(50.0, 200.0)))

    rows = []
    for (mode, rtt), res in sorted(results.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        s = res.latency_stats()
        rows.append(
            [f"{mode}-t{rtt:.0f}", s.p50, s.p90, s.p97, s.p99, res.sync_ratio * 100]
        )
    print_table(
        "Figure 10: latency percentiles vs RTT (ms; sync ratio %)",
        ["series", "p50", "p90", "p97", "p99", "sync%"],
        rows,
    )

    for rtt in (50.0, 200.0):
        homeo = results[("homeo", rtt)].latency_stats()
        opt = results[("opt", rtt)].latency_stats()
        two_pc = results[("2pc", rtt)].latency_stats()
        local = results[("local", rtt)].latency_stats()
        # ~97% of homeostasis transactions run at local latency.
        assert homeo.p90 < 20.0, f"homeo p90 should be local-ish at rtt={rtt}"
        # The violating tail costs about 2 RTT.
        assert homeo.p100 >= 2 * rtt
        # 2PC pays ~2 RTT on the median.
        assert 1.8 * rtt <= two_pc.p50 <= 3.0 * rtt
        # LOCAL is RTT-independent and far below 2PC.
        assert local.p99 < 25.0
        assert_factor(two_pc.p50, homeo.p50, 10.0, f"2pc vs homeo p50 at rtt={rtt}")
        # Homeostasis tail >= OPT tail (solver overhead), Section 6.1.
        assert homeo.p100 >= opt.p100 - 1e-6


def test_fig11_throughput_vs_rtt(benchmark, run_once):
    """Figure 11: microbenchmark throughput per replica vs network RTT.

    Paper's shape: homeostasis achieves 100x-1000x the throughput of 2PC
    (larger factors at larger RTTs), tracks LOCAL within a small factor,
    and decays mildly with RTT while 2PC decays proportionally to 1/RTT.
    """
    results = once(benchmark, lambda: _sweep(run_once))

    rows = []
    for rtt in RTTS:
        rows.append(
            [f"{rtt:.0f}ms"]
            + [results[(m, rtt)].throughput_per_replica() for m in MODES]
        )
    print_table(
        "Figure 11: throughput per replica vs RTT (txn/s)",
        ["RTT", "homeo", "opt", "2pc", "local"],
        rows,
    )

    for rtt in RTTS:
        homeo = results[("homeo", rtt)].throughput_per_replica()
        two_pc = results[("2pc", rtt)].throughput_per_replica()
        local = results[("local", rtt)].throughput_per_replica()
        assert_factor(homeo, two_pc, 10.0, f"homeo vs 2pc at rtt={rtt}")
        assert local >= homeo  # LOCAL is the ceiling

    # 2PC throughput decays with RTT; LOCAL does not (tolerate noise).
    assert_monotone(
        [results[("2pc", rtt)].throughput_per_replica() for rtt in RTTS],
        increasing=False, label="2pc vs RTT", tolerance=0.10,
    )
    local_values = [results[("local", rtt)].throughput_per_replica() for rtt in RTTS]
    assert max(local_values) / min(local_values) < 1.25


def test_fig12_syncratio_vs_rtt(benchmark, run_once):
    """Figure 12: synchronization ratio vs network RTT.

    Paper's shape: the fraction of transactions requiring synchronization
    is a property of the *workload* (stock consumption vs treaty
    budgets), not of the network: both homeostasis and OPT sit in the
    low single digits across RTTs, nearly identical -- the evidence that
    Algorithm 1's treaties are near-optimal for uniform workloads.
    """
    results = once(benchmark, lambda: _sweep(run_once, modes=("homeo", "opt")))

    rows = [
        [f"{rtt:.0f}ms"]
        + [results[(m, rtt)].sync_ratio * 100 for m in ("homeo", "opt")]
        for rtt in RTTS
    ]
    print_table(
        "Figure 12: synchronization ratio vs RTT (%)",
        ["RTT", "homeo", "opt"],
        rows,
    )

    for rtt in RTTS:
        homeo = results[("homeo", rtt)].sync_ratio
        opt = results[("opt", rtt)].sync_ratio
        # Single-digit percentages, like the paper's 2-4%.
        assert 0.0 < homeo < 0.10, f"homeo sync ratio {homeo:.2%} at rtt={rtt}"
        assert 0.0 < opt < 0.10
        # Near-identical: within a factor 2 of each other.
        assert 0.5 <= (homeo / opt) <= 2.0, (
            f"homeo {homeo:.2%} vs opt {opt:.2%} at rtt={rtt}"
        )
