"""Figures 13-15: the microbenchmark against the replica count (RTT =
100 ms, Nc = 16) -- one sweep, read as latency, throughput and sync
ratio."""

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

REPLICAS = (2, 3, 5)
MODES = ("homeo", "opt", "2pc", "local")


def _point(mode, nr):
    workload = MicroWorkload(num_items=MICRO_ITEMS, num_sites=nr, initial_qty="random")
    return run(mode, workload, rtt_ms=100.0, max_txns=MICRO_TXNS)


def _sweep(run_once, replicas=REPLICAS, modes=MODES):
    return {
        (mode, nr): run_once(_point, mode, nr) for nr in replicas for mode in modes
    }


def test_fig13_latency_vs_replicas(benchmark, run_once):
    """Figure 13: microbenchmark latency percentiles vs replica count.

    Paper's shape (RTT = 100 ms, Nc = 16): more replicas mean smaller
    per-site treaty budgets, hence more frequent violations -- the latency
    tail begins earlier for Nr = 5 than Nr = 2.  2PC latency is ~2 RTT at
    any replica count; the homeostasis median stays at local latency.
    """
    results = once(benchmark, lambda: _sweep(run_once, replicas=(2, 5)))

    rows = []
    for (mode, nr), res in sorted(results.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        s = res.latency_stats()
        rows.append([f"{mode}-r{nr}", s.p50, s.p90, s.p97, s.p99, res.sync_ratio * 100])
    print_table(
        "Figure 13: latency percentiles vs replicas (ms; sync ratio %)",
        ["series", "p50", "p90", "p97", "p99", "sync%"],
        rows,
    )

    for nr in (2, 5):
        homeo = results[("homeo", nr)].latency_stats()
        two_pc = results[("2pc", nr)].latency_stats()
        assert homeo.p50 < 10.0
        assert two_pc.p50 >= 180.0
    # More replicas -> more violations -> fatter tail for homeostasis.
    sync2 = results[("homeo", 2)].sync_ratio
    sync5 = results[("homeo", 5)].sync_ratio
    assert sync5 > sync2, f"sync ratio should grow with replicas: {sync2:.2%} vs {sync5:.2%}"
    assert (
        results[("homeo", 5)].latency_stats().p97
        >= results[("homeo", 2)].latency_stats().p97
    )


def test_fig14_throughput_vs_replicas(benchmark, run_once):
    """Figure 14: microbenchmark throughput per replica vs replica count.

    Paper's shape: per-replica throughput decreases for every mode as the
    degree of replication grows (smaller treaty shares for homeostasis /
    OPT, more participants per commit for 2PC), while homeostasis stays
    orders of magnitude above 2PC throughout.
    """
    results = once(benchmark, lambda: _sweep(run_once))

    rows = [
        [nr] + [results[(m, nr)].throughput_per_replica() for m in MODES]
        for nr in REPLICAS
    ]
    print_table(
        "Figure 14: throughput per replica vs replicas (txn/s)",
        ["Nr", "homeo", "opt", "2pc", "local"],
        rows,
    )

    for nr in REPLICAS:
        assert_factor(
            results[("homeo", nr)].throughput_per_replica(),
            results[("2pc", nr)].throughput_per_replica(),
            8.0,
            f"homeo vs 2pc at Nr={nr}",
        )
    assert_monotone(
        [results[("homeo", nr)].throughput_per_replica() for nr in REPLICAS],
        increasing=False, label="homeo per-replica throughput vs Nr",
        tolerance=0.15,
    )


def test_fig15_syncratio_vs_replicas(benchmark, run_once):
    """Figure 15: synchronization ratio vs replica count.

    Paper's shape: each replica's treaty share shrinks as 1/Nr, so
    violations come sooner and the synchronization ratio rises with the
    degree of replication, for homeostasis and OPT alike.
    """
    results = once(benchmark, lambda: _sweep(run_once, modes=("homeo", "opt")))

    rows = [
        [nr] + [results[(m, nr)].sync_ratio * 100 for m in ("homeo", "opt")]
        for nr in REPLICAS
    ]
    print_table(
        "Figure 15: synchronization ratio vs replicas (%)",
        ["Nr", "homeo", "opt"],
        rows,
    )

    assert_monotone(
        [results[("homeo", nr)].sync_ratio for nr in REPLICAS],
        increasing=True, label="homeo sync ratio vs Nr", tolerance=0.20,
    )
    assert_monotone(
        [results[("opt", nr)].sync_ratio for nr in REPLICAS],
        increasing=True, label="opt sync ratio vs Nr", tolerance=0.20,
    )
    # Still single-digit percentages at every replica count.
    for nr in REPLICAS:
        assert results[("homeo", nr)].sync_ratio < 0.15
