"""Figures 16-18: the microbenchmark against clients per replica (Nr =
2, RTT = 100 ms) -- one sweep, read as latency, throughput and sync
ratio.

2PC core-accounting note: cores are released while a transaction
blocks on item locks (identically for committing and aborting
waiters).  The seed model pinned a core through the whole lock wait
on the commit path, so at high client counts 2PC conflated phantom
CPU queueing with the real lock-chain queueing.  With the fix the
client-count saturation knee comes from locks and genuine service
demand only: 2PC's high latency percentiles at large client counts
are lower than the seed's (Figure 16), its throughput there slightly
higher because waiting transactions no longer burn server capacity
(Figure 17), and the sync ratio -- a protocol-kernel quantity the CPU
model does not reach -- matches the seed (Figure 18).
"""

from _common import MICRO_ITEMS, MICRO_TXNS, assert_factor, once, print_table

from repro.sim.experiments import run
from repro.workloads.micro import MicroWorkload

CLIENTS = (1, 4, 16, 32, 128)
MODES = ("homeo", "opt", "2pc", "local")


def _point(mode, nc):
    workload = MicroWorkload(num_items=MICRO_ITEMS, initial_qty="random")
    return run(
        mode, workload, rtt_ms=100.0, clients_per_replica=nc, max_txns=MICRO_TXNS
    )


def _sweep(run_once, clients=CLIENTS, modes=MODES):
    return {
        (mode, nc): run_once(_point, mode, nc) for nc in clients for mode in modes
    }


def test_fig16_latency_vs_clients(benchmark, run_once):
    """Figure 16: microbenchmark latency percentiles vs clients per replica.

    Paper's shape (Nr = 2, RTT = 100 ms): latency grows with the client
    count through data/CPU contention, but the profile stays dominated by
    the network split -- homeostasis local vs 2PC's 2-RTT floor.
    """
    results = once(benchmark, lambda: _sweep(run_once, clients=(1, 32)))

    rows = []
    for (mode, nc), res in sorted(results.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        s = res.latency_stats()
        rows.append([f"{mode}-c{nc}", s.p50, s.p90, s.p97, s.p99])
    print_table(
        "Figure 16: latency percentiles vs clients (ms)",
        ["series", "p50", "p90", "p97", "p99"],
        rows,
    )

    for nc in (1, 32):
        assert results[("homeo", nc)].latency_stats().p50 < 12.0
        assert results[("2pc", nc)].latency_stats().p50 >= 180.0
    # Contention: more clients -> higher high-percentile local latency.
    assert (
        results[("local", 32)].latency_stats().p99
        >= results[("local", 1)].latency_stats().p99
    )


def test_fig17_throughput_vs_clients(benchmark, run_once):
    """Figure 17: microbenchmark throughput per replica vs clients.

    Paper's shape: throughput scales with the client count until the
    replica's cores saturate (32 vCPUs in the paper; the local curve
    plateaus or dips around that point), while 2PC scales only linearly
    in clients at a ~2-RTT service time, staying far below.
    """
    results = once(benchmark, lambda: _sweep(run_once))

    rows = [
        [nc] + [results[(m, nc)].throughput_per_replica() for m in MODES]
        for nc in CLIENTS
    ]
    print_table(
        "Figure 17: throughput per replica vs clients (txn/s)",
        ["Nc", "homeo", "opt", "2pc", "local"],
        rows,
    )

    # Scaling at low client counts.
    assert (
        results[("local", 16)].throughput_per_replica()
        > 4 * results[("local", 1)].throughput_per_replica()
    )
    # Core saturation: going 32 -> 128 clients must not quadruple
    # throughput (the Figure 17 plateau).
    t32 = results[("local", 32)].throughput_per_replica()
    t128 = results[("local", 128)].throughput_per_replica()
    assert t128 < 2.5 * t32
    # 2PC is network-bound at every client count.
    for nc in (16, 32):
        assert_factor(
            results[("homeo", nc)].throughput_per_replica(),
            results[("2pc", nc)].throughput_per_replica(),
            8.0,
            f"homeo vs 2pc at Nc={nc}",
        )


def test_fig18_syncratio_vs_clients(benchmark, run_once):
    """Figure 18: synchronization ratio vs clients per replica.

    Paper's shape: the ratio stays in the low single digits across 1-128
    clients (it is governed by stock consumption per item, not by client
    parallelism), with homeostasis tracking OPT.
    """
    clients = (1, 16, 128)
    results = once(
        benchmark, lambda: _sweep(run_once, clients, modes=("homeo", "opt"))
    )

    rows = [
        [nc] + [results[(m, nc)].sync_ratio * 100 for m in ("homeo", "opt")]
        for nc in clients
    ]
    print_table(
        "Figure 18: synchronization ratio vs clients (%)",
        ["Nc", "homeo", "opt"],
        rows,
    )

    for nc in clients:
        homeo = results[("homeo", nc)].sync_ratio
        opt = results[("opt", nc)].sync_ratio
        assert 0.0 < homeo < 0.10
        assert 0.0 < opt < 0.10
        assert 0.4 <= homeo / opt <= 2.5
