#!/usr/bin/env python3
"""Performance comparison across execution modes (Section 6.1 in small).

Drives the discrete-event harness over the microbenchmark in all four
modes (homeostasis with Algorithm 1 treaties, OPT/demarcation
equal-split, two-phase commit, uncoordinated LOCAL) and prints a
Figure 10/11-style table: latency percentiles, per-replica throughput
and synchronization ratio.

Run:  python examples/performance_comparison.py
"""

from repro import MicroWorkload, run_experiment

MODES = ("homeo", "opt", "2pc", "local")


def main() -> None:
    print("Microbenchmark, 2 replicas x 16 clients, RTT 100 ms, "
          "150 items, REFILL 100, 2500 transactions per mode\n")
    header = (
        f"{'mode':7s} {'p50':>8s} {'p90':>8s} {'p97':>8s} {'p99':>9s} "
        f"{'tput/replica':>13s} {'sync':>7s}"
    )
    print(header)
    print("-" * len(header))
    rows = {}
    for mode in MODES:
        workload = MicroWorkload(num_items=150, initial_qty="random")
        res = run_experiment(mode, workload, rtt_ms=100.0, max_txns=2_500)
        s = res.latency_stats()
        rows[mode] = res
        print(
            f"{mode:7s} {s.p50:7.1f}ms {s.p90:7.1f}ms {s.p97:7.1f}ms "
            f"{s.p99:8.1f}ms {res.throughput_per_replica():10.0f}/s "
            f"{res.sync_ratio:6.2%}"
        )

    homeo = rows["homeo"].throughput_per_replica()
    two_pc = rows["2pc"].throughput_per_replica()
    local = rows["local"].throughput_per_replica()
    print()
    print("The paper's Section 6.1 story, in miniature:")
    print(f"  - homeostasis median latency is local ({rows['homeo'].latency_stats().p50:.1f} ms)"
          " -- ~97-98% of transactions never communicate;")
    print(f"  - the violating tail pays ~2 RTT + solver "
          f"(p100 = {rows['homeo'].latency_stats().p100:.0f} ms);")
    print(f"  - 2PC pays two round trips on *every* transaction "
          f"(p50 = {rows['2pc'].latency_stats().p50:.0f} ms);")
    print(f"  - throughput: homeostasis is {homeo / two_pc:.0f}x 2PC and "
          f"{homeo / local:.0%} of the uncoordinated ceiling.")


if __name__ == "__main__":
    main()
