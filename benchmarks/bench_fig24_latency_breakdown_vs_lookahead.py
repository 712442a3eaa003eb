"""Figure 24: latency breakdown of violating transactions vs lookahead L.

Paper's shape (Appendix F.1): for transactions that trigger a treaty
negotiation, total latency decomposes into local execution
(negligible), communication (~2 RTT, constant) and solver time
(growing with the lookahead interval L, since Algorithm 1 simulates
f executions of length L and solves a larger MaxSAT instance).
"""

from _common import MICRO_ITEMS, MICRO_TXNS, assert_monotone, once, print_table

from repro.sim.experiments import run
from repro.workloads.micro import MicroWorkload

LOOKAHEADS = (10, 50, 100)


def _run_all():
    return {
        l: run(
            "homeo",
            MicroWorkload(num_items=MICRO_ITEMS, initial_qty="random"),
            lookahead=l,
            rtt_ms=100.0,
            max_txns=MICRO_TXNS,
        )
        for l in LOOKAHEADS
    }


def test_fig24_latency_breakdown_vs_lookahead(benchmark):
    results = once(benchmark, _run_all)

    rows = []
    for l in LOOKAHEADS:
        b = results[l].breakdown_means()
        rows.append([l, b["local"], b["comm"], b["solver"]])
    print_table(
        "Figure 24: violating-transaction latency breakdown vs L (ms)",
        ["L", "local", "comm", "solver"],
        rows,
    )

    # Local is negligible next to comm and solver (the paper notes the
    # local bars do not even appear in the figure).
    for l in LOOKAHEADS:
        b = results[l].breakdown_means()
        assert b["local"] < b["comm"] / 10
        assert b["comm"] >= 190.0  # ~2 RTT at 100 ms
    # Solver time grows with L.
    assert_monotone(
        [results[l].breakdown_means()["solver"] for l in LOOKAHEADS],
        increasing=True, label="solver time vs L",
    )
