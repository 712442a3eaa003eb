"""Figures 25-26: lookahead L against REFILL (Appendix F.1) -- one
sweep, read as throughput and sync ratio."""

from _common import MICRO_TXNS, assert_factor, once, print_table

from repro.sim.experiments import run
from repro.workloads.micro import MicroWorkload

LOOKAHEADS = (20, 100)
REFILLS = (10, 100, 1000)


def _point(refill, l):
    workload = MicroWorkload(num_items=150, refill=refill, initial_qty="random")
    return run("homeo", workload, lookahead=l, rtt_ms=100.0, max_txns=MICRO_TXNS)


def _sweep(run_once):
    return {
        (refill, l): run_once(_point, refill, l)
        for refill in REFILLS
        for l in LOOKAHEADS
    }


def test_fig25_throughput_vs_lookahead(benchmark, run_once):
    """Figure 25: throughput vs lookahead L for different REFILL values.

    Paper's shape (Appendix F.1): larger REFILL gives each item more
    slack, hence more flexible treaties, fewer violations and higher
    throughput -- rf1000 > rf100 > rf10 across lookahead settings.
    """
    results = once(benchmark, lambda: _sweep(run_once))

    rows = [
        [l] + [results[(refill, l)].throughput_per_replica() for refill in REFILLS]
        for l in LOOKAHEADS
    ]
    print_table(
        "Figure 25: throughput per replica vs L (txn/s)",
        ["L", "rf10", "rf100", "rf1000"],
        rows,
    )

    for l in LOOKAHEADS:
        rf10 = results[(10, l)].throughput_per_replica()
        rf1000 = results[(1000, l)].throughput_per_replica()
        assert_factor(rf1000, rf10, 1.5, f"rf1000 vs rf10 at L={l}")


def test_fig26_syncratio_vs_lookahead(benchmark, run_once):
    """Figure 26: synchronization ratio vs lookahead L for REFILL values.

    Paper's shape (Appendix F.1): the synchronization ratio is dominated
    by REFILL (rf10 violates an order of magnitude more often than
    rf1000); larger lookahead finds better treaties, weakly reducing the
    ratio.
    """
    results = once(benchmark, lambda: _sweep(run_once))

    rows = [
        [l] + [results[(refill, l)].sync_ratio * 100 for refill in REFILLS]
        for l in LOOKAHEADS
    ]
    print_table(
        "Figure 26: synchronization ratio vs L (%)",
        ["L", "rf10", "rf100", "rf1000"],
        rows,
    )

    for l in LOOKAHEADS:
        rf10 = results[(10, l)].sync_ratio
        rf100 = results[(100, l)].sync_ratio
        rf1000 = results[(1000, l)].sync_ratio
        # Ordering: more slack, fewer violations.
        assert rf10 > rf100 > rf1000 > 0.0, (
            f"L={l}: expected rf10 > rf100 > rf1000, got "
            f"{rf10:.2%} / {rf100:.2%} / {rf1000:.2%}"
        )
        assert rf10 > 4 * rf1000
