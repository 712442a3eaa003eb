"""Flash sale: one hot SKU, stock treaty headroom collapsing to zero.

The regime the adaptive-reallocation machinery was built for, pushed
to its worst case: 90% of checkouts hammer one SKU, so the static
equal split strands half the remaining stock on the cold site while
the hot site pays a sync round per exhausted budget.  The sweep
raises the hot fraction and compares static vs adaptive allocation;
the sell-out audit then drives 3x the hot stock in checkouts and
demands the protocol's signature property at the boundary: the SKU
ends exactly at zero -- sold out, never oversold -- however the
treaty splits moved.
"""

from _common import print_table
from scenarios import FLASHSALE, assert_gates, sellout_audit

HOT_SWEEP = (0.5, 0.7, 0.9)


def _run_sweep():
    # the gated point at a smaller run size, swept up to its hot fraction
    sweep = {
        hot: {
            mode: FLASHSALE.but(hot_fraction=hot).run(mode, max_txns=1_200)
            for mode in ("static", "adaptive")
        }
        for hot in HOT_SWEEP
    }
    return sweep, sellout_audit()


def test_flashsale(benchmark):
    sweep, sellout = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)

    rows = []
    for hot, runs in sweep.items():
        static, adaptive = runs["static"], runs["adaptive"]
        rows.append([
            hot,
            static.sync_ratio,
            adaptive.sync_ratio,
            adaptive.rebalance_ratio,
            static.total_throughput(),
            adaptive.total_throughput(),
        ])
    print_table(
        "Flash sale: static vs adaptive sync ratio vs hot fraction",
        ["hot frac", "static sync", "adaptive sync", "adaptive reb",
         "static txn/s", "adaptive txn/s"],
        rows,
    )
    print_table(
        "Sell-out audit (3x hot stock in checkouts)",
        ["hot stock", "remaining", "sold out", "oversold", "min stock",
         "sync ratio"],
        [[sellout["hot_stock"], sellout["hot_remaining"],
          sellout["sold_out"], sellout["oversold_units"],
          sellout["min_stock"], sellout["sync_ratio"]]],
    )

    # Contention must *cost* something: the hot point pays more
    # coordination than the mild one under static allocation.
    static_syncs = [sweep[h]["static"].sync_ratio for h in HOT_SWEEP]
    assert static_syncs[-1] > static_syncs[0], (
        f"hot skew did not raise static sync ratio: {static_syncs}"
    )
    # The headline: at the hottest point, adaptive allocation beats
    # the static split, honestly (counting proactive refreshes too).
    hot = sweep[HOT_SWEEP[-1]]
    assert (
        hot["adaptive"].sync_ratio + hot["adaptive"].rebalance_ratio
        < hot["static"].sync_ratio
    ), "adaptive did not beat static at the hot point"
    # The boundary property, independent of allocation: sold out,
    # never oversold.
    assert_gates("flashsale", "flashsale_gate", sellout)
