"""Figure 27: latency CDF vs items ordered per transaction.

Paper's shape (Appendix F.1): ordering more items per transaction
raises the chance that *some* item's treaty is violated, so the CDF's
inflection point (the local/negotiated split) moves down as
items/txn grows from 1 to 5; 2PC's CDF is unaffected by the item
count (network-bound either way).
"""

from _common import MICRO_TXNS, assert_monotone, once, print_table

from repro.sim.experiments import run
from repro.workloads.micro import MicroWorkload

ITEM_COUNTS = (1, 2, 3, 4, 5)


def _point(mode, m):
    workload = MicroWorkload(
        num_items=150, refill=100, items_per_txn=m, initial_qty="random"
    )
    return run(mode, workload, rtt_ms=100.0, max_txns=MICRO_TXNS // 2)


def _run_all():
    out = {("homeo", m): _point("homeo", m) for m in ITEM_COUNTS}
    out.update({("2pc", m): _point("2pc", m) for m in (1, 5)})
    return out


def test_fig27_latency_vs_items(benchmark):
    results = once(benchmark, _run_all)

    # CDF value at 100 ms ~ the fraction of locally-executed txns.
    rows = []
    for m in ITEM_COUNTS:
        res = results[("homeo", m)]
        cdf = dict(res.latency_cdf([10.0, 100.0, 500.0]))
        rows.append([f"homeo-{m}", cdf[10.0], cdf[100.0], cdf[500.0], res.sync_ratio * 100])
    for m in (1, 5):
        res = results[("2pc", m)]
        cdf = dict(res.latency_cdf([10.0, 100.0, 500.0]))
        rows.append([f"2pc-{m}", cdf[10.0], cdf[100.0], cdf[500.0], ""])
    print_table(
        "Figure 27: latency CDF values vs items per transaction",
        ["series", "P(<=10ms)", "P(<=100ms)", "P(<=500ms)", "sync%"],
        rows,
    )

    # The inflection point (fraction under local latency) drops with m.
    assert_monotone(
        [dict(results[("homeo", m)].latency_cdf([100.0]))[100.0] for m in ITEM_COUNTS],
        increasing=False, label="local fraction vs items/txn", tolerance=0.02,
    )
    # Sync ratio grows roughly with the item count.
    assert results[("homeo", 5)].sync_ratio > 2 * results[("homeo", 1)].sync_ratio
    # 2PC's single-item latency sits at its two-RTT floor.  (The
    # paper's 10,000-item population also makes the 5-item 2PC curve
    # collision-free; at our reduced population multi-item 2PC
    # transactions genuinely conflict, so insensitivity is only
    # asserted where the collision probability is still negligible.)
    assert results[("2pc", 1)].latency_stats().p50 >= 190.0
