"""Racing violators under the concurrent cleanup runtime.

Sweeps the racing-violator rate by shrinking the item population
(hotter items -> more transactions violating the same treaty inside
one arrival window).  For each point the kernel's *real* vote phase
resolves the races: contenders exchange Vote/VoteReply messages, one
wins per conflict group, losers re-run after the winner's treaty
installs -- so the lost-vote queueing (``wait_ms``) and the aborted
attempt counts come from actual elections, not from the per-key
negotiation gate that queues racing violators when ``window_ms == 0``.

The second table shows the geo-partitioned deployment: replication
groups (0,1) and (2,3) violate in the same windows, their conflict
groups have disjoint participant closures, and their negotiations'
transport rounds overlap instead of serializing (parallel waves).
"""

from _common import once, print_table
from scenarios import CONTENTION

from repro.workloads.geo import GeoMicroWorkload

ITEM_SWEEP = (6, 12, 48)


def _point(num_items):
    """The gated uniform-load point with scarcer stock and a longer
    run, at ``num_items``."""
    return CONTENTION.but(num_items=num_items, refill=20).run("homeo", max_txns=1_200)


def _run_sweep():
    sweep = {n: _point(n) for n in ITEM_SWEEP}
    # Kernel-level parallel-wave demo on the geo deployment.
    workload = GeoMicroWorkload(
        groups=((0, 1), (2, 3)), num_sites=4, items_per_group=2, refill=4
    )
    cluster = workload.build_homeostasis(strategy="equal-split")
    window = [(f"Buy0@s{s}", {"item": 0}) for s in (0, 1, 0, 1)]
    window += [(f"Buy1@s{s}", {"item": 0}) for s in (2, 3, 2, 3)]
    window_result = cluster.submit_window(window)
    return sweep, cluster, window_result


def test_contention_races(benchmark):
    sweep, cluster, window_result = once(benchmark, _run_sweep)

    rows = []
    for n, res in sweep.items():
        synced = [r for r in res.records if r.kind == "sync"]
        contested = [r for r in synced if r.vote_ms > 0]
        losers = [r for r in res.records if r.retries > 0]
        mean_loser_wait = (
            sum(r.wait_ms for r in losers) / len(losers) if losers else 0.0
        )
        rows.append([
            n, len(synced), len(contested), res.aborted_attempts,
            mean_loser_wait, res.latency_stats().p99,
        ])
    print_table(
        "Racing violators vs item population (homeo, 10 ms windows)",
        ["items", "negotiations", "contested", "lost votes",
         "mean loser wait", "p99 (ms)"],
        rows,
    )

    wave_rows = []
    negs = {n.index: n for n in cluster.transport.negotiations}
    for wave_index, groups in enumerate(window_result.waves):
        overlapping = 0
        for i, a in enumerate(groups):
            for b in groups[i + 1:]:
                if negs[a.negotiation_index].overlaps(negs[b.negotiation_index]):
                    overlapping += 1
        wave_rows.append([
            wave_index, len(groups),
            ", ".join(str(g.scope) for g in groups), overlapping,
        ])
    print_table(
        "Geo window: conflict groups per wave (disjoint closures run in parallel)",
        ["wave", "groups", "scopes", "overlapping pairs"],
        wave_rows,
    )

    # Shape: hotter items -> more lost votes, monotonically.
    lost = [sweep[n].aborted_attempts for n in ITEM_SWEEP]
    assert lost[0] > lost[-1], f"expected contention to fall with items: {lost}"
    # The hottest point has real contested elections on the wire.
    hottest = sweep[ITEM_SWEEP[0]]
    assert any(r.vote_ms > 0 for r in hottest.records)
    assert any(r.retries > 0 for r in hottest.records)
    # The geo window resolved >= 2 disjoint groups in its first wave,
    # and their negotiation rounds overlapped (did not serialize).
    first_wave = window_result.waves[0]
    assert len(first_wave) == 2
    a = negs[first_wave[0].negotiation_index]
    b = negs[first_wave[1].negotiation_index]
    assert a.overlaps(b)
    # Determinism of the seeded arbitration order.
    again = _point(ITEM_SWEEP[0])
    assert again.records == sweep[ITEM_SWEEP[0]].records
