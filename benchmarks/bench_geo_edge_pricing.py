"""Per-edge negotiation pricing on a geo-partitioned deployment.

Five replicas on the Table 1 RTT matrix (UE, UW, IE, SG, BR), with
the item space split into replication groups (0,1), (2,3) and (0,4).
Under the flat pricing model every violation would pay the cluster
diameter 2 x 372 ms (SG<->BR); with participant-scoped rounds priced
from the transport trace a group's violation pays only its own
slowest internal edge:

    group (0,1)  UE<->UW  2 x  64 ms
    group (2,3)  IE<->SG  2 x 285 ms
    group (0,4)  UE<->BR  2 x 164 ms

so the negotiation tail of the cheap groups collapses by ~6x and the
mean violating latency drops well below the flat-model bound.
"""

from _common import once, print_table
from scenarios import GEO

from repro.sim.network import max_rtt, participants_rtt, rtt_matrix_for

GROUPS = GEO.spec["groups"]


def _run():
    # The gated point at a longer run.
    return GEO.run("homeo", max_txns=2_000)


def test_geo_edge_pricing(benchmark):
    res = once(benchmark, _run)
    matrix = rtt_matrix_for(5)
    flat_cost = 2.0 * max_rtt(matrix)  # what the old model charged

    rows = []
    for gid, members in enumerate(GROUPS):
        synced = [
            r for r in res.records
            if r.kind == "sync" and r.family == f"Buy{gid}"
        ]
        if not synced:
            continue
        scoped = 2.0 * participants_rtt(matrix, members)
        mean_comm = sum(r.comm_ms for r in synced) / len(synced)
        rows.append([f"group {members}", len(synced), scoped, mean_comm, flat_cost])
    print_table(
        "Geo deployment: negotiation cost per replication group (ms)",
        ["group", "negotiations", "2x group edge", "mean comm", "flat model"],
        rows,
    )
    print("participant histogram:", res.participant_histogram())

    synced = [r for r in res.records if r.kind == "sync"]
    assert synced, "expected some negotiations"
    # Every negotiation is priced at most at its group edge bound...
    group_bound = {
        f"Buy{gid}": 2.0 * participants_rtt(matrix, members)
        for gid, members in enumerate(GROUPS)
    }
    for r in synced:
        # A violation may drag in extra sites through shared dirty
        # state (site 0 is in two groups), but never the whole
        # cluster's worst edge unless those sites are truly involved.
        assert r.comm_ms <= flat_cost
        assert r.comm_ms >= group_bound[r.family] or r.participants
    # ...and the cheap group's violations beat the flat model by >4x.
    cheap = [r for r in synced if r.family == "Buy0" and len(r.participants) == 2]
    assert cheap, "expected scoped (0,1) negotiations"
    for r in cheap:
        assert r.comm_ms == 2.0 * 64.0
    assert flat_cost / (2.0 * 64.0) > 4.0
