"""Availability under site crashes: homeostasis vs 2PC.

Gray & Lamport's *Consensus on Transaction Commit* observation, made
measurable: two-phase commit needs every replica for every commit, so
one crashed site takes the whole cluster's availability to ~0 for the
duration of the outage.  The homeostasis protocol only coordinates
when a treaty is violated, so a crash blocks exactly (a) transactions
homed at the crashed site and (b) violations whose participant
closure includes it -- every other transaction keeps committing on
its local treaty, and the crashed site rejoins by replaying its
treaty WAL and re-syncing its factor state.

Three tables: the micro sweep over the outage duration (the
availability gap widens with the outage), the crash-*rate* sweep
(repeated crash/recover cycles, each exercising WAL replay + rejoin),
and the TPC-C point (Table 1 RTTs).
"""

from _common import print_table
from scenarios import (
    CRASH_AT_MS,
    FAULTS,
    OUTAGE_MS,
    Point,
    assert_gates,
    availability_block,
)

from repro.sim.network import rtt_matrix_for
from repro.sim.runner import crash_schedule
from repro.workloads.tpcc import TpccWorkload

OUTAGE_SWEEP_MS = (1_000.0, 3_000.0, 6_000.0)

#: the gated crash schedule on the TPC-C subset (Table 1 RTTs)
TPCC = Point(
    TpccWorkload,
    dict(items_per_district=40, num_sites=3),
    {**FAULTS.config, "rtt_matrix": rtt_matrix_for(3), "cores_per_replica": 16},
)

CYCLES_SWEEP = (1, 2, 3)


def _outage_run(mode, outage_ms, cycles=1, **run):
    """The gated crash schedule with an ``outage_ms`` outage repeated
    ``cycles`` times, on a longer run so the longest outage fits."""
    return FAULTS.run(
        mode,
        duration_ms=9_000.0,
        fault_events=crash_schedule(1, CRASH_AT_MS, outage_ms, cycles, 1_200.0),
        **run,
    )


def _window(outage_ms):
    return CRASH_AT_MS, CRASH_AT_MS + outage_ms


def _run_sweep():
    outage = {
        ms: {mode: _outage_run(mode, ms) for mode in ("homeo", "2pc")}
        for ms in OUTAGE_SWEEP_MS
    }
    cycles = {
        n: _outage_run("homeo", 1_200.0, cycles=n, validate=True) for n in CYCLES_SWEEP
    }
    tpcc = {mode: TPCC.run(mode) for mode in ("homeo", "2pc")}
    return outage, cycles, tpcc


def test_faults(benchmark):
    outage, cycles, tpcc = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)

    rows = []
    for ms, runs in outage.items():
        h, p = runs["homeo"], runs["2pc"]
        t0, t1 = _window(ms)
        rows.append([
            ms,
            h.availability,
            h.availability_between(t0, t1),
            p.availability,
            p.availability_between(t0, t1),
            h.recoveries,
        ])
    print_table(
        "Availability vs outage duration (micro, one crash of site 1)",
        ["outage (ms)", "homeo avail", "homeo (window)",
         "2pc avail", "2pc (window)", "recoveries"],
        rows,
    )

    print_table(
        "Availability vs crash rate (micro, homeo, repeated 1.2s outages)",
        ["cycles", "avail", "timeouts", "recoveries", "recovery cost (ms)"],
        [
            [n, r.availability, r.timeouts, r.recoveries, r.recovery_ms]
            for n, r in cycles.items()
        ],
    )

    th, tp = tpcc["homeo"], tpcc["2pc"]
    t0, t1 = _window(OUTAGE_MS)
    print_table(
        "Availability under one crash (TPC-C, Table 1 RTTs)",
        ["mode", "avail", "avail (window)", "txns", "failed"],
        [
            ["homeo", th.availability, th.availability_between(t0, t1),
             th.committed, th.failed],
            ["2pc", tp.availability, tp.availability_between(t0, t1),
             tp.committed, tp.failed],
        ],
    )

    # The headline claim at every point: homeostasis keeps committing
    # on the surviving sites while 2PC blocks for the whole outage.
    for ms, runs in outage.items():
        block = availability_block(runs["homeo"], runs["2pc"], CRASH_AT_MS, ms)
        assert_gates("faults", "fault_gate", block)
    w0, w1 = _window(OUTAGE_MS)
    assert th.availability_between(w0, w1) > tp.availability_between(w0, w1)
    # Longer outages hurt overall availability more under 2PC than
    # under homeostasis (the gap widens with the outage).
    gaps = [
        outage[ms]["homeo"].availability - outage[ms]["2pc"].availability
        for ms in OUTAGE_SWEEP_MS
    ]
    assert gaps[-1] > gaps[0], f"availability gap did not widen: {gaps}"
    # Every cycle recovered: as many rejoin rounds as scheduled crashes,
    # run under validate mode (H1/H2 + identical WAL-replayed treaty).
    for n, r in cycles.items():
        assert r.recoveries == n
