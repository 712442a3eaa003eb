"""Banking: cross-site transfers under non-negative-balance treaties.

The coordination-avoidance literature's canonical example: debits
guard against overdraft (treaty-bearing), credits are free after the
Appendix B transform, so most transfers commit locally while 2PC
pays a coordinated round per transaction.  The comparison measures
that gap; the conservation audit then checks the invariant money
cares about most -- the final total equals initial funds plus
deposits *exactly*, and no account ends negative, on a 3-site
cluster where every transfer crossed site-local knowledge.
"""

from _common import print_table
from scenarios import BANKING, assert_gates, conservation_audit


def _run():
    # the gated point at a smaller run size, under both modes
    runs = {mode: BANKING.run(mode, max_txns=1_000) for mode in ("homeo", "2pc")}
    return runs, conservation_audit()


def test_banking(benchmark):
    runs, conservation = benchmark.pedantic(_run, rounds=1, iterations=1)

    homeo, twopc = runs["homeo"], runs["2pc"]
    print_table(
        "Banking transfers: homeostasis vs 2PC",
        ["mode", "txn/s", "sync ratio", "p50 (ms)", "p99 (ms)"],
        [
            [mode, r.total_throughput(), r.sync_ratio,
             r.latency_stats().p50, r.latency_stats().p99]
            for mode, r in runs.items()
        ],
    )
    print_table(
        "Conservation audit (3 sites, 600 requests)",
        ["expected", "final", "conserved", "min balance", "sync ratio"],
        [[conservation["expected_total"], conservation["final_total"],
          conservation["money_conserved"], conservation["min_balance"],
          conservation["sync_ratio"]]],
    )

    # Most transfers must ride the treaty, not a coordinated round.
    assert homeo.sync_ratio < 0.5, (
        f"homeo sync ratio {homeo.sync_ratio:.3f} -- transfers are "
        f"coordinating, not riding treaty headroom"
    )
    # And that avoidance must buy throughput over 2PC.
    assert homeo.total_throughput() > twopc.total_throughput(), (
        f"homeo {homeo.total_throughput():.1f} txn/s did not beat 2PC "
        f"{twopc.total_throughput():.1f}"
    )
    # The invariant: money in == money out, nobody overdrawn.
    assert_gates("banking", "banking_gate", conservation)
