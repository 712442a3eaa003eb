#!/usr/bin/env python3
"""Starvation-free arbitration under skewed contention.

Runs the racing-violator experiment at a skewed contention point
(Zipf-distributed client population, every within-window race a true
timestamp tie) under both arbitration policies of the negotiation
facade:

- ``priority`` — the legacy ordering; ties fall through to the site
  id, so low-numbered sites win every election and a hot cluster
  starves the rest;
- ``credit``   — each lost election accrues a capped priority credit
  bid ahead of the site id, bounding any site's consecutive losses.

Prints the per-policy fairness ledger (``SimResult.fairness``): max
consecutive losses, per-site win/loss counts and wait percentiles.
See docs/FAIRNESS.md for the metric definitions and the CI gate over
the same point.

Run:  python examples/fairness_arbitration.py
"""

from repro import MicroWorkload, NegotiationSpec, run_experiment


def main() -> None:
    print("Racing violators: 4 replicas, Zipf(2.0) client skew, "
          "12 hot items, 800 transactions per policy\n")
    for policy in ("priority", "credit"):
        result = run_experiment(
            "homeo",
            MicroWorkload(num_items=12, refill=40, num_sites=4, initial_qty="random"),
            negotiation=NegotiationSpec(policy=policy),
            # 32 clients by Zipf(2.0) weights over the replicas
            clients_per_replica=(21, 6, 3, 2),
            window_ms=10.0,
            max_txns=800,
            # Quantize vote timestamps into one shared window so every
            # race is a genuine tie -- the regime the tiebreak decides.
            clock_quantum_ms=1e6,
        )
        fairness = result.fairness
        print(f"policy={policy}: {fairness['elections']} contested "
              f"elections, max consecutive losses "
              f"{fairness['max_consecutive_losses']}")
        for site, row in sorted(fairness["per_site"].items()):
            print(f"  site {site}: {row['wins']:4d} wins "
                  f"{row['losses']:4d} losses  worst streak "
                  f"{row['max_consecutive_losses']:2d}  "
                  f"wait p99 {row['wait_p99']:.0f}")
        print()
    print("The credit policy's budget bounds every site's losing "
          "streak; the site-id tiebreak does not.")


if __name__ == "__main__":
    main()
