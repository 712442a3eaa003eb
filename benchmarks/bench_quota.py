"""Quota: a multi-tenant rate limiter of many small treaties.

Where the other workloads stress one treaty's headroom, this one
stresses the treaty *table*: every tenant carries its own independent
limit invariant, so the per-commit check scope, the compiled-check
cache, and the install path all scale with tenant count.  The sweep
grows the tenant population and watches checks-per-commit and
throughput; the saturation audit hammers 90% of traffic onto one
tenant and demands the ceiling behaviour exactly -- the tenant
reaches its limit and never passes it.
"""

from _common import print_table
from scenarios import QUOTA, assert_gates, saturation_audit

TENANT_SWEEP = (30, 80, 150)


def _run_sweep():
    # the gated point at a smaller run size, swept up to its tenant count
    sweep = {
        tenants: QUOTA.but(num_tenants=tenants).run("homeo", max_txns=1_200)
        for tenants in TENANT_SWEEP
    }
    return sweep, saturation_audit()


def test_quota(benchmark):
    sweep, saturation = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)

    print_table(
        "Quota: treaty-table scaling with tenant count",
        ["tenants", "txn/s", "sync ratio", "checks/commit", "free ratio"],
        [
            [tenants, r.total_throughput(), r.sync_ratio,
             r.classifier.get("checks_per_commit", 0.0),
             r.classifier.get("free_ratio", 0.0)]
            for tenants, r in sweep.items()
        ],
    )
    print_table(
        "Saturation audit (one tenant hammered, limit 8)",
        ["limit", "max used", "min used", "overruns", "sync ratio"],
        [[saturation["limit"], saturation["max_used"],
          saturation["min_used"], saturation["overrun_violations"],
          saturation["sync_ratio"]]],
    )

    # Tenant treaties are independent: growing the population must not
    # drive the sync ratio toward coordination collapse.
    for tenants, result in sweep.items():
        assert result.sync_ratio < 0.5, (
            f"{tenants} tenants: sync ratio {result.sync_ratio:.3f}"
        )
    # Clause scope scales with the table size (this is the cost the
    # compare_bench checks-per-commit gate holds the line on).
    cpcs = [sweep[t].classifier.get("checks_per_commit", 0.0)
            for t in TENANT_SWEEP]
    assert cpcs == sorted(cpcs), f"checks/commit not monotone: {cpcs}"
    # The ceiling, exactly: saturated but never overrun.
    assert_gates("quota", "quota_gate", saturation)
