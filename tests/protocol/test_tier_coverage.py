"""Every check kind fires somewhere, or it should not exist.

The static tier's kinds (``repro.analysis.pathsplit.CHECK_KINDS``) each
cost a branch in ``SiteServer.execute`` and a concept in the docs.  This
guard runs the six cluster workloads and fails when a kind is never
installed, or installed and never executed, anywhere in the fleet -- so
a tier that stops firing (or a new one that never did) is a red test,
not a finding in the next audit (docs/AUDIT.md).

The ``full`` kind has one dynamic check behind it, the site's escrow
account, because treaty generation only emits clauses the account can
carry; the same fleet guards that too.
"""

import random

import pytest

from repro.analysis.pathsplit import CHECK_KINDS
from repro.logic.compile import lower_to_escrow
from repro.workloads import (
    BankingWorkload,
    FlashSaleWorkload,
    GeoMicroWorkload,
    MicroWorkload,
    QuotaWorkload,
    TpccWorkload,
)

FLEET = {
    "micro": lambda: MicroWorkload(
        num_items=6, refill=9, num_sites=3, audit_fraction=0.2
    ),
    "geo": lambda: GeoMicroWorkload(
        groups=((0, 1), (2, 3)), num_sites=4, items_per_group=3, refill=10
    ),
    "flash-sale": lambda: FlashSaleWorkload(
        num_skus=4, hot_stock=25, cold_stock=12, peek_fraction=0.1
    ),
    "banking": lambda: BankingWorkload(
        num_accounts=4, initial_balance=12, audit_fraction=0.1
    ),
    "quota": lambda: QuotaWorkload(num_tenants=4, limit=8, usage_fraction=0.1),
    "tpcc": lambda: TpccWorkload(
        num_warehouses=1,
        num_districts=1,
        items_per_district=4,
        num_customers=3,
        num_sites=2,
        hotness=30,
        initial_stock=12,
    ),
}


@pytest.fixture(scope="module")
def fleet():
    """name -> (kinds installed at any site, cluster-wide check counters,
    the cluster) after 150 requests."""
    out = {}
    for name, make in FLEET.items():
        workload = make()
        cluster = workload.build_homeostasis()
        rng = random.Random(5)
        for _ in range(150):
            request = workload.next_request(rng)
            cluster.submit(request.tx_name, request.params)
        installed = {
            check.kind
            for server in cluster.sites.values()
            for checks in server.path_checks.values()
            for check in checks
        }
        out[name] = installed, cluster.classifier_stats(), cluster
    return out


@pytest.mark.parametrize("name", sorted(FLEET))
def test_kinds_account_for_every_check(fleet, name):
    installed, stats, _cluster = fleet[name]
    assert installed <= set(CHECK_KINDS)
    assert stats["checked"] > 0
    assert sum(stats[kind] for kind in CHECK_KINDS) == stats["checked"]


@pytest.mark.parametrize("kind", CHECK_KINDS)
def test_every_kind_is_installed_and_executed(fleet, kind):
    installed_in = [name for name, (kinds, _, _) in fleet.items() if kind in kinds]
    executed_in = [name for name, (_, stats, _) in fleet.items() if stats[kind]]
    assert installed_in, f"no workload installs a {kind!r} check"
    assert executed_in, f"{kind!r} is installed but never executed"


@pytest.mark.parametrize("name", sorted(FLEET))
def test_every_treaty_lowers_to_the_escrow_account(fleet, name):
    """Every treaty-bearing site holds an escrow account enforcing the
    lowering of its treaty: ``lower_to_escrow`` raises on a clause the
    account cannot carry, so this fails the day treaty generation
    emits one."""
    _installed, _stats, cluster = fleet[name]
    bearing = [s for s in cluster.sites.values() if s.local_treaty is not None]
    assert bearing
    for server in bearing:
        assert server.escrow is not None
        program = lower_to_escrow(server.local_treaty.constraints)
        held = [row for row in server.escrow.program.rows if row is not None]
        assert sorted(map(repr, held)) == sorted(map(repr, program.rows))
