"""What a round costs does not grow with the treaty.

A negotiation over one item re-derives that item's clauses; the other
items' clauses, templates, configuration rows and local constraints
ride through untouched (docs/ARCHITECTURE.md, "What a round costs").
Timing is too noisy to hold that to, so this guard counts the work
itself: across one single-item negotiation, the number of object names
split, row shapes bound, linear expressions normalized and clause
templates built is the same whether the treaty covers 50 items or 400
-- and so, at the sites that install the round's treaty, is the number
of clauses read from the store, lowered to escrow rows and encoded into
the WAL, and the size of the record each site appends.

Under ``optimized`` the same holds of Algorithm 1's share: a round
solves one budget instance per distinct clause it configures, however
many ground instances carry that clause, and replays its sampled
futures without walking an AST.
"""

import json

import repro.lang.interp as interp_module
import repro.logic.compile as compile_module
import repro.protocol.homeostasis as homeostasis_module
import repro.protocol.site as site_module
import repro.storage.wal as wal_module
import repro.treaty.optimize as optimize_module
from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.linearize import LinearizedTreaty
from repro.logic.terms import parse_ground_name
from repro.treaty.templates import ClauseTemplate
from repro.workloads.micro import MicroWorkload
from repro.workloads.tpcc import TpccWorkload


class _Calls:
    """Counts calls to a callable it stands in for."""

    def __init__(self, fn):
        self.fn, self.count = fn, 0

    def __call__(self, *args, **kwargs):
        self.count += 1
        return self.fn(*args, **kwargs)


def _one_round_cost(num_items, monkeypatch):
    """Work done by the first negotiation a lone hot item triggers."""
    workload = MicroWorkload(num_items=num_items, refill=40, num_sites=2)
    cluster = workload.build_homeostasis(strategy="equal-split")
    make = _Calls(LinearExpr.make)
    init = _Calls(ClauseTemplate.__init__)
    bind = _Calls(LinearizedTreaty.rebound)
    monkeypatch.setattr(LinearExpr, "make", staticmethod(make))
    monkeypatch.setattr(
        LinearizedTreaty, "rebound", lambda self, *a, **kw: bind(self, *a, **kw)
    )
    monkeypatch.setattr(
        ClauseTemplate, "__init__", lambda self, *a, **kw: init(self, *a, **kw)
    )
    # The site side: store walks (a clause's slack, an escrow row's),
    # clauses lowered, clauses encoded.
    slack = _Calls(LinearConstraint.slack)
    lower = _Calls(site_module.lower_clause)
    encode = _Calls(wal_module._encode_clause)
    monkeypatch.setattr(
        LinearConstraint, "slack", lambda self, getobj: slack(self, getobj)
    )
    monkeypatch.setattr(site_module, "lower_clause", lower)
    monkeypatch.setattr(wal_module, "_encode_clause", encode)

    def counts():
        names = parse_ground_name.cache_info()
        return (
            names.hits + names.misses,
            bind.count,
            make.count,
            init.count,
            slack.count,
            lower.count,
            encode.count,
        )

    item = num_items // 2  # mid-treaty: clauses before it and after it
    for _ in range(200):
        cost = counts()
        logged = {sid: s.wal.size_bytes() for sid, s in cluster.sites.items()}
        result = cluster.submit("Buy@s0", {"item": item})
        if result.synced:
            after = counts()
            assert cluster.stats.negotiations == 1
            out = dict(
                zip(
                    (
                        "parse_ground_name",
                        "shape binds",
                        "LinearExpr.make",
                        "ClauseTemplate",
                        "store walks",
                        "clauses lowered",
                        "clauses encoded",
                    ),
                    (b - a for a, b in zip(cost, after)),
                )
            )
            # The round's install record at each site (its origin also
            # logs the decision, a ``paxos_accept``).
            records = {
                sid: [
                    record
                    for record in map(
                        json.loads, bytes(s.wal._buf[logged[sid] :]).splitlines()
                    )
                    if record["kind"].startswith("treaty_")
                ]
                for sid, s in cluster.sites.items()
            }
            return out, records
    raise AssertionError("the hot item never exhausted its budget")


def test_single_item_negotiation_costs_the_same_at_any_treaty_size(monkeypatch):
    small, small_records = _one_round_cost(50, monkeypatch)
    large, large_records = _one_round_cost(400, monkeypatch)
    # Not vacuous: the round did re-bind the item's clauses (their
    # shapes were derived at bootstrap, so it normalizes nothing anew),
    # and its sites did read, lower and log the clauses that changed.
    assert small["shape binds"] > 0 and small["parse_ground_name"] > 0
    for site_side in ("store walks", "clauses lowered", "clauses encoded"):
        assert small[site_side] > 0
    assert large == small
    # Each site appended one delta record listing the same number of
    # removed and added clauses and changed grants; only the positions
    # they name are longer numbers in the larger treaty.
    for sid, (record,) in small_records.items():
        (twin,) = large_records[sid]
        assert record["kind"] == twin["kind"] == "treaty_delta"
        entries = 0
        for part in ("removed", "added", "headroom"):
            assert len(record[part]) == len(twin[part]) > 0
            entries += len(record[part])
        assert ("paths" in record) == ("paths" in twin)
        small_size, large_size = (
            len(json.dumps(r, sort_keys=True, separators=(",", ":")))
            for r in (record, twin)
        )
        assert 0 <= large_size - small_size <= 2 * entries


def test_optimized_new_order_round_solves_each_distinct_clause_once(monkeypatch):
    """One ``optimized`` TPC-C negotiation a New Order triggers: the
    recomputed instances of the item carry a handful of distinct stock
    clauses (one per quantity), each solved once, and sampling never
    enters the interpreter."""
    workload = TpccWorkload(
        num_warehouses=1,
        num_districts=2,
        items_per_district=4,
        num_customers=4,
        num_sites=2,
        hotness=30,
        initial_stock=14,
    )
    cluster = workload.build_homeostasis(strategy="optimized")
    generator = cluster.generator
    solves = _Calls(optimize_module.solve_budget_allocation)
    interpreted = _Calls(interp_module.execute)
    monkeypatch.setattr(optimize_module, "solve_budget_allocation", solves)
    monkeypatch.setattr(interp_module, "execute", interpreted)
    monkeypatch.setattr(compile_module, "execute", interpreted)
    monkeypatch.setattr(optimize_module, "execute", interpreted)
    configured = []
    configure = homeostasis_module.configure_from_samples

    def spy(templates, getobj, futures, engine="fast"):
        configured.append(templates)
        return configure(templates, getobj, futures, engine)

    monkeypatch.setattr(homeostasis_module, "configure_from_samples", spy)
    for _ in range(100):
        result = cluster.submit("NewOrder@s0", {"w": 0, "d": 0, "item": 1, "qty": 3})
        if result.synced:
            break
    else:
        raise AssertionError("the item never exhausted its stock budget")
    assert cluster.stats.negotiations == 1 and generator._futures is not None
    distinct = {
        optimize_module._content(clause)
        for templates in configured
        for clause in templates.clauses
        if clause.op == "<="
    }
    # Not vacuous: the item's instances share clauses (2 districts x
    # 2 origins x 5 quantities over one stock expression).
    assert 0 < len(distinct) < len(configured)
    assert solves.count == len(distinct)
    assert generator._futures.sampled and interpreted.count == 0
