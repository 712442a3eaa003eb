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
futures without walking an AST.  Ground instances that read the
database alike are one piece class: a round computes one piece per
stale class, and the bootstrap derives one row shape per class.

No execution on the live path walks one either: the clean commit, the
cleanup run T' and every LOCAL and 2PC transaction run compiled
closures, and the interpreter is only the reference validate mode
holds them to.
"""

import json
import random
import sys

import pytest

import repro.lang.interp as interp_module
import repro.logic.compile as compile_module
import repro.protocol.homeostasis as homeostasis_module
import repro.protocol.site as site_module
import repro.storage.wal as wal_module
import repro.treaty.optimize as optimize_module
from repro.logic.formula import Cmp
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


def _small_tpcc():
    return TpccWorkload(
        num_warehouses=1,
        num_districts=2,
        items_per_district=4,
        num_customers=4,
        num_sites=2,
        hotness=30,
        initial_stock=14,
    )


def test_optimized_new_order_round_solves_each_distinct_clause_once(monkeypatch):
    """One ``optimized`` TPC-C negotiation a New Order triggers: the
    recomputed instances of the item carry a handful of distinct stock
    clauses (one per quantity), each solved once, and sampling never
    enters the interpreter."""
    workload = _small_tpcc()
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


def test_optimized_new_order_round_computes_one_piece_per_stale_class(monkeypatch):
    """The same round computes one piece per stale piece class: the 22
    instances its dirty objects touch -- 2 origins x 2 districts x 5
    quantities of the item's New Order, and the district's Delivery at
    each site -- fall into 7 classes (one per quantity, and each
    Delivery alone), and it solves 6 budget instances, as many as when
    every instance computed its own piece."""
    cluster = _small_tpcc().build_homeostasis(strategy="optimized")
    generator = cluster.generator
    solves = _Calls(optimize_module.solve_budget_allocation)
    monkeypatch.setattr(optimize_module, "solve_budget_allocation", solves)
    generate, piece = generator.generate, generator._piece
    dirty_sets, pieces = [], []

    def generate_spy(getobj, snapshot, round_number, dirty=None):
        dirty_sets.append(dirty)
        return generate(getobj, snapshot, round_number, dirty)

    def piece_spy(rep, getobj, snapshot):
        pieces.append(rep)
        return piece(rep, getobj, snapshot)

    monkeypatch.setattr(generator, "generate", generate_spy)
    monkeypatch.setattr(generator, "_piece", piece_spy)
    recomputed = generator.instances_recomputed
    for _ in range(100):
        result = cluster.submit("NewOrder@s0", {"w": 0, "d": 0, "item": 1, "qty": 3})
        if result.synced:
            break
    else:
        raise AssertionError("the item never exhausted its stock budget")
    (dirty,) = dirty_sets
    stale = generator._classes_touching(dirty)
    assert sorted(pieces) == sorted(stale) and len(stale) == 7
    touched = generator.instances_touching(dirty)
    assert len(touched) == generator.instances_recomputed - recomputed == 22
    assert solves.count == 6


def test_tpcc_bootstrap_derives_one_row_shape_per_piece_class(monkeypatch):
    """The default TPC-C spec's 2,008 ground instances fall into 508
    piece classes (a New Order of one warehouse, item and quantity is
    one class in every district and at every site), and the bootstrap
    round derives one row shape per class, not per instance."""
    derive = _Calls(homeostasis_module.TreatyGenerator._derive)
    monkeypatch.setattr(
        homeostasis_module.TreatyGenerator,
        "_derive",
        lambda self, *a: derive(self, *a),
    )
    cluster = TpccWorkload().build_homeostasis(strategy="equal-split")
    generator = cluster.generator
    classes = generator._piece_classes()
    assert (len(classes), len(generator.ground_tables)) == (508, 2008)
    assert derive.count == len(generator._shapes) == 508
    assert generator.instances_recomputed == 2008


def _count_interpreted(monkeypatch):
    """Route every call of the interpreter's ``execute`` -- through
    whichever ``repro`` module imported it -- into one counter."""
    execute = interp_module.execute
    interpreted = _Calls(execute)
    holders = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro.") and getattr(module, "execute", None) is execute
    ]
    assert interp_module in holders
    for module in holders:
        monkeypatch.setattr(module, "execute", interpreted)
    return interpreted


_WORKLOADS = {
    "scarce-micro": lambda: MicroWorkload(
        num_items=16, refill=12, initial_qty="refill"
    ),
    "tpcc": TpccWorkload,
}


@pytest.mark.parametrize("mode", ["equal-split", "optimized", "local", "2pc"])
@pytest.mark.parametrize("name", sorted(_WORKLOADS))
def test_no_execution_walks_the_interpreter(name, mode, monkeypatch):
    """400 seeded requests run no interpreted ``execute``: not in a
    clean commit, not in a cleanup run T' at any participant, not in a
    sampled replay, not in a LOCAL or 2PC transaction."""
    workload = _WORKLOADS[name]()
    if mode == "local":
        cluster = workload.build_local()
    elif mode == "2pc":
        cluster = workload.build_2pc()
    else:
        cluster = workload.build_homeostasis(strategy=mode)
    interpreted = _count_interpreted(monkeypatch)
    rng = random.Random(0)
    for _ in range(400):
        request = workload.next_request(rng)
        cluster.submit(request.tx_name, request.params)
    # Not vacuous: every baseline transaction ran, and homeostasis
    # negotiated, so T' ran at every participant of those rounds.
    if mode in ("local", "2pc"):
        assert cluster.stats.submitted == 400
    else:
        assert cluster.stats.negotiations > 0
    assert interpreted.count == 0


def test_binding_a_row_shape_evaluates_its_guard_once(monkeypatch):
    """Re-binding a cached row shape on a 2-row table: the lookup
    evaluates both guards, and the rebound re-checks only the pinned
    subformulas (none here), not the guard the lookup just matched --
    2 evaluations, not 3.  Validate mode keeps the full re-check."""
    evaluations = {}
    for validate in (False, True):
        workload = MicroWorkload(num_items=1, refill=40, num_sites=2)
        cluster = workload.build_homeostasis(strategy="equal-split", validate=validate)
        generator = cluster.generator
        table = generator.ground_tables[0][0]
        assert len(table) == 2 and len(generator._shapes) == 2
        db = dict(workload.initial_db)

        def getobj(name):
            return db.get(name, 0)

        guard = _Calls(Cmp.evaluate)
        with monkeypatch.context() as patch:
            patch.setattr(Cmp, "evaluate", lambda self, *a, **kw: guard(self, *a, **kw))
            generator._bind(0, getobj)
        evaluations[validate] = guard.count
    assert evaluations == {False: 2, True: 3}
