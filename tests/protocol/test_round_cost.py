"""What a round costs does not grow with the treaty.

A negotiation over one item re-derives that item's clauses; the other
items' clauses, templates, configuration rows and local constraints
ride through untouched (docs/ARCHITECTURE.md, "What a round costs").
Timing is too noisy to hold that to, so this guard counts the work
itself: across one single-item negotiation, the number of object names
split, row shapes bound, linear expressions normalized and clause
templates built is the same whether the treaty covers 50 items or 400.
"""

from repro.logic.linear import LinearExpr
from repro.logic.linearize import LinearizedTreaty
from repro.logic.terms import parse_ground_name
from repro.treaty.templates import ClauseTemplate
from repro.workloads.micro import MicroWorkload


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
    item = num_items // 2  # mid-treaty: clauses before it and after it
    for _ in range(200):
        names = parse_ground_name.cache_info()
        cost = (names.hits + names.misses, bind.count, make.count, init.count)
        result = cluster.submit("Buy@s0", {"item": item})
        if result.synced:
            names = parse_ground_name.cache_info()
            after = (names.hits + names.misses, bind.count, make.count, init.count)
            assert cluster.stats.negotiations == 1
            return dict(
                zip(
                    (
                        "parse_ground_name",
                        "shape binds",
                        "LinearExpr.make",
                        "ClauseTemplate",
                    ),
                    (b - a for a, b in zip(cost, after)),
                )
            )
    raise AssertionError("the hot item never exhausted its budget")


def test_single_item_negotiation_costs_the_same_at_any_treaty_size(monkeypatch):
    small = _one_round_cost(50, monkeypatch)
    large = _one_round_cost(400, monkeypatch)
    # Not vacuous: the round did re-bind the item's clauses (their
    # shapes were derived at bootstrap, so it normalizes nothing anew).
    assert small["shape binds"] > 0 and small["parse_ground_name"] > 0
    assert large == small
