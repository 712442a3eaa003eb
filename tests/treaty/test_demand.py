"""Properties of the demand-weighted configuration (adaptive
reallocation).

The rebalance invariants the adaptive subsystem rests on:

- :func:`repro.treaty.optimize.demand_split` partitions the slack
  **exactly** for arbitrary demand vectors and floors -- every unit
  allocated, none invented, no site starved below the floor;
- :func:`repro.treaty.optimize.demand_configuration` therefore
  preserves the H1 configuration-sum identity with equality (the
  locals imply the global treaty with zero stranded budget) and H2
  (every local treaty is feasible on the current database), whatever
  the observed rates say;
- the online :class:`repro.protocol.homeostasis.DemandEstimator`
  favors recent writers and decays stale history, and exists only in
  a cluster whose strategy reads it.
"""

import hashlib
import random

from hypothesis import given
from hypothesis import strategies as st

from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.linearize import LinearizedTreaty
from repro.logic.terms import ObjT
from repro.protocol.homeostasis import DemandEstimator
from repro.treaty.config import check_h1_algebraic, check_h2
from repro.treaty.optimize import demand_configuration, demand_split
from repro.treaty.templates import build_templates
from repro.workloads.micro import MicroWorkload

rates = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestDemandSplit:
    @given(
        slack=st.integers(min_value=0, max_value=100_000),
        weights=st.lists(rates, min_size=1, max_size=12),
        floor=st.integers(min_value=0, max_value=64),
    )
    def test_split_is_exact_and_floored(self, slack, weights, floor):
        shares = demand_split(slack, weights, floor)
        assert sum(shares) == slack, "slack must be partitioned exactly"
        effective_floor = min(floor, slack // len(weights))
        for share in shares:
            assert share >= effective_floor >= 0

    @given(
        slack=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=1, max_value=10),
    )
    def test_zero_demand_degrades_to_equal_split(self, slack, count):
        shares = demand_split(slack, [0.0] * count, floor=0)
        assert sum(shares) == slack
        assert max(shares) - min(shares) <= 1

    def test_proportionality_dominates_given_slack(self):
        # Floors first (10 each), the 80-unit remainder split 3:1.
        shares = demand_split(100, [3.0, 1.0], floor=10)
        assert shares == [70, 30]

    def test_deterministic_tiebreak(self):
        assert demand_split(5, [1.0, 1.0, 1.0], 0) == demand_split(
            5, [1.0, 1.0, 1.0], 0
        )


def _templates(db, sites, locate):
    """One <=-clause (sum of everything <= 60) and one equality pin."""
    total = LinearExpr.make({ObjT(name): 1 for name in db})
    constraints = [
        LinearConstraint.make(total, "<=", 60),
        LinearConstraint.make(LinearExpr.variable(ObjT("p")), "=", db["p"]),
    ]
    lin = LinearizedTreaty(constraints=constraints, pinned={ObjT("p")})
    return build_templates(lin, locate, sites)


class TestDemandConfiguration:
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=15), min_size=3, max_size=3
        ),
        demand=st.lists(rates, min_size=4, max_size=4),
        floor=st.integers(min_value=0, max_value=8),
    )
    def test_h1_exact_and_h2_for_arbitrary_demand(self, values, demand, floor):
        db = {"a": values[0], "b": values[1], "c": values[2], "p": 7}
        sites = (0, 1, 2, 3)
        locate = lambda name: {"a": 0, "b": 1, "c": 2, "p": 3}[name]  # noqa: E731
        templates = _templates(db, sites, locate)
        getobj = db.__getitem__
        rate_of = dict(zip("abcp", demand))
        config = demand_configuration(
            templates, getobj, lambda name: rate_of[name], floor=floor
        )
        assert check_h1_algebraic(templates, config)
        assert check_h2(templates, config, getobj)
        # The <=-clause's configuration sums to (K-1)*n with *equality*:
        # the whole slack is allocated, none stranded.
        clause = templates.clauses[0]
        total = sum(config.value(clause.config_var(s)) for s in clause.sites)
        assert total == (len(sites) - 1) * clause.bound

    def test_hot_site_receives_the_larger_share(self):
        db = {"a": 0, "b": 0, "c": 0, "p": 7}
        sites = (0, 1, 2, 3)
        locate = lambda name: {"a": 0, "b": 1, "c": 2, "p": 3}[name]  # noqa: E731
        templates = _templates(db, sites, locate)
        config = demand_configuration(
            templates,
            db.__getitem__,
            {"a": 100.0, "b": 1.0, "c": 1.0, "p": 0.0}.get,
        )
        clause = templates.clauses[0]
        # Headroom of site k is bound - local_sum - c_k; local sums are
        # zero here, so compare the configs directly: the hot site's
        # c_k is the smallest (largest headroom).
        configs = {s: config.value(clause.config_var(s)) for s in sites}
        assert configs[0] == min(configs.values())
        assert configs[0] < configs[1]


class TestDemandEstimator:
    def test_rates_accumulate_and_decay(self):
        est = DemandEstimator(halflife=4)
        for _ in range(8):
            est.observe({"hot"})
        assert est.rate("hot") > est.rate("cold") == 0.0
        peak = est.rate("hot")
        for _ in range(16):
            est.observe({"other"})
        assert est.rate("hot") < peak / 8  # 16 steps = 4 halflives

    def test_recent_writer_outranks_stale_one(self):
        est = DemandEstimator(halflife=8)
        for _ in range(20):
            est.observe({"old"})
        for _ in range(40):
            est.observe({"new"})
        assert est.rate("new") > est.rate("old")


#: sha256 prefix of every site's WAL after the demand run below: the
#: treaties a demand cluster installs, as the estimator shapes them
DEMAND_WAL_DIGEST = "aabb9cf35693f539"


def test_only_a_demand_cluster_keeps_an_estimator():
    """An ``equal-split`` cluster never reads demand, so it has no
    estimator to feed; a ``demand`` cluster feeds the one its generator
    reads, and installs exactly the treaties it always did."""
    workload = MicroWorkload(num_items=4, refill=6, num_sites=3, initial_qty="random")
    static = workload.build_homeostasis(strategy="equal-split")
    assert static.demand is None and static.generator.demand is None
    cluster = workload.build_homeostasis(strategy="demand")
    assert cluster.demand is not None and cluster.generator.demand is cluster.demand
    rng = random.Random(2)
    for _ in range(300):
        request = workload.next_request(rng)
        cluster.submit(request.tx_name, request.params)
    assert cluster.stats.rounds == 180
    digest = hashlib.sha256()
    for sid in sorted(cluster.sites):
        digest.update(bytes(cluster.sites[sid].wal._buf))
    assert digest.hexdigest()[:16] == DEMAND_WAL_DIGEST
