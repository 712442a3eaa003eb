"""Tests for treaty templates and configurations (Section 4.2)."""

import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.joint import build_joint_table
from repro.analysis.symbolic import build_symbolic_table
from repro.lang.parser import parse_transaction
from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.linearize import LinearizedTreaty, linearize_for_treaty
from repro.logic.terms import ObjT
from repro.treaty.config import (
    check_h1_algebraic,
    check_h1_semantic,
    check_h2,
    default_configuration,
    equal_split_configuration,
    local_treaties,
)
from repro.treaty.templates import ConfigVar, build_templates

T1_SRC = """
transaction T1() {
  xh := read(x); yh := read(y);
  if xh + yh < 10 then { write(x = xh + 1) } else { write(x = xh - 1) }
}
"""
T2_SRC = """
transaction T2() {
  xh := read(x); yh := read(y);
  if xh + yh < 20 then { write(y = yh + 1) } else { write(y = yh - 1) }
}
"""


def _running_example(db=None):
    """The Section 4 running example: x on site 1, y on site 2."""
    db = db or {"x": 10, "y": 13}
    getobj = lambda n: db.get(n, 0)  # noqa: E731
    joint = build_joint_table(
        [build_symbolic_table(parse_transaction(s)) for s in (T1_SRC, T2_SRC)]
    )
    psi = joint.lookup(getobj).guard
    lin = linearize_for_treaty(psi, getobj)
    locate = lambda name: 1 if name == "x" else 2  # noqa: E731
    templates = build_templates(lin, locate, [1, 2])
    return templates, getobj, db


class TestTemplates:
    def test_one_clause_two_sites(self):
        templates, _, _ = _running_example()
        assert len(templates.clauses) == 1
        clause = templates.clauses[0]
        assert set(clause.site_exprs) == {1, 2}

    def test_hard_constraint_is_h1_budget(self):
        """For x + y >= 20 split over 2 sites, H1 is c1 + c2 >= (K-1)n,
        i.e. in the paper's orientation cx + cy <= 20."""
        templates, _, _ = _running_example()
        hard = templates.clauses[0].hard_constraint()
        c1 = ConfigVar(site=1, clause=0)
        c2 = ConfigVar(site=2, clause=0)
        # H1 here: c1 + c2 >= (K-1)*n = -20.  In the paper's positive
        # orientation (cx = -c1, cy = -c2) that is cx + cy <= 20.
        assert hard.satisfied_by({c1: -10, c2: -10})  # cx+cy = 20, tight
        assert hard.satisfied_by({c1: -9, c2: -10})  # cx+cy = 19 < 20
        assert not hard.satisfied_by({c1: -11, c2: -10})  # cx+cy = 21 > 20

    def test_local_sum_on(self):
        templates, getobj, _ = _running_example()
        clause = templates.clauses[0]
        assert clause.local_sum_on(1, getobj) == -10  # -x at x=10
        assert clause.local_sum_on(2, getobj) == -13

    def test_global_holds_on(self):
        """The sites' shares of the one clause add back up to a global
        treaty that holds on the database it was split on."""
        templates, getobj, _ = _running_example()
        (clause,) = templates.clauses
        whole = clause.site_exprs[1] + clause.site_exprs[2]
        treaty = LinearizedTreaty(
            [LinearConstraint.make(whole, clause.op, clause.bound)]
        )
        assert treaty.holds_on(getobj)
        assert not treaty.holds_on(lambda name: 0)

    def test_rebound_moves_bounds_and_shares_the_split(self):
        """Constraints differing in bounds only re-bound the templates
        to what ``build_templates`` gives, without splitting again."""
        locate = lambda name: 1 if name == "x" else 2  # noqa: E731
        x, y = ObjT("x"), ObjT("y")

        def treaty(pin):
            return LinearizedTreaty(
                [
                    LinearConstraint.make(LinearExpr.make({x: -1, y: -1}), "<=", -20),
                    LinearConstraint.make(LinearExpr.variable(y), "=", pin),
                ]
            )

        first = build_templates(treaty(13), locate, [1, 2])
        again = first.rebound(treaty(9).constraints)
        assert again == build_templates(treaty(9), locate, [1, 2])
        assert again.clauses[0] is first.clauses[0]  # bound unmoved
        assert again.clauses[1].site_exprs is first.clauses[1].site_exprs


class TestConfigurations:
    @pytest.mark.parametrize(
        "maker", [default_configuration, equal_split_configuration]
    )
    def test_h1_and_h2(self, maker):
        templates, getobj, _ = _running_example()
        config = maker(templates, getobj)
        assert check_h1_algebraic(templates, config)
        assert check_h1_semantic(templates, config)
        assert check_h2(templates, config, getobj)

    def test_default_freezes_state(self):
        """Theorem 4.3's configuration admits no local movement: any
        increase of a local sum violates."""
        templates, getobj, db = _running_example()
        config = default_configuration(templates, getobj)
        locals_ = local_treaties(templates, config)
        # Site 1's local clause: -x <= -10, i.e. x >= 10.  A decrement
        # of x (T1's else branch) violates immediately.
        moved = dict(db, x=9)
        moved_lookup = lambda n: moved.get(n, 0)  # noqa: E731
        con = locals_[1][0]
        total = sum(
            coeff * moved_lookup(var.name) for var, coeff in con.expr.coeffs
        )
        assert total > con.bound  # violated

    def test_equal_split_shares_slack(self):
        """Slack n - psi(D) = 3 splits as 1 and 1 (floor)."""
        templates, getobj, db = _running_example()
        config = equal_split_configuration(templates, getobj)
        locals_ = local_treaties(templates, config)
        # Site 1 may decrement x by 1 (x >= 9), not 2.
        for delta, ok in ((1, True), (2, False)):
            moved = dict(db, x=db["x"] - delta)
            lookup = lambda n: moved.get(n, 0)  # noqa: E731
            con = locals_[1][0]
            total = sum(c * lookup(v.name) for v, c in con.expr.coeffs)
            assert (total <= con.bound) is ok

    def test_equal_split_requires_valid_db(self):
        templates, _, _ = _running_example()
        bad = {"x": 1, "y": 1}
        with pytest.raises(ValueError):
            equal_split_configuration(templates, lambda n: bad.get(n, 0))

    def test_local_treaties_conjunction_implies_global(self):
        """Exhaustive mini-check of H1 on a grid."""
        templates, getobj, _ = _running_example()
        config = equal_split_configuration(templates, getobj)
        locals_ = local_treaties(templates, config)

        def local_ok(site, db):
            lookup = lambda n: db.get(n, 0)  # noqa: E731
            return all(
                sum(c * lookup(v.name) for v, c in con.expr.coeffs) <= con.bound
                if con.op == "<="
                else sum(c * lookup(v.name) for v, c in con.expr.coeffs) == con.bound
                for con in locals_[site]
            )

        for vx in range(-5, 30, 2):
            for vy in range(-5, 30, 3):
                db = {"x": vx, "y": vy}
                if local_ok(1, db) and local_ok(2, db):
                    assert vx + vy >= 20  # the global treaty


@settings(max_examples=examples(40), deadline=None)
@given(
    vx=st.integers(0, 60),
    vy=st.integers(0, 60),
    seed=st.integers(0, 10_000),
)
def test_random_configurations_valid(vx, vy, seed):
    """PROPERTY: both closed-form strategies produce H1+H2-valid
    configurations on any database satisfying the treaty."""
    if vx + vy < 20:
        vx += 20  # keep the running example's psi satisfiable
    templates, getobj, _ = _running_example({"x": vx, "y": vy})
    for maker in (default_configuration, equal_split_configuration):
        config = maker(templates, getobj)
        assert check_h1_algebraic(templates, config)
        assert check_h1_semantic(templates, config)
        assert check_h2(templates, config, getobj)
