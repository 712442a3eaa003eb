"""Tests for linear normal forms (repro.logic.linear)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.logic.formula import Cmp
from repro.logic.linear import (
    LinearConstraint,
    LinearExpr,
    LinearizationError,
    constraints_of_cmp,
    linear_of_term,
)
from repro.logic.terms import Add, Const, Mul, Neg, ObjT, ParamT

x = ObjT("x")
y = ObjT("y")


class TestLinearExpr:
    def test_make_drops_zero_coefficients(self):
        expr = LinearExpr.make({x: 0, y: 2})
        assert expr.variables() == {y}

    def test_addition_merges(self):
        a = LinearExpr.make({x: 1, y: 2}, 3)
        b = LinearExpr.make({x: -1, y: 5}, 4)
        total = a + b
        assert total.coeff_map() == {y: 7}
        assert total.const == 7

    def test_subtraction(self):
        a = LinearExpr.make({x: 3})
        b = LinearExpr.make({x: 1, y: 1})
        assert (a - b).coeff_map() == {x: 2, y: -1}

    def test_scaling(self):
        assert LinearExpr.make({x: 2}, 5).scaled(-3).const == -15

    def test_evaluate(self):
        expr = LinearExpr.make({x: 2, y: -1}, 4)
        assert expr.evaluate({x: 3, y: 1}) == 9

    def test_value_on_reads_objects_by_name(self):
        expr = LinearExpr.make({x: 2, y: -1}, 4)
        assert expr.value_on({"x": 3, "y": 1}.__getitem__) == 9

    def test_value_on_refuses_a_non_object_variable(self):
        expr = LinearExpr.make({x: 1, ParamT("p"): 1})
        with pytest.raises(LinearizationError, match="non-object"):
            expr.value_on(lambda name: 0)


class TestNormalization:
    def test_less_than_tightens(self):
        con = LinearConstraint.make(LinearExpr.make({x: 1}), "<", 5)
        assert con.op == "<=" and con.bound == 4

    def test_greater_than_flips(self):
        con = LinearConstraint.make(LinearExpr.make({x: 1}), ">", 5)
        # x > 5  <=>  -x <= -6
        assert con.op == "<=" and con.bound == -6
        assert con.coeff_for(x) == -1

    def test_greater_equal_flips(self):
        con = LinearConstraint.make(LinearExpr.make({x: 2}), ">=", 6)
        # 2x >= 6 -> -2x <= -6 -> tightened -x <= -3
        assert con.op == "<=" and con.bound == -3

    def test_constant_folds_into_bound(self):
        con = LinearConstraint.make(LinearExpr.make({x: 1}, 7), "<=", 10)
        assert con.bound == 3
        assert con.expr.const == 0

    def test_gcd_tightening_inequality(self):
        # 2x <= 5  ->  x <= 2 over the integers
        con = LinearConstraint.make(LinearExpr.make({x: 2}), "<=", 5)
        assert con.coeff_for(x) == 1 and con.bound == 2

    def test_gcd_equality_divisible(self):
        con = LinearConstraint.make(LinearExpr.make({x: 2, y: 4}), "=", 6)
        assert con.coeff_for(x) == 1 and con.coeff_for(y) == 2 and con.bound == 3

    def test_gcd_equality_not_divisible_is_false(self):
        # 2x - 2y = 1 has no integer solutions.
        con = LinearConstraint.make(LinearExpr.make({x: 2, y: -2}), "=", 1)
        assert con.is_trivially_false()

    def test_satisfied_by(self):
        con = LinearConstraint.make(LinearExpr.make({x: 1, y: 1}), "<=", 10)
        assert con.satisfied_by({x: 4, y: 6})
        assert not con.satisfied_by({x: 5, y: 6})

    def test_slack_on_a_store(self):
        con = LinearConstraint.make(LinearExpr.make({x: 1, y: 1}), "<=", 10)
        assert con.slack({"x": 4, "y": 6}.__getitem__) == 0
        assert con.slack({"x": 5, "y": 6}.__getitem__) == -1
        pin = LinearConstraint.make(LinearExpr.make({x: 1}), "=", 3)
        assert pin.holds_on(lambda name: 3)
        assert not pin.holds_on(lambda name: 2)  # positive slack breaks a pin

    def test_negated_inequality(self):
        con = LinearConstraint.make(LinearExpr.make({x: 1}), "<=", 5)
        neg = con.negated()
        for vx in range(0, 12):
            assert neg.satisfied_by({x: vx}) != con.satisfied_by({x: vx})

    def test_negating_equality_raises(self):
        con = LinearConstraint.make(LinearExpr.make({x: 1}), "=", 5)
        with pytest.raises(LinearizationError):
            con.negated()


class TestLowering:
    def test_linear_term(self):
        term = Add(Mul(Const(3), x), Neg(y))
        expr = linear_of_term(term)
        assert expr.coeff_map() == {x: 3, y: -1}

    def test_nonlinear_product_rejected(self):
        with pytest.raises(LinearizationError):
            linear_of_term(Mul(x, y))

    def test_constant_times_expression(self):
        expr = linear_of_term(Mul(Add(x, Const(2)), Const(4)))
        assert expr.coeff_map() == {x: 4}
        assert expr.const == 8

    def test_cmp_lowering(self):
        cons = constraints_of_cmp(Cmp("<", Add(x, y), Const(10)))
        assert len(cons) == 1
        assert cons[0].op == "<=" and cons[0].bound == 9

    def test_disequality_rejected(self):
        with pytest.raises(LinearizationError):
            constraints_of_cmp(Cmp("!=", x, y))


@given(
    st.dictionaries(st.sampled_from([x, y]), st.integers(-9, 9)),
    st.sampled_from(["<", "<=", "=", ">", ">="]),
    st.integers(-20, 20),
    st.integers(-15, 15),
    st.integers(-15, 15),
)
def test_normalization_preserves_integer_semantics(coeffs, op, bound, vx, vy):
    """The normalized constraint holds exactly when the original does,
    evaluated on an assignment or on a store."""
    con = LinearConstraint.make(LinearExpr.make(coeffs), op, bound)
    total = coeffs.get(x, 0) * vx + coeffs.get(y, 0) * vy
    original = {
        "<": total < bound,
        "<=": total <= bound,
        "=": total == bound,
        ">": total > bound,
        ">=": total >= bound,
    }[op]
    assert con.satisfied_by({x: vx, y: vy}) == original
    assert con.holds_on({"x": vx, "y": vy}.__getitem__) == original
