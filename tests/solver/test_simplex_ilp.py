"""Tests for the exact simplex and branch-and-bound ILP."""

import itertools
import random
from fractions import Fraction

from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.linear import LinearConstraint, LinearExpr
from repro.solver.ilp import ilp_feasible, ilp_optimize
from repro.solver.simplex import lp_solve


def le(coeffs, b):
    return LinearConstraint.make(LinearExpr.make(coeffs), "<=", b)


def eq(coeffs, b):
    return LinearConstraint.make(LinearExpr.make(coeffs), "=", b)


class TestSimplex:
    def test_feasible_assignment_satisfies(self):
        cons = [le({"x": 1, "y": 2}, 14), le({"x": -3, "y": 1}, 0), le({"y": -1}, -1)]
        res = lp_solve(cons)
        assert res.feasible
        for c in cons:
            total = sum(Fraction(coef) * res.assignment[v] for v, coef in c.expr.coeffs)
            assert total <= c.bound

    def test_optimum_known(self):
        # max 3x + 4y st x + 2y <= 14, 3x - y >= 0, x - y <= 2
        cons = [le({"x": 1, "y": 2}, 14), le({"x": -3, "y": 1}, 0), le({"x": 1, "y": -1}, 2)]
        res = lp_solve(cons, LinearExpr.make({"x": 3, "y": 4}), maximize=True)
        assert res.status == "optimal"
        assert res.value == 34  # x=6, y=4

    def test_minimize(self):
        cons = [le({"x": -1}, -2), le({"x": 1}, 10)]
        res = lp_solve(cons, LinearExpr.make({"x": 1}))
        assert res.value == 2

    def test_equality_constraints(self):
        cons = [eq({"x": 1, "y": 1}, 10), le({"x": -1}, 0), le({"y": -1}, 0)]
        res = lp_solve(cons, LinearExpr.make({"x": 1}), maximize=True)
        assert res.value == 10

    def test_infeasible(self):
        assert lp_solve([le({"x": 1}, 1), le({"x": -1}, -3)]).status == "infeasible"

    def test_unbounded(self):
        res = lp_solve([le({"x": -1}, 0)], LinearExpr.make({"x": 1}), maximize=True)
        assert res.status == "unbounded"

    def test_degenerate_optimum_terminates(self):
        # Degenerate vertex at the optimum; Bland's rule must terminate.
        cons = [
            le({"x": 1}, 1),
            le({"y": 1}, 1),
            le({"x": 1, "y": 1}, 2),
            le({"x": -1}, 0),
            le({"y": -1}, 0),
        ]
        res = lp_solve(cons, LinearExpr.make({"x": 1, "y": 1}), maximize=True)
        assert res.status == "optimal"
        assert res.value == 2

    def test_exactness_no_float_error(self):
        # Rational optimum x = 1/3 is represented exactly (note: the
        # instance avoids single-variable gcd tightening, which would
        # legitimately round integer-semantics constraints).
        cons = [le({"x": 3, "y": 1}, 1), le({"x": -3, "y": 1}, -1), le({"y": 1}, 0), le({"y": -1}, 0)]
        res = lp_solve(cons, LinearExpr.make({"x": 1}), maximize=True)
        assert res.status == "optimal"
        assert res.assignment["x"] == Fraction(1, 3)


class TestILP:
    def test_integrality_forces_rounding(self):
        # LP optimum of max x st 2x <= 5 is 2.5; ILP must give 2.
        res = ilp_optimize([le({"x": 2}, 5)], LinearExpr.make({"x": 1}), maximize=True)
        # note: gcd-tightening already rewrites 2x<=5 to x<=2
        assert res.value == 2

    def test_parity_infeasible(self):
        assert ilp_feasible([eq({"x": 2, "y": -2}, 1)]).status == "infeasible"

    def test_knapsack_optimum(self):
        # max 8a + 11b + 6c st 5a + 7b + 4c <= 14, 0 <= vars <= 1
        cons = [le({"a": 5, "b": 7, "c": 4}, 14)]
        for v in "abc":
            cons += [le({v: 1}, 1), le({v: -1}, 0)]
        res = ilp_optimize(cons, LinearExpr.make({"a": 8, "b": 11, "c": 6}), maximize=True)
        assert res.value == 19  # a=1, b=1

    def test_feasible_point_is_integral_and_valid(self):
        cons = [le({"x": 3, "y": 5}, 15), le({"x": -1, "y": -1}, -2)]
        res = ilp_feasible(cons)
        assert res.feasible
        for c in cons:
            assert c.satisfied_by(res.assignment)

    def test_unbounded_with_integer_point(self):
        res = ilp_optimize([le({"x": -1}, 0)], LinearExpr.make({"x": 1}), maximize=True)
        assert res.status == "unbounded"


@settings(max_examples=examples(40), deadline=None)
@given(st.integers(0, 10_000))
def test_ilp_matches_bruteforce_on_random_boxes(seed):
    """Random small bounded ILPs: branch and bound agrees with brute
    force over the box."""
    rng = random.Random(seed)
    names = ["a", "b"]
    lo, hi = -4, 4
    cons = [le({n: 1}, hi) for n in names] + [le({n: -1}, -lo) for n in names]
    for _ in range(rng.randint(1, 3)):
        coeffs = {n: rng.randint(-3, 3) for n in names}
        cons.append(le(coeffs, rng.randint(-6, 6)))
    objective = LinearExpr.make({n: rng.randint(-3, 3) for n in names})

    best = None
    for combo in itertools.product(range(lo, hi + 1), repeat=len(names)):
        point = dict(zip(names, combo))
        if all(c.satisfied_by(point) for c in cons):
            val = objective.evaluate(point)
            if best is None or val > best:
                best = val

    res = ilp_optimize(cons, objective, maximize=True)
    if best is None:
        assert res.status == "infeasible"
    else:
        assert res.status == "optimal"
        assert res.value == best
