"""Tests for the Appendix C.1 preprocessing (repro.logic.linearize)."""

import pytest

from repro.logic.formula import Cmp, Not, Or, conj
from repro.logic.linearize import linearize_for_treaty
from repro.logic.terms import Add, Const, Mul, ObjT, ParamT

x = ObjT("x")
y = ObjT("y")


def getobj_from(db):
    return lambda name: db.get(name, 0)


class TestLinearCases:
    def test_plain_conjunction(self):
        f = conj([Cmp(">=", Add(x, y), Const(20)), Cmp("<", x, Const(100))])
        out = linearize_for_treaty(f, getobj_from({"x": 10, "y": 13}))
        assert len(out.constraints) == 2
        assert not out.pinned

    def test_result_holds_on_database(self):
        f = Cmp(">=", Add(x, y), Const(20))
        out = linearize_for_treaty(f, getobj_from({"x": 10, "y": 13}))
        assert out.holds_on(getobj_from({"x": 10, "y": 13}))
        assert not out.holds_on(getobj_from({"x": 1, "y": 1}))

    def test_formula_must_hold_on_d(self):
        f = Cmp(">=", Add(x, y), Const(20))
        with pytest.raises(ValueError):
            linearize_for_treaty(f, getobj_from({"x": 1, "y": 1}))

    def test_negated_atom_via_nnf(self):
        f = Not(Cmp("<", x, Const(5)))  # i.e. x >= 5
        out = linearize_for_treaty(f, getobj_from({"x": 7}))
        assert len(out.constraints) == 1
        assert not out.pinned

    def test_parameter_instantiation(self):
        f = Cmp(">", x, ParamT("p"))
        out = linearize_for_treaty(f, getobj_from({"x": 10}), params={"p": 3})
        assert out.holds_on(getobj_from({"x": 10}))


class TestPinningCases:
    def test_disequality_pins(self):
        f = Cmp("!=", x, Const(5))
        out = linearize_for_treaty(f, getobj_from({"x": 7}))
        assert {o.name for o in out.pinned} == {"x"}
        # pinned means x = 7 is enforced
        assert out.holds_on(getobj_from({"x": 7}))
        assert not out.holds_on(getobj_from({"x": 8}))

    def test_disjunction_pins_all_variables(self):
        f = Or((Cmp("<", x, Const(0)), Cmp(">", y, Const(5))))
        out = linearize_for_treaty(f, getobj_from({"x": 3, "y": 9}))
        assert {o.name for o in out.pinned} == {"x", "y"}

    def test_nonlinear_atom_pins(self):
        f = Cmp("<", Mul(x, y), Const(100))
        out = linearize_for_treaty(f, getobj_from({"x": 3, "y": 4}))
        assert {o.name for o in out.pinned} == {"x", "y"}

    def test_pinned_result_is_stronger(self):
        """Appendix C.1: the preprocessed formula implies the original."""
        f = Or((Cmp("<", x, Const(0)), Cmp(">", y, Const(5))))
        db = {"x": 3, "y": 9}
        out = linearize_for_treaty(f, getobj_from(db))
        # Any database satisfying the pins satisfies the original formula.
        for vx in range(-2, 6):
            for vy in range(0, 12):
                candidate = {"x": vx, "y": vy}
                if out.holds_on(getobj_from(candidate)):
                    assert f.evaluate(getobj_from(candidate))

    def test_mixed_linear_and_pinned(self):
        f = conj([Cmp("<=", x, Const(50)), Cmp("!=", y, Const(0))])
        out = linearize_for_treaty(f, getobj_from({"x": 10, "y": 3}))
        assert {o.name for o in out.pinned} == {"y"}
        assert len(out.constraints) == 2


class TestRebinding:
    """``rebound``: the outcome on a later database the formula matches,
    equal to linearizing there again."""

    MIXED = conj(
        [
            Cmp("<=", x, Const(50)),
            Cmp("!=", y, Const(0)),
            Cmp("<", Mul(x, y), Const(100)),
        ]
    )

    def test_pins_are_read_again_and_nothing_else_moves(self):
        first = linearize_for_treaty(self.MIXED, getobj_from({"x": 10, "y": 3}))
        later = getobj_from({"x": 4, "y": 7})
        again = first.rebound(later)
        assert again == linearize_for_treaty(self.MIXED, later)
        assert [pos for pos, _obj in first.pins] == [1, 2, 3]
        assert again.constraints[0] is first.constraints[0]  # the linear conjunct
        assert again.constraints != first.constraints

    def test_without_pins_it_is_the_same_object(self):
        f = Cmp(">=", Add(x, y), Const(20))
        first = linearize_for_treaty(f, getobj_from({"x": 10, "y": 13}))
        assert first.rebound(getobj_from({"x": 20, "y": 0})) is first

    def test_the_formula_must_still_hold(self):
        f = Cmp(">=", Add(x, y), Const(20))
        first = linearize_for_treaty(f, getobj_from({"x": 10, "y": 13}))
        with pytest.raises(ValueError):
            first.rebound(getobj_from({"x": 1, "y": 1}))

    def test_a_pinned_subformula_must_still_hold(self):
        f = Or((Cmp("<", x, Const(0)), Cmp(">", y, Const(5))))
        first = linearize_for_treaty(f, getobj_from({"x": 3, "y": 9}))
        with pytest.raises(ValueError):
            first.rebound(getobj_from({"x": 3, "y": 2}))

    def test_a_matched_row_skips_the_formula_not_its_pinned_parts(self):
        """``row_matched``: the caller has just evaluated the formula
        (the table lookup did), so only the pinned subformulas are
        checked again."""
        first = linearize_for_treaty(self.MIXED, getobj_from({"x": 10, "y": 3}))
        formula_false = getobj_from({"x": 60, "y": 1})  # x <= 50 fails
        with pytest.raises(ValueError):
            first.rebound(formula_false)
        first.rebound(formula_false, row_matched=True)
        with pytest.raises(ValueError):
            first.rebound(getobj_from({"x": 4, "y": 0}), row_matched=True)
