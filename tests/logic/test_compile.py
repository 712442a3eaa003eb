"""Compiled-guard equivalence and cache-invalidation tests.

A compiled guard (:func:`repro.logic.compile.compile_formula`) must be
observationally identical to ``Formula.evaluate``, the interpreter it
replaces, on *every* environment, including the error behaviour for
unbound parameters.  Hypothesis generates random ASTs and
environments; the treaty-table tests pin the cache-invalidation
contract (a replaced treaty is re-indexed, never served stale).
"""

from __future__ import annotations

import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.compile import compile_formula
from repro.logic.formula import And, BoolConst, Cmp, Formula, Not, Or
from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.terms import (
    Add,
    Const,
    IndexedObjT,
    Mul,
    Neg,
    ObjT,
    ParamT,
    TempT,
)
from repro.treaty.table import LocalTreaty, TreatyTable

OBJ_NAMES = ("x", "y", "z")
PARAM_NAMES = ("p", "q")
TEMP_NAMES = ("u",)
CMP_OPS = ("<", "<=", "=", "!=", ">", ">=")


def make_getobj(salt: int):
    """A deterministic object-value function defined on *every* name
    (indexed references can ground to arbitrary array slots)."""

    def getobj(name: str) -> int:
        return (sum(name.encode()) * (salt + 3)) % 21 - 10

    return getobj


terms = st.recursive(
    st.one_of(
        st.integers(-20, 20).map(Const),
        st.sampled_from(OBJ_NAMES).map(ObjT),
        st.sampled_from(PARAM_NAMES).map(ParamT),
        st.sampled_from(TEMP_NAMES).map(TempT),
    ),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda ab: Add(*ab)),
        st.tuples(children, children).map(lambda ab: Mul(*ab)),
        children.map(Neg),
        st.tuples(children).map(lambda ix: IndexedObjT("arr", ix)),
    ),
    max_leaves=8,
)

formulas: st.SearchStrategy[Formula] = st.recursive(
    st.one_of(
        st.booleans().map(BoolConst),
        st.tuples(st.sampled_from(CMP_OPS), terms, terms).map(
            lambda t: Cmp(t[0], t[1], t[2])
        ),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(lambda fs: And(tuple(fs))),
        st.lists(children, max_size=3).map(lambda fs: Or(tuple(fs))),
        children.map(Not),
    ),
    max_leaves=12,
)

environments = st.tuples(
    st.integers(0, 7),
    st.fixed_dictionaries({name: st.integers(-15, 15) for name in PARAM_NAMES}),
    st.fixed_dictionaries({name: st.integers(-15, 15) for name in TEMP_NAMES}),
)

class TestFormulaEquivalence:
    @settings(max_examples=examples(300), deadline=None)
    @given(formula=formulas, env=environments)
    def test_compiled_matches_interpreter(self, formula, env):
        salt, params, temps = env
        getobj = make_getobj(salt)
        expected = formula.evaluate(getobj, params=params, temps=temps)
        assert compile_formula(formula)(getobj, params, temps) == expected

    @settings(max_examples=examples(100), deadline=None)
    @given(formula=formulas, salt=st.integers(0, 7))
    def test_unbound_names_raise_keyerror_like_interpreter(self, formula, salt):
        getobj = make_getobj(salt)
        try:
            expected = formula.evaluate(getobj)
        except KeyError:
            with pytest.raises(KeyError):
                compile_formula(formula)(getobj)
        else:
            assert compile_formula(formula)(getobj) == expected

    def test_compilation_is_memoized(self):
        f = Cmp("<=", ObjT("x"), Const(5))
        assert compile_formula(f) is compile_formula(Cmp("<=", ObjT("x"), Const(5)))

    def test_deep_ast_falls_back_to_interpreter(self):
        # A ~400-deep term chain exceeds CPython's nested-parenthesis
        # limit in compile(); the fast path must degrade to the
        # interpreter, never crash where Formula.evaluate works.
        term = ObjT("x0")
        for i in range(1, 400):
            term = Add(term, ObjT(f"x{i}"))
        formula = Cmp("<=", term, Const(10**6))
        getobj = make_getobj(0)
        assert compile_formula(formula)(getobj) == formula.evaluate(getobj)


def le_clause(name: str, bound: int) -> LinearConstraint:
    return LinearConstraint.make(LinearExpr.variable(ObjT(name)), "<=", bound)


class TestCacheInvalidation:
    def make_table(self, name: str = "x", bound: int = 5) -> TreatyTable:
        return TreatyTable(
            global_treaty=None,
            templates=None,
            configuration=None,
            locals={0: LocalTreaty(site=0, constraints=[le_clause(name, bound)])},
        )

    def test_factor_index_rebuilt_after_replace(self):
        # A round replaces the table; nothing edits a local inside one.
        table = self.make_table()
        assert table.sites_for_objects(["x"]) == {0}
        assert table.sites_for_objects(["y"]) == set()
        replaced = self.make_table("y", 9)
        assert replaced.sites_for_objects(["x"]) == set()
        assert replaced.sites_for_objects(["y"]) == {0}

    def test_precompile_warms_every_site(self):
        from repro.workloads.micro import MicroWorkload

        cluster = MicroWorkload(num_items=2, refill=5).build_homeostasis()
        treaties = [server.local_treaty for server in cluster.sites.values()]
        assert all(t._by_object is None for t in treaties)
        assert cluster.precompile_checks() == len(treaties) == 2
        assert not any(t._by_object is None for t in treaties)
