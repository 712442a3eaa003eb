"""Clean-path lowering equivalence and cache-invalidation tests.

A compiled decider (:func:`repro.logic.compile.compile_decider`) must
pick the row that evaluating every guard with ``Formula.evaluate``
picks -- or none, unless exactly one holds -- and raise ``KeyError``
exactly when that evaluation does.  A compiled residual
(:func:`repro.logic.compile.compile_residual`) must have the effects
of :func:`repro.lang.interp.execute`: the same writes in the same
order, the same log, the same exception.  Hypothesis generates random
ASTs, tables and environments; deep ASTs must take the interpreter
fallback and still agree.  The treaty-table tests pin the
cache-invalidation contract (a replaced treaty is re-indexed, never
served stale).
"""

from __future__ import annotations

import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.symbolic import Row, SymbolicTable, build_symbolic_table
from repro.lang.ast import (
    ABin,
    AConst,
    AParam,
    ARead,
    ArrayRef,
    Assign,
    ATemp,
    BAnd,
    BCmp,
    BConst,
    BNot,
    BOr,
    GroundRef,
    If,
    Print,
    Seq,
    Skip,
    Transaction,
    Write,
)
from repro.lang.interp import ExecContext, execute
from repro.lang.parser import parse_transaction
from repro.logic.compile import compile_decider, compile_residual
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
from repro.protocol.catalog import CatalogError, StoredProcedureCatalog
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


def outcome(call):
    """``call()``'s value, or the type of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc)


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

#: some parameters may be unbound
param_maps = st.dictionaries(
    st.sampled_from(PARAM_NAMES), st.integers(-15, 15), max_size=2
)


def reference_row(guards, getobj, params):
    """Row selection by ``Formula.evaluate``, every guard in row order."""
    hits = [at for at, guard in enumerate(guards) if guard.evaluate(getobj, params)]
    return hits[0] if len(hits) == 1 else None


class TestFormulaEquivalence:
    """The decider against the interpreted guards."""

    @settings(max_examples=examples(300), deadline=None)
    @given(
        guards=st.lists(formulas, min_size=1, max_size=4),
        salt=st.integers(0, 7),
        params=param_maps,
    )
    def test_compiled_matches_interpreter(self, guards, salt, params):
        getobj = make_getobj(salt)
        decide = compile_decider(guards, range(len(guards)))
        expected = outcome(lambda: reference_row(guards, getobj, params))
        assert outcome(lambda: decide(getobj, params)) == expected

    @settings(max_examples=examples(100), deadline=None)
    @given(formula=formulas, salt=st.integers(0, 7))
    def test_unbound_names_raise_keyerror_like_interpreter(self, formula, salt):
        getobj = make_getobj(salt)
        decide = compile_decider([formula], ["hit"])
        try:
            expected = formula.evaluate(getobj, {})
        except KeyError:
            with pytest.raises(KeyError):
                decide(getobj, {})
        else:
            assert decide(getobj, {}) == ("hit" if expected else None)

    def test_atom_and_negation_tested_once(self):
        total = Add(ObjT("x"), ObjT("y"))
        guards = [Cmp(">", total, Const(1)), Cmp("<=", total, Const(1))]
        decide = compile_decider(guards, ["many", "few"])
        for x, expected in ((5, "many"), (0, "few")):
            reads = []
            db = {"x": x, "y": 0}
            assert decide(lambda n: reads.append(n) or db[n], {}) == expected
            assert reads == ["x", "y"]

    def test_deep_ast_falls_back_to_interpreter(self):
        # A ~400-deep term chain exceeds CPython's nested-parenthesis
        # limit in compile(); the decider must degrade to the
        # interpreter, never crash where Formula.evaluate works.
        term = ObjT("x0")
        for i in range(1, 400):
            term = Add(term, ObjT(f"x{i}"))
        guards = [Cmp("<=", term, Const(10**6)), Cmp(">", term, Const(10**6))]
        decide = compile_decider(guards, [0, 1])
        assert "interpreted" in decide.__qualname__
        getobj = make_getobj(0)
        assert decide(getobj, {}) == reference_row(guards, getobj, {})


# -- residual closures ----------------------------------------------------------

aexps = st.recursive(
    st.one_of(
        st.integers(-9, 9).map(AConst),
        st.sampled_from(PARAM_NAMES).map(AParam),
        st.sampled_from(("u", "v")).map(ATemp),
        st.sampled_from(OBJ_NAMES).map(lambda n: ARead(GroundRef(n))),
    ),
    lambda children: st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children).map(lambda t: ABin(*t)),
        st.tuples(children).map(lambda ix: ARead(ArrayRef("arr", ix))),
    ),
    max_leaves=5,
)

bexps = st.recursive(
    st.one_of(
        st.booleans().map(BConst),
        st.tuples(st.sampled_from(CMP_OPS), aexps, aexps).map(lambda t: BCmp(*t)),
    ),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda ab: BAnd(*ab)),
        st.tuples(children, children).map(lambda ab: BOr(*ab)),
        children.map(BNot),
    ),
    max_leaves=4,
)

refs = st.one_of(
    st.sampled_from(OBJ_NAMES).map(GroundRef),
    st.tuples(aexps).map(lambda ix: ArrayRef("arr", ix)),
)

commands = st.recursive(
    st.one_of(
        st.just(Skip()),
        st.tuples(st.sampled_from(("u", "v")), aexps).map(lambda t: Assign(*t)),
        st.tuples(refs, aexps).map(lambda t: Write(*t)),
        aexps.map(Print),
    ),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda ab: Seq(*ab)),
        st.tuples(bexps, children, children).map(lambda t: If(*t)),
    ),
    max_leaves=8,
)


def assigned_first(case):
    """``com`` after ``u := first; v := @p`` (unless ``first`` is None)."""
    first, com = case
    if first is None:
        return com
    return Seq(Seq(Assign("u", first), Assign("v", AParam("p"))), com)


#: most residuals assign their temporaries up front and lower; the rest
#: may read one unbound, keep the interpreter and must still agree
residuals = st.tuples(
    st.none() | st.integers(-9, 9).map(AConst) | st.just(ARead(GroundRef("x"))),
    commands,
).map(assigned_first)


def run_traced(run, db, params):
    """Run ``run(getobj, setobj, emit, params, arrays)`` on a copy of
    ``db``: its writes in order, its log, and what it raised."""
    state, writes, log = dict(db), [], []

    def setobj(name, value):
        writes.append((name, value))
        state[name] = value

    getobj = lambda name: state.get(name, 0)
    raised = outcome(lambda: run(getobj, setobj, log.append, params, {}))
    return writes, log, raised


def interpreted(com):
    """``run`` by the reference: ``execute`` on an ``ExecContext``."""

    def run(getobj, setobj, emit, params, arrays):
        execute(com, ExecContext(getobj, setobj, emit, params, arrays=arrays))

    return run


databases = st.dictionaries(
    st.sampled_from(OBJ_NAMES + ("arr[0]", "arr[1]", "arr[-1]")),
    st.integers(-5, 5),
    max_size=6,
)


class TestResidualEquivalence:
    @settings(max_examples=examples(300), deadline=None)
    @given(com=residuals, db=databases, params=param_maps)
    def test_compiled_matches_interpreter(self, com, db, params):
        expected = run_traced(interpreted(com), db, params)
        assert run_traced(compile_residual(com), db, params) == expected

    def test_names_over_parameters(self):
        # a(@p, @q) is read and written: the closure builds it from the
        # parameters, the ground_name encoding the interpreter uses.
        com = parse_transaction("write(a(@p, @q) = read(a(@p, @q)) + @q)").body
        run = compile_residual(com)
        assert run.__code__.co_filename == "<run>"
        db, params = {"a[3,2]": 4}, {"p": 3, "q": 2}
        assert run_traced(run, db, params) == ([("a[3,2]", 6)], [], None)
        expected = run_traced(interpreted(com), db, params)
        assert run_traced(run, db, params) == expected

    def test_temporary_assigned_on_one_branch_keeps_interpreter(self):
        com = parse_transaction(
            "if read(x) < 0 then { u := 1 } else { skip }; print(u)"
        ).body
        run = compile_residual(com)
        assert "interpreted" in run.__qualname__
        for db in ({"x": -1}, {"x": 1}):
            assert run_traced(run, db, {}) == run_traced(interpreted(com), db, {})

    def test_temporary_assigned_on_both_branches_lowers(self):
        com = parse_transaction(
            "if read(x) < 0 then { u := 1 } else { u := read(y) }; write(z = u)"
        ).body
        run = compile_residual(com)
        assert run.__code__.co_filename == "<run>"
        for db in ({"x": -1}, {"x": 1, "y": 7}):
            assert run_traced(run, db, {}) == run_traced(interpreted(com), db, {})

    @pytest.mark.parametrize("shape", ["if", "abin"])
    def test_deep_ast_falls_back_to_interpreter(self, shape):
        # 300 nested Ifs exceed CPython's indentation limit, 300 nested
        # ABins its parenthesis limit: both keep the interpreter.
        if shape == "if":
            com = Print(AConst(0))
            for i in range(300):
                cond = BCmp("<", ARead(GroundRef("x")), AConst(i))
                com = If(cond, Write(GroundRef("y"), AConst(i)), com)
        else:
            expr = AParam("p")
            for i in range(300):
                expr = ABin("+", expr, ARead(GroundRef(f"x{i % 3}")))
            com = Seq(Write(GroundRef("y"), expr), Print(expr))
        run = compile_residual(com)
        assert "interpreted" in run.__qualname__
        for db, params in (({"x": 150, "x1": 2}, {"p": 1}), ({"x": -1}, {})):
            expected = run_traced(interpreted(com), db, params)
            assert run_traced(run, db, params) == expected


# -- dispatch + run against the interpreter --------------------------------------


@st.composite
def transactions(draw):
    """Small random L transactions over objects, an array indexed by
    parameters, and temporaries assigned before use."""
    reads = ["read(x)", "read(y)", "read(arr(@p))", "read(arr(@q + 1))"]

    def expr():
        kind = draw(st.integers(0, 4))
        if kind == 0:
            return str(draw(st.integers(-9, 9)))
        if kind == 1:
            return draw(st.sampled_from(reads + ["@p", "@q", "t"]))
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"({draw(st.sampled_from(reads))} {op} {draw(st.integers(-3, 3))})"

    def stmt(depth):
        kind = draw(st.integers(0, 3 if depth > 0 else 2))
        target = draw(st.sampled_from(["x", "y", "arr(@p)", "arr(@q + 1)"]))
        if kind == 0:
            return f"write({target} = {expr()})"
        if kind == 1:
            return f"print({expr()})"
        if kind == 2:
            return f"t := {expr()}"
        cond = f"{expr()} {draw(st.sampled_from(['<', '<=', '=', '!=']))} {expr()}"
        return f"if {cond} then {{ {block(depth - 1)} }} else {{ {block(depth - 1)} }}"

    def block(depth):
        return "; ".join(stmt(depth) for _ in range(draw(st.integers(1, 3))))

    body = f"t := {expr()}; {block(draw(st.integers(1, 3)))}"
    return parse_transaction(body, name="T", params=("p", "q"))


def clean_path(catalog, db, params):
    """``dispatch`` then ``run``: the row, the writes in order, the
    log, and what was raised."""
    state, writes, log, chosen = dict(db), [], [], []

    def setobj(name, value):
        writes.append((name, value))
        state[name] = value

    def go():
        getobj = lambda name: state.get(name, 0)
        proc = catalog.dispatch("T", getobj, params)
        chosen.append(proc.row_index)
        proc.run(getobj, setobj, log.append, params, {})

    return chosen, writes, log, outcome(go)


def reference_path(table, db, params):
    """The same, by ``Formula.evaluate`` and ``interp.execute``."""
    state, writes, log, chosen = dict(db), [], [], []

    def setobj(name, value):
        writes.append((name, value))
        state[name] = value

    def go():
        getobj = lambda name: state.get(name, 0)
        at = reference_row([row.guard for row in table.rows], getobj, params)
        if at is None:
            raise CatalogError("not exactly one row")
        chosen.append(at)
        ctx = ExecContext(getobj, setobj, log.append, params)
        execute(table.rows[at].residual, ctx)

    return chosen, writes, log, outcome(go)


def registered(table):
    catalog = StoredProcedureCatalog()
    catalog.register(table)
    return catalog


class TestCleanPathEquivalence:
    @settings(max_examples=examples(150), deadline=None)
    @given(
        tx=transactions(),
        db=st.dictionaries(
            st.sampled_from(("x", "y", "arr[0]", "arr[1]", "arr[2]")),
            st.integers(-6, 6),
        ),
        params=st.dictionaries(
            st.sampled_from(("p", "q")), st.integers(0, 1), min_size=1
        ),
    )
    def test_dispatch_and_run_match_interpreter(self, tx, db, params):
        table = build_symbolic_table(tx)
        expected = reference_path(table, db, params)
        assert clean_path(registered(table), db, params) == expected

    def test_deep_rows_fall_back_and_agree(self):
        # A guard over a 400-deep sum and a 300-deep nested residual:
        # both lowerings keep the interpreter, dispatch still decides.
        total = ObjT("x")
        for i in range(400):
            total = Add(total, ObjT(f"x{i % 3}"))
        body = Print(AConst(-1))
        for i in range(300):
            cond = BCmp("<", ARead(GroundRef("x")), AConst(i))
            body = If(cond, Write(GroundRef("y"), AConst(i)), body)
        table = SymbolicTable(
            Transaction("T", (), body),
            [
                Row(Cmp("<=", total, Const(0)), body),
                Row(Cmp(">", total, Const(0)), Skip()),
            ],
        )
        catalog = registered(table)
        assert "interpreted" in catalog.deciders["T"].__qualname__
        assert "interpreted" in catalog.procedures["T"][0]._run.__qualname__
        for db in ({"x": -2}, {"x": 7}, {"x": 0, "x1": 5}):
            assert clean_path(catalog, db, {}) == reference_path(table, db, {})


# -- treaty-table cache invalidation ----------------------------------------------


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
