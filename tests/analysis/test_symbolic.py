"""Tests for symbolic table construction (Section 2.3, Figures 4 & 7).

The central soundness property (tested both on the paper's examples
and property-based): for every database D, the unique matching row's
residual produces exactly the same final database and log as the full
transaction.
"""

import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.symbolic import (
    AnalysisError,
    build_symbolic_table,
    rows_are_exclusive,
)
from repro.lang.ast import Transaction
from repro.lang.interp import evaluate
from repro.lang.parser import parse_transaction

T1_SRC = """
transaction T1() {
  xh := read(x);
  yh := read(y);
  if xh + yh < 10 then { write(x = xh + 1) } else { write(x = xh - 1) }
}
"""

T2_SRC = """
transaction T2() {
  xh := read(x);
  yh := read(y);
  if xh + yh < 20 then { write(y = yh + 1) } else { write(y = yh - 1) }
}
"""


def _soundness_check(tx, db, params=None):
    table = build_symbolic_table(tx)
    row = table.lookup(lambda n: db.get(n, 0), params=params)
    full = evaluate(tx, db, params=params)
    partial = evaluate(Transaction("partial", tx.params, row.residual), db, params=params)
    assert full.db == partial.db
    assert full.log == partial.log


class TestFigure4:
    def test_t1_has_two_rows(self):
        table = build_symbolic_table(parse_transaction(T1_SRC))
        assert len(table) == 2
        guards = {row.guard.pretty() for row in table.rows}
        assert guards == {"(x + y) < 10", "(x + y) >= 10"}

    def test_t1_residuals_are_compact(self):
        """Figure 4a shows w(x = r(x) + 1): the dead read of y is gone."""
        table = build_symbolic_table(parse_transaction(T1_SRC))
        for row in table.rows:
            rendered = row.residual.pretty()
            assert "read(y)" not in rendered

    def test_t2_guards(self):
        table = build_symbolic_table(parse_transaction(T2_SRC))
        guards = {row.guard.pretty() for row in table.rows}
        assert guards == {"(x + y) < 20", "(x + y) >= 20"}

    @pytest.mark.parametrize("vx", [-5, 0, 4, 5, 9, 10, 30])
    @pytest.mark.parametrize("vy", [-3, 0, 6, 15])
    def test_t1_soundness_grid(self, vx, vy):
        _soundness_check(parse_transaction(T1_SRC), {"x": vx, "y": vy})

    def test_rows_partition_databases(self):
        table = build_symbolic_table(parse_transaction(T1_SRC))
        dbs = [{"x": a, "y": b} for a in range(-3, 15, 2) for b in range(-3, 15, 3)]
        assert rows_are_exclusive(table, dbs)


class TestTransactionShapes:
    def test_straightline_single_row(self):
        tx = parse_transaction("xh := read(x); write(y = xh * 2); print(xh)")
        table = build_symbolic_table(tx)
        assert len(table) == 1
        assert table.rows[0].guard.pretty() == "true"

    def test_nested_conditionals(self):
        tx = parse_transaction(
            """
            a := read(x);
            if a < 0 then {
              if a < -10 then { write(y = 1) } else { write(y = 2) }
            } else { write(y = 3) }
            """
        )
        table = build_symbolic_table(tx)
        assert len(table) == 3
        for vx in (-20, -10, -5, 0, 5):
            _soundness_check(tx, {"x": vx})

    def test_contradictory_path_pruned(self):
        tx = parse_transaction(
            """
            a := read(x);
            if a < 0 then {
              if a > 5 then { write(y = 1) } else { write(y = 2) }
            } else { skip }
            """
        )
        table = build_symbolic_table(tx)
        # a < 0 and a > 5 is impossible; only 2 rows survive.
        assert len(table) == 2

    def test_write_then_branch_on_written_value(self):
        """Backward substitution through a write (rule 6)."""
        tx = parse_transaction(
            """
            write(x = read(x) + 5);
            b := read(x);
            if b < 10 then { write(y = 1) } else { write(y = 2) }
            """
        )
        build_symbolic_table(tx)
        # Guards must be over the *initial* x: x + 5 < 10 i.e. x < 5.
        for vx in (0, 4, 5, 6, 100):
            _soundness_check(tx, {"x": vx})

    def test_print_guard_insensitive(self):
        tx = parse_transaction("print(read(x)); write(y = 1)")
        table = build_symbolic_table(tx)
        assert len(table) == 1

    def test_t4_boolean_write(self):
        """Figure 8b's T4: boolean store desugars and analyzes."""
        tx = parse_transaction(
            """
            transaction T4() {
              xh := read(x);
              yh := read(y);
              if yh = 1 then { write(z = (xh > 10)) }
              else { write(z = (xh > 100)) }
            }
            """
        )
        table = build_symbolic_table(tx)
        assert len(table) == 4
        for vx in (5, 10, 11, 100, 101):
            for vy in (0, 1):
                _soundness_check(tx, {"x": vx, "y": vy})

    def test_uninitialized_temp_detected(self):
        tx = parse_transaction("if ghost < 1 then { write(x = 1) } else { skip }")
        with pytest.raises(AnalysisError):
            build_symbolic_table(tx)


class TestParameterizedTables:
    def test_param_guard(self):
        tx = parse_transaction(
            "transaction Buy(i) { q := read(qty(@i)); "
            "if q > 1 then { write(qty(@i) = q - 1) } else { write(qty(@i) = 9) } }"
        )
        table = build_symbolic_table(tx)
        assert len(table) == 2
        db = {"qty[3]": 5}
        row = table.lookup(lambda n: db.get(n, 0), params={"i": 3})
        assert "> 1" in row.guard.pretty()

    @settings(max_examples=examples(40))
    @given(q=st.integers(-2, 12), item=st.integers(0, 4))
    def test_param_soundness(self, q, item):
        tx = parse_transaction(
            "transaction Buy(i) { q := read(qty(@i)); "
            "if q > 1 then { write(qty(@i) = q - 1) } else { write(qty(@i) = 9) } }"
        )
        _soundness_check(tx, {f"qty[{item}]": q}, params={"i": item})


class TestAliasing:
    ALIAS_SRC = """
    transaction T(a, b) {
      write(q(@a) = 5);
      v := read(q(@b));
      if v < 3 then { write(out = 1) } else { write(out = 2) }
    }
    """

    def test_alias_case_split(self):
        """Writing q(@a) then branching on q(@b) needs an a=b split."""
        tx = parse_transaction(self.ALIAS_SRC)
        table = build_symbolic_table(tx)
        # 2 branches x 2 alias cases, minus the pruned (a=b and 5<3) case.
        assert len(table) == 3

    @settings(max_examples=examples(50))
    @given(
        a=st.integers(0, 2),
        b=st.integers(0, 2),
        q=st.lists(st.integers(-5, 8), min_size=3, max_size=3),
    )
    def test_alias_soundness(self, a, b, q):
        tx = parse_transaction(self.ALIAS_SRC)
        db = {f"q[{k}]": v for k, v in enumerate(q)}
        _soundness_check(tx, db, params={"a": a, "b": b})

    def test_distinct_assumption_removes_split(self):
        src = self.ALIAS_SRC.replace("T(a, b)", "T(a, b) distinct(a, b)")
        tx = parse_transaction(src)
        table = build_symbolic_table(tx)
        assert len(table) == 2  # no alias split needed


# -- randomized program soundness ------------------------------------------------


@st.composite
def _random_transaction(draw):
    """Small random L transactions over objects x, y, z."""
    objs = ["x", "y", "z"]
    depth = draw(st.integers(1, 3))

    def gen_expr():
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return str(draw(st.integers(-9, 9)))
        if kind == 1:
            return f"read({draw(st.sampled_from(objs))})"
        if kind == 2:
            return f"(read({draw(st.sampled_from(objs))}) + {draw(st.integers(-5, 5))})"
        return f"(read({draw(st.sampled_from(objs))}) * {draw(st.integers(-3, 3))})"

    def gen_stmt(d):
        kind = draw(st.integers(0, 3 if d > 0 else 2))
        if kind == 0:
            return f"write({draw(st.sampled_from(objs))} = {gen_expr()})"
        if kind == 1:
            return f"print({gen_expr()})"
        if kind == 2:
            return f"write({draw(st.sampled_from(objs))} = {gen_expr()})"
        cond = f"{gen_expr()} {draw(st.sampled_from(['<', '<=', '=']))} {gen_expr()}"
        return (
            f"if {cond} then {{ {gen_block(d - 1)} }} "
            f"else {{ {gen_block(d - 1)} }}"
        )

    def gen_block(d):
        n = draw(st.integers(1, 2))
        return "; ".join(gen_stmt(d) for _ in range(n))

    return gen_block(depth)


@settings(max_examples=examples(60), deadline=None)
@given(
    src=_random_transaction(),
    vx=st.integers(-10, 10),
    vy=st.integers(-10, 10),
    vz=st.integers(-10, 10),
)
def test_random_program_soundness(src, vx, vy, vz):
    """PROPERTY (Section 2.2): Eval(T, D) == Eval(matched residual, D)."""
    tx = parse_transaction(src)
    _soundness_check(tx, {"x": vx, "y": vy, "z": vz})
