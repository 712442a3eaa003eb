"""Tests for residual optimization (dead reads, linear cancellation)."""

from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.residual import (
    eliminate_dead_assignments,
    optimize_residual,
    residual_reads,
    simplify_writes_linear,
)
from repro.analysis.symbolic import build_symbolic_table
from repro.lang.ast import Transaction
from repro.lang.interp import evaluate
from repro.lang.parser import parse_transaction


def _body(src, params=()):
    return parse_transaction(src, params=params).body


class TestDeadAssignments:
    def test_dead_read_removed(self):
        body = _body("a := read(x); b := read(y); write(z = a + 1)")
        out = eliminate_dead_assignments(body)
        assert "read(y)" not in out.pretty()

    def test_live_chain_kept(self):
        body = _body("a := read(x); b := a + 1; write(z = b)")
        out = eliminate_dead_assignments(body)
        assert "read(x)" in out.pretty()

    def test_print_keeps_reads_live(self):
        body = _body("a := read(x); print(a)")
        out = eliminate_dead_assignments(body)
        assert "read(x)" in out.pretty()

    def test_array_index_uses_are_live(self):
        body = _body("i := read(sel); write(a(i) = 1)")
        out = eliminate_dead_assignments(body)
        assert "read(sel)" in out.pretty()


class TestLinearCancellation:
    def test_figure_23_cancellation(self):
        """Appendix B: w(dx1 = xh - 1 - r(x)) with xh = r(x) + r(dx1)
        simplifies to w(dx1 = r(dx1) - 1)."""
        body = _body(
            "xh := read(x) + read(dx1); write(dx1 = xh - 1 - read(x))"
        )
        out = optimize_residual(body)
        rendered = out.pretty()
        assert "read(x)" not in rendered
        assert "read(dx1)" in rendered

    def test_nonlinear_left_alone(self):
        body = _body("a := read(x); write(z = a * a)")
        out = simplify_writes_linear(body)
        db = {"x": 7}
        before = evaluate(Transaction("b", (), body), db)
        after = evaluate(Transaction("a", (), out), db)
        assert before.db == after.db

    def test_reads_through_params_kept(self):
        body = _body("q := read(qty(@i)); write(qty(@i) = q - 1)", params=("i",))
        out = optimize_residual(body)
        assert "qty" in out.pretty()


class TestResidualReads:
    def test_ground_reads(self):
        body = _body("a := read(x); write(z = a + read(y))")
        reads = residual_reads(optimize_residual(body))
        assert reads == {"x", "y"}

    def test_dead_reads_not_reported(self):
        body = _body("a := read(x); b := read(y); write(z = a)")
        reads = residual_reads(optimize_residual(body))
        assert reads == {"x"}

    def test_parameterized_read_reported_structurally(self):
        body = _body("q := read(qty(@i)); write(qty(@i) = q - 1)", params=("i",))
        reads = residual_reads(body)
        assert any(isinstance(r, tuple) and r[0] == "qty" for r in reads)


# -- semantics preservation property ------------------------------------------------


@st.composite
def _straightline(draw):
    objs = ["x", "y", "z", "w"]
    n = draw(st.integers(1, 6))
    lines = []
    temps = []
    for i in range(n):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            name = f"t{i}"
            coeff = draw(st.integers(-3, 3))
            src = draw(st.sampled_from(objs + temps)) if temps else draw(st.sampled_from(objs))
            ref = f"read({src})" if src in objs else src
            lines.append(f"{name} := {ref} * {coeff} + {draw(st.integers(-5, 5))}")
            temps.append(name)
        elif kind == 1 and temps:
            target = draw(st.sampled_from(objs))
            lines.append(f"write({target} = {draw(st.sampled_from(temps))} + read({target}))")
        else:
            target = draw(st.sampled_from(objs))
            lines.append(f"write({target} = read({target}) + {draw(st.integers(-4, 4))})")
    if draw(st.booleans()) and temps:
        lines.append(f"print({draw(st.sampled_from(temps))})")
    return "; ".join(lines)


@settings(max_examples=examples(80), deadline=None)
@given(
    src=_straightline(),
    db=st.fixed_dictionaries(
        {k: st.integers(-10, 10) for k in ("x", "y", "z", "w")}
    ),
)
def test_optimize_residual_preserves_semantics(src, db):
    body = _body(src)
    before = evaluate(Transaction("b", (), body), db)
    after = evaluate(Transaction("a", (), optimize_residual(body)), db)
    assert before.db == after.db and before.log == after.log


def test_optimized_tables_enable_assumption_41():
    """After optimization, T1's residual reads only x (Section 4's
    claim that Assumption 4.1 holds for T1/T2)."""
    table = build_symbolic_table(
        parse_transaction(
            """
            transaction T1() {
              xh := read(x); yh := read(y);
              if xh + yh < 10 then { write(x = xh + 1) } else { write(x = xh - 1) }
            }
            """
        )
    )
    for row in table.rows:
        assert residual_reads(row.residual) == {"x"}
