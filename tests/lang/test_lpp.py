"""Tests for L++ desugaring (Appendix A encodings)."""

import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.interp import evaluate
from repro.lang.lpp import (
    DesugarError,
    desugar_transaction,
    is_core_l,
)
from repro.lang.parser import parse_program, parse_transaction


def _eval_all(tx, db, params=None, arrays=None):
    return evaluate(tx, db, params=params, arrays=arrays)


class TestForeachUnrolling:
    def test_unroll_matches_interpretation(self):
        prog = parse_program(
            """
            array a[5]
            transaction T() { foreach i in a { write(a(i) = i + 100) } }
            """
        )
        tx = prog.transactions["T"]
        unrolled = desugar_transaction(tx, prog.arrays, mode="expand")
        direct = _eval_all(tx, {}, arrays=prog.arrays)
        lowered = _eval_all(unrolled, {})
        assert direct.db == lowered.db

    def test_unroll_undeclared_array(self):
        tx = parse_transaction("foreach i in nope { skip }")
        with pytest.raises(DesugarError):
            desugar_transaction(tx, {}, mode="expand")

    def test_loop_var_reassignment_rejected(self):
        tx = parse_transaction("foreach i in a { i := 0 }")
        with pytest.raises(DesugarError):
            desugar_transaction(tx, {"a": (3,)}, mode="expand")

    def test_nested_foreach(self):
        prog = parse_program(
            """
            array a[2]
            array b[3]
            transaction T() {
              foreach i in a { foreach j in b { write(m(i, j) = i * 10 + j) } }
            }
            """
        )
        tx = prog.transactions["T"]
        lowered = desugar_transaction(tx, prog.arrays, mode="expand")
        out = _eval_all(lowered, {})
        assert out.db["m[1,2]"] == 12
        assert len(out.db) == 6


class TestDynamicAccessExpansion:
    def test_dynamic_read_expands_to_core_l(self):
        prog = parse_program(
            """
            array a[4]
            transaction T() { i := read(sel); v := read(a(i)); write(out = v) }
            """
        )
        tx = desugar_transaction(prog.transactions["T"], prog.arrays, mode="expand")
        assert is_core_l(tx.body)
        out = _eval_all(tx, {"sel": 2, "a[2]": 99})
        assert out.db["out"] == 99

    def test_dynamic_write_expands(self):
        prog = parse_program(
            """
            array a[4]
            transaction T() { i := read(sel); write(a(i) = 7) }
            """
        )
        tx = desugar_transaction(prog.transactions["T"], prog.arrays, mode="expand")
        assert is_core_l(tx.body)
        out = _eval_all(tx, {"sel": 3})
        assert out.db["a[3]"] == 7

    def test_out_of_bounds_read_is_zero(self):
        prog = parse_program(
            "array a[2] transaction T() { i := read(sel); write(out = read(a(i))) }"
        )
        tx = desugar_transaction(prog.transactions["T"], prog.arrays, mode="expand")
        out = _eval_all(tx, {"sel": 9, "a[0]": 5, "a[1]": 6})
        assert out.db["out"] == 0

    def test_out_of_bounds_write_is_noop(self):
        prog = parse_program(
            "array a[2] transaction T() { i := read(sel); write(a(i) = 1) }"
        )
        tx = desugar_transaction(prog.transactions["T"], prog.arrays, mode="expand")
        out = _eval_all(tx, {"sel": 5})
        assert all(not k.startswith("a[") or out.db[k] == 0 for k in out.db)

    def test_write_value_evaluated_once(self):
        # The bound temp ensures reads in the value expression are not
        # duplicated per branch of the cascade.
        prog = parse_program(
            "array a[3] transaction T() { i := read(sel); write(a(i) = read(v) + 1) }"
        )
        tx = desugar_transaction(prog.transactions["T"], prog.arrays, mode="expand")
        out = _eval_all(tx, {"sel": 1, "v": 41})
        assert out.db["a[1]"] == 42

    def test_expansion_limit(self):
        prog = parse_program(
            "array big[100000] transaction T() { i := read(sel); write(big(i) = 1) }"
        )
        with pytest.raises(DesugarError):
            desugar_transaction(prog.transactions["T"], prog.arrays, mode="expand")


class TestParameterizedMode:
    def test_param_access_stays_compressed(self):
        tx = parse_transaction(
            "transaction T(i) { q := read(a(@i)); write(a(@i) = q - 1) }"
        )
        lowered = desugar_transaction(tx, {"a": (10,)}, mode="parameterized")
        assert lowered == tx  # already in compressed form

    def test_data_dependent_access_still_expands(self):
        prog = parse_program(
            "array a[3] transaction T() { i := read(sel); write(a(i) = 1) }"
        )
        tx = desugar_transaction(
            prog.transactions["T"], prog.arrays, mode="parameterized"
        )
        assert is_core_l(tx.body)

    def test_unknown_mode(self):
        tx = parse_transaction("skip")
        with pytest.raises(ValueError):
            desugar_transaction(tx, {}, mode="bogus")


def test_out_of_bounds_param_modes_differ_documented():
    """Boundary semantics: the expanded encoding bounds-checks (write
    outside the declared array is a no-op), while the compressed
    parameterized form writes the raw slot object.  In-bounds
    parameters are therefore a precondition of the compressed form;
    workload generators guarantee it by sampling from the declared
    domain."""
    prog = parse_program(
        "array a[4] transaction T(p) { write(a(@p) = 1) }"
    )
    tx = prog.transactions["T"]
    expanded = desugar_transaction(tx, prog.arrays, mode="expand")
    compressed = desugar_transaction(tx, prog.arrays, mode="parameterized")
    out_exp = evaluate(expanded, {}, params={"p": 9})
    out_cmp = evaluate(compressed, {}, params={"p": 9})
    assert "a[9]" not in out_exp.db or out_exp.db["a[9]"] == 0
    assert out_cmp.db["a[9]"] == 1


@settings(max_examples=examples(30))
@given(
    sel=st.integers(0, 3),
    init=st.lists(st.integers(-10, 10), min_size=4, max_size=4),
)
def test_expand_equals_parameterized_semantics(sel, init):
    """Both lowering modes agree with direct interpretation for
    in-bounds parameters."""
    prog = parse_program(
        """
        array a[4]
        transaction T(p) {
          q := read(a(@p));
          if q < 0 then { write(a(@p) = 0) } else { write(a(@p) = q + 1) }
        }
        """
    )
    tx = prog.transactions["T"]
    db = {f"a[{k}]": v for k, v in enumerate(init)}
    direct = evaluate(tx, db, params={"p": sel})
    for mode in ("expand", "parameterized"):
        lowered = desugar_transaction(tx, prog.arrays, mode=mode)
        out = evaluate(lowered, db, params={"p": sel})
        assert out.db == direct.db and out.log == direct.log
