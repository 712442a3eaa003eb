"""Tests for per-path write summaries and the static check tier.

Several cases keep the name they had when the tier had two finer kinds
(``free-absorb``, ``partition``): the input is what the name describes,
the assertion is what such a path gets today -- the ``full`` check.
The write-summary cases named for a constant delta likewise name their
input; a summary records write bases only.
"""

import pytest

from repro.analysis.pathsplit import (
    CHECK_KINDS,
    ClauseSummary,
    PathCheck,
    base_of_name,
    build_path_checks,
    classify_path,
    decode_path_check,
    decode_path_checks,
    encode_path_checks,
    summarize_writes,
)
from repro.analysis.symbolic import build_symbolic_table
from repro.lang.parser import parse_transaction
from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.terms import ObjT
from repro.protocol.catalog import StoredProcedureCatalog
from repro.treaty.table import LocalTreaty

READ_ONLY_SRC = """
transaction Probe() {
  v := read(x);
  print(v)
}
"""

DRAIN_SRC = """
transaction Drain() {
  v := read(x);
  write(x = v - 1)
}
"""

DOUBLE_SRC = """
transaction Double() {
  v := read(x);
  write(x = v + v)
}
"""

PARAM_SRC = """
transaction BuyP(item) {
  v := read(qty(@item));
  write(qty(@item) = v - 1)
}
"""

GROUND_CELL_SRC = """
transaction Tap() {
  v := read(qty(0));
  write(qty(0) = v - 1)
}
"""


def _rows(source):
    table = build_symbolic_table(parse_transaction(source))
    return [row.residual for row in table.rows]


def _only_summary(source):
    (residual,) = _rows(source)
    return summarize_writes(residual)


def _le(coeffs, bound):
    expr = LinearExpr.make({ObjT(name): c for name, c in coeffs.items()})
    return LinearConstraint.make(expr, "<=", bound)


def _pin(name, value):
    return LinearConstraint.make(LinearExpr.make({ObjT(name): 1}), "=", value)


class TestSummarizeWrites:
    def test_read_only(self):
        summary = _only_summary(READ_ONLY_SRC)
        assert summary.read_only
        assert summary.bases == frozenset()

    def test_scalar_const_delta(self):
        summary = _only_summary(DRAIN_SRC)
        assert summary.bases == frozenset({"x"})

    def test_non_constant_delta(self):
        summary = _only_summary(DOUBLE_SRC)
        assert summary.bases == frozenset({"x"})

    def test_parameterized_target_is_not_ground(self):
        summary = _only_summary(PARAM_SRC)
        assert summary.bases == frozenset({"qty"})

    def test_ground_array_cell(self):
        summary = _only_summary(GROUND_CELL_SRC)
        assert summary.bases == frozenset({"qty"})


class TestClausebases:
    def test_scalars_and_cells(self):
        cons = (_le({"x": 1}, 10), _le({"qty[3]": 1, "qty[4]": -1}, 0))
        assert ClauseSummary.of(cons).mentions == {"x": 1, "qty": 2}


def _classify(summary, constraints, tx_name):
    return classify_path(
        summary, ClauseSummary.of(constraints).mentions.keys(), tx_name, 0
    )


class TestClassifyPath:
    def test_read_only_is_free(self):
        summary = _only_summary(READ_ONLY_SRC)
        check = _classify(summary, (_le({"x": 1}, 10),), "Probe")
        assert check.kind == "free"
        assert check.reason == "read-only"
        assert check.bypasses_check

    def test_disjoint_bases_are_free(self):
        summary = _only_summary(DRAIN_SRC)
        check = _classify(summary, (_le({"y": 1}, 10),), "Drain")
        assert check.kind == "free"
        assert check.reason == "untouched-invariants"
        assert check.bypasses_check

    def test_monotone_safe_delta_absorbs(self):
        # x <= 10 with delta -1: the write moves away from the bound,
        # but it writes a treaty base, so it is checked like any other.
        summary = _only_summary(DRAIN_SRC)
        check = _classify(summary, (_le({"x": 1}, 10),), "Drain")
        assert check.kind == "full"
        assert not check.bypasses_check

    def test_unsafe_delta_partitions(self):
        # x >= 1 normalizes to -x <= -1: delta -1 moves toward the bound.
        constraints = (_le({"x": -1}, -1), _le({"y": 1}, 5))
        summary = _only_summary(DRAIN_SRC)
        check = _classify(summary, constraints, "Drain")
        assert check.kind == "full"
        assert not check.bypasses_check

    def test_partition_selects_every_touching_clause(self):
        # A non-constant delta on a ground scalar two clauses mention.
        constraints = (
            _le({"x": -1}, -1),
            _le({"y": 1}, 5),
            _le({"x": 1, "y": 1}, 20),
        )
        summary = _only_summary(DOUBLE_SRC)
        assert _classify(summary, constraints, "Double").kind == "full"

    def test_pin_on_written_base_blocks_absorb(self):
        summary = _only_summary(DRAIN_SRC)
        assert _classify(summary, (_pin("x", 5),), "Drain").kind == "full"

    def test_parameterized_writes_fall_back_to_full(self):
        summary = _only_summary(PARAM_SRC)
        constraints = (_le({"qty[0]": -1}, -1),)
        check = _classify(summary, constraints, "BuyP")
        assert check.kind == "full"
        assert check.reason == "parameterized-writes"

    def test_ground_cell_partitions_against_cell_clauses(self):
        # The base decides, not the cell: qty[9]'s clause is enough.
        summary = _only_summary(GROUND_CELL_SRC)
        check = _classify(summary, (_le({"qty[9]": -1}, -1),), "Tap")
        assert check.kind == "full"
        assert _classify(summary, (_le({"x": -1}, -1),), "Tap").kind == "free"


class TestBuildAndCodec:
    def _catalog(self):
        catalog = StoredProcedureCatalog()
        catalog.register(build_symbolic_table(parse_transaction(DRAIN_SRC)))
        catalog.register(build_symbolic_table(parse_transaction(READ_ONLY_SRC)))
        return catalog

    def test_no_treaty_means_every_path_free(self):
        paths = build_path_checks(self._catalog(), None)
        assert set(paths) == {"Drain", "Probe"}
        for checks in paths.values():
            assert all(check.kind == "free" for check in checks)

    def test_build_against_treaty(self):
        treaty = LocalTreaty(site=0, constraints=[_le({"x": -1}, -1)])
        paths = build_path_checks(self._catalog(), treaty)
        (drain,) = paths["Drain"]
        assert drain.kind == "full"
        (probe,) = paths["Probe"]
        assert probe.kind == "free"

    def test_encode_decode_round_trip(self):
        treaty = LocalTreaty(site=0, constraints=[_le({"x": -1}, -1)])
        paths = build_path_checks(self._catalog(), treaty)
        payload = encode_path_checks(paths)
        assert decode_path_checks(payload) == paths

    def test_decode_single_check(self):
        # The third slot is reserved (always written empty, ignored on
        # read): the WAL record layout is fixed.
        check = decode_path_check("T", [2, "full", [0, 3], "parameterized-writes"])
        assert check == PathCheck("T", 2, "full", "parameterized-writes")
        assert check.encode() == [2, "full", [], "parameterized-writes"]

    def test_kind_vocabulary_is_closed(self):
        treaty = LocalTreaty(site=0, constraints=[_le({"x": -1}, -1)])
        for checks in build_path_checks(self._catalog(), treaty).values():
            for check in checks:
                assert check.kind in CHECK_KINDS


class TestBranchedProcedure:
    def test_each_row_gets_its_own_check(self):
        src = """
        transaction Incr() {
          v := read(x);
          if v < 10 then { write(x = v + 1) } else { print(v) }
        }
        """
        catalog = StoredProcedureCatalog()
        catalog.register(build_symbolic_table(parse_transaction(src)))
        treaty = LocalTreaty(site=0, constraints=[_le({"x": 1}, 20)])
        checks = build_path_checks(catalog, treaty)["Incr"]
        kinds = {check.row_index: check.kind for check in checks}
        # The increment path moves x toward its bound; the print path
        # writes nothing at all.
        assert sorted(kinds.values()) == ["free", "full"]


@pytest.mark.parametrize(
    "name,expected",
    [("x", "x"), ("qty[7]", "qty"), ("daymin[2]", "daymin")],
)
def test_base_of_name(name, expected):
    assert base_of_name(name) == expected
