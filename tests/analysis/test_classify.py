"""Tests for the coordination-freedom classifier and its witnesses."""

import dataclasses

import pytest

from repro.analysis.classify import (
    PATH_VERDICTS,
    VERDICTS,
    ClassificationError,
    check_witness,
    classify_catalog,
    classify_procedure,
    classify_row,
)
from repro.analysis.pathsplit import summarize_writes
from repro.analysis.symbolic import build_symbolic_table
from repro.lang.parser import parse_transaction
from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.terms import ObjT
from repro.protocol.catalog import StoredProcedureCatalog
from repro.treaty.table import LocalTreaty


def _summary(source):
    table = build_symbolic_table(parse_transaction(source))
    (row,) = table.rows
    return summarize_writes(row.residual)


def _le(coeffs, bound):
    expr = LinearExpr.make({ObjT(name): c for name, c in coeffs.items()})
    return LinearConstraint.make(expr, "<=", bound)


def _pin(name, value):
    return LinearConstraint.make(LinearExpr.make({ObjT(name): 1}), "=", value)


READ_ONLY = _summary("transaction P() { v := read(x); print(v) }")
DRAIN = _summary("transaction D() { v := read(x); write(x = v - 1) }")
BUMP = _summary("transaction B() { v := read(x); write(x = v + 1) }")
PARAM = _summary(
    "transaction Q(i) { v := read(qty(@i)); write(qty(@i) = v - 1) }"
)


class TestClassifyRow:
    def test_read_only_is_free_and_checkable(self):
        constraints = (_le({"x": 1}, 10),)
        path, check = classify_row(READ_ONLY, constraints, "P", 0)
        assert path.verdict == "FREE"
        assert path.reason == "read-only"
        assert check.kind == "free"
        check_witness(path, READ_ONLY, constraints)

    def test_untouched_invariants_is_free(self):
        constraints = (_le({"y": 1}, 10),)
        path, check = classify_row(DRAIN, constraints, "D", 0)
        assert path.verdict == "FREE"
        assert path.reason == "untouched-invariants"
        assert check.kind == "free"
        check_witness(path, DRAIN, constraints)

    def test_monotone_safe_is_free_absorb(self):
        # (Named for the kind such a path once got.)  A delta moving
        # away from its bound still writes a treaty base: TREATY.
        constraints = (_le({"x": 1}, 10),)
        path, check = classify_row(DRAIN, constraints, "D", 0)
        assert path.verdict == "TREATY"
        assert check.kind == "full"
        check_witness(path, DRAIN, constraints)

    def test_constant_write_into_pin_is_sync(self):
        constraints = (_pin("x", 5),)
        path, check = classify_row(BUMP, constraints, "B", 0)
        assert path.verdict == "SYNC"
        assert path.reason == "breaks-pin"
        assert path.witness_dict()["pins"] == [(0, "x", 1)]
        # The runtime check is the full one; SYNC is the *verdict*.
        assert check.kind == "full"
        check_witness(path, BUMP, constraints)

    def test_parameterized_writes_are_treaty(self):
        constraints = (_le({"qty[0]": -1}, -1),)
        path, check = classify_row(PARAM, constraints, "Q", 0)
        assert path.verdict == "TREATY"
        assert check.kind == "full"
        check_witness(path, PARAM, constraints)

    def test_partitioned_treaty_witness(self):
        # A ground write into one of two clauses' bases.
        constraints = (_le({"x": -1}, -1), _le({"y": 1}, 5))
        path, check = classify_row(DRAIN, constraints, "D", 0)
        assert path.verdict == "TREATY"
        assert check.kind == "full"
        assert path.witness_dict() == {"write_bases": ["x"]}
        check_witness(path, DRAIN, constraints)

    def test_verdict_vocabulary(self):
        for constraints in ((), (_le({"x": 1}, 10),), (_pin("x", 5),)):
            for summary in (READ_ONLY, DRAIN, BUMP, PARAM):
                path, _ = classify_row(summary, constraints, "T", 0)
                assert path.verdict in PATH_VERDICTS


class TestRollup:
    def test_all_free_rolls_to_free(self):
        constraints = (_le({"y": 1}, 10),)
        cls, checks = classify_procedure(
            "T", [(0, READ_ONLY), (1, DRAIN)], constraints
        )
        assert cls.verdict == "FREE"
        assert cls.free_paths == (0, 1)
        assert all(check.bypasses_check for check in checks)

    def test_mixed_rolls_to_path_sensitive(self):
        constraints = (_le({"x": -1}, -1),)
        cls, _ = classify_procedure(
            "T", [(0, READ_ONLY), (1, DRAIN)], constraints
        )
        assert cls.verdict == "PATH_SENSITIVE"
        assert cls.free_paths == (0,)

    def test_all_checked_rolls_to_treaty(self):
        constraints = (_le({"x": -1}, -1), _le({"qty[0]": -1}, -1))
        cls, _ = classify_procedure("T", [(0, DRAIN), (1, PARAM)], constraints)
        assert cls.verdict == "TREATY"
        assert cls.free_paths == ()

    def test_all_sync_rolls_to_sync(self):
        constraints = (_pin("x", 5),)
        cls, _ = classify_procedure("T", [(0, BUMP)], constraints)
        assert cls.verdict == "SYNC"

    def test_rollup_vocabulary(self):
        constraints = (_le({"x": 1}, 10),)
        cls, _ = classify_procedure("T", [(0, DRAIN)], constraints)
        assert cls.verdict in VERDICTS


class TestWitnessTampering:
    def test_overlapping_free_witness_rejected(self):
        constraints = (_le({"y": 1}, 10),)
        path, _ = classify_row(DRAIN, constraints, "D", 0)
        forged = dataclasses.replace(
            path,
            witness=(("clause_bases", ["x"]), ("write_bases", ["x"])),
        )
        with pytest.raises(ClassificationError):
            check_witness(forged, DRAIN, constraints)

    def test_witness_must_match_actual_writes(self):
        constraints = (_le({"y": 1}, 10),)
        path, _ = classify_row(DRAIN, constraints, "D", 0)
        forged = dataclasses.replace(
            path,
            witness=(("clause_bases", ["y"]), ("write_bases", [])),
        )
        with pytest.raises(ClassificationError):
            check_witness(forged, DRAIN, constraints)

    def test_sync_witness_needs_pins(self):
        constraints = (_pin("x", 5),)
        path, _ = classify_row(BUMP, constraints, "B", 0)
        forged = dataclasses.replace(path, witness=(("pins", []),))
        with pytest.raises(ClassificationError):
            check_witness(forged, BUMP, constraints)

    def test_sync_witness_rejects_zero_delta(self):
        constraints = (_pin("x", 5),)
        path, _ = classify_row(BUMP, constraints, "B", 0)
        forged = dataclasses.replace(path, witness=(("pins", [(0, "x", 0)]),))
        with pytest.raises(ClassificationError):
            check_witness(forged, BUMP, constraints)

    def test_sync_witness_rejects_unwritten_base(self):
        constraints = (_pin("x", 5), _pin("z", 1))
        path, _ = classify_row(BUMP, constraints, "B", 0)
        forged = dataclasses.replace(path, witness=(("pins", [(1, "z", 1)]),))
        with pytest.raises(ClassificationError):
            check_witness(forged, BUMP, constraints)

    def test_unknown_verdict_rejected(self):
        constraints = (_le({"x": 1}, 10),)
        path, _ = classify_row(DRAIN, constraints, "D", 0)
        forged = dataclasses.replace(path, verdict="MAYBE")
        with pytest.raises(ClassificationError):
            check_witness(forged, DRAIN, constraints)


class TestClassifyCatalog:
    def _catalog(self):
        catalog = StoredProcedureCatalog()
        catalog.register(
            build_symbolic_table(
                parse_transaction(
                    """
                    transaction Incr() {
                      v := read(x);
                      if v < 10 then { write(x = v + 1) } else { print(v) }
                    }
                    """
                )
            )
        )
        return catalog

    def test_against_treaty(self):
        treaty = LocalTreaty(site=0, constraints=[_le({"x": 1}, 20)])
        verdicts = classify_catalog(self._catalog(), treaty)
        assert verdicts["Incr"].verdict == "PATH_SENSITIVE"

    def test_no_treaty_is_all_free(self):
        verdicts = classify_catalog(self._catalog(), None)
        assert verdicts["Incr"].verdict == "FREE"

    def test_every_witness_recheckable(self):
        treaty = LocalTreaty(site=0, constraints=[_le({"x": 1}, 20)])
        catalog = self._catalog()
        verdicts = classify_catalog(catalog, treaty)
        constraints = treaty.constraints
        for tx_name, classification in verdicts.items():
            procedures = catalog.procedures[tx_name]
            for proc, path in zip(procedures, classification.paths):
                check_witness(
                    path, summarize_writes(proc.row.residual), constraints
                )
