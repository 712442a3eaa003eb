"""Tests for the procedure-level verdicts of the classification golden.

``tools/gen_classification.py`` rolls each procedure's path check kinds
(what :func:`repro.analysis.pathsplit.build_path_checks` selects, and a
site holds as ``path_checks``) up to one verdict: FREE, PATH_SENSITIVE
or TREATY.  The path kinds themselves are ``test_pathsplit.py``'s.
"""

import sys
from pathlib import Path

from repro.analysis.pathsplit import build_path_checks
from repro.analysis.symbolic import build_symbolic_table
from repro.lang.parser import parse_transaction
from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.terms import ObjT
from repro.protocol.catalog import StoredProcedureCatalog
from repro.treaty.table import LocalTreaty

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
from gen_classification import verdict  # noqa: E402


def _le(coeffs, bound):
    expr = LinearExpr.make({ObjT(name): c for name, c in coeffs.items()})
    return LinearConstraint.make(expr, "<=", bound)


class TestRollup:
    def test_all_free_rolls_to_free(self):
        assert verdict(["free", "free"]) == "FREE"

    def test_mixed_rolls_to_path_sensitive(self):
        assert verdict(["free", "full"]) == "PATH_SENSITIVE"
        assert verdict(["full", "free"]) == "PATH_SENSITIVE"

    def test_all_checked_rolls_to_treaty(self):
        assert verdict(["full", "full"]) == "TREATY"

    def test_rollup_vocabulary(self):
        for kinds in (["free"], ["full"], ["free", "full"], ["full", "full"]):
            assert verdict(kinds) in ("FREE", "PATH_SENSITIVE", "TREATY")


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

    def _verdicts(self, treaty):
        paths = build_path_checks(self._catalog(), treaty)
        return {
            tx: verdict([check.kind for check in checks])
            for tx, checks in paths.items()
        }

    def test_against_treaty(self):
        treaty = LocalTreaty(site=0, constraints=[_le({"x": 1}, 20)])
        assert self._verdicts(treaty) == {"Incr": "PATH_SENSITIVE"}

    def test_no_treaty_is_all_free(self):
        assert self._verdicts(None) == {"Incr": "FREE"}
