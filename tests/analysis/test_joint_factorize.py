"""Tests for joint tables (Section 2.2) and factorization (Section 5.1)."""

import pytest

from repro.analysis.ground import ground_instances
from repro.analysis.joint import JointTableError, build_joint_table
from repro.analysis.symbolic import build_symbolic_table
from repro.lang.parser import parse_transaction
from repro.logic.formula import conj
from repro.protocol.homeostasis import TreatyGenerator

T1_SRC = """
transaction T1() {
  xh := read(x); yh := read(y);
  if xh + yh < 10 then { write(x = xh + 1) } else { write(x = xh - 1) }
}
"""
T2_SRC = """
transaction T2() {
  xh := read(x); yh := read(y);
  if xh + yh < 20 then { write(y = yh + 1) } else { write(y = yh - 1) }
}
"""


def _tables(*sources):
    return [build_symbolic_table(parse_transaction(s)) for s in sources]


class TestJointTable:
    def test_figure_4c_three_rows(self):
        joint = build_joint_table(_tables(T1_SRC, T2_SRC))
        assert len(joint) == 3  # the (x+y<10, x+y>=20) combo is pruned
        guards = [row.guard.pretty() for row in joint.rows]
        assert "(x + y) < 10" in guards

    def test_unsimplified_keeps_product(self):
        joint = build_joint_table(_tables(T1_SRC, T2_SRC), simplify=False)
        assert len(joint) == 4

    def test_lookup_unique(self):
        joint = build_joint_table(_tables(T1_SRC, T2_SRC))
        db = {"x": 10, "y": 13}
        row = joint.lookup(lambda n: db.get(n, 0))
        assert row.guard.evaluate(lambda n: db.get(n, 0))
        assert len(row.residuals) == 2

    def test_residual_for(self):
        joint = build_joint_table(_tables(T1_SRC, T2_SRC))
        db = {"x": 0, "y": 0}
        row = joint.lookup(lambda n: db.get(n, 0))
        residual = joint.residual_for(row, "T2")
        assert "y" in residual.pretty()

    def test_param_renaming(self):
        a = build_symbolic_table(
            parse_transaction(
                "transaction A(p) { q := read(x); "
                "if q < @p then { write(x = q + 1) } else { write(x = q - 1) } }"
            )
        )
        b = build_symbolic_table(
            parse_transaction(
                "transaction B(p) { q := read(x); "
                "if q < @p then { write(x = q + 2) } else { write(x = q - 2) } }"
            )
        )
        joint = build_joint_table([a, b])
        names = {p.name for row in joint.rows for p in row.guard.params()}
        assert names <= {"A.p", "B.p"}

    def test_duplicate_names_rejected(self):
        t = _tables(T1_SRC)[0]
        with pytest.raises(JointTableError):
            build_joint_table([t, t])

    def test_empty_rejected(self):
        with pytest.raises(JointTableError):
            build_joint_table([])


A_SRC = (
    "transaction A() { t := read(x); "
    "if t < 5 then { write(x = t + 1) } else { write(x = 0) } }"
)
B_SRC = (
    "transaction B() { t := read(y); "
    "if t < 7 then { write(y = t + 1) } else { write(y = 0) } }"
)


def _generator(tables):
    """A one-site treaty generator over ground tables (Section 5.1's
    live path: one lookup per instance, no joint table)."""
    return TreatyGenerator(
        ground_tables=[(table, 0) for table in tables],
        locate=lambda _name: 0,
        sites=(0,),
    )


class TestFactorization:
    """Section 5.1 without a factorized table: the joint row matching a
    database is the conjunction of the rows each table matches, so the
    generator looks every instance up on its own and a changed object
    re-derives only the instances depending on it."""

    def test_independent_split(self):
        generator = _generator(_tables(A_SRC, B_SRC))
        assert generator.instances_touching({"x"}) == {0}
        assert generator.instances_touching({"y"}) == {1}

    def test_dependent_merge(self):
        generator = _generator(_tables(T1_SRC, T2_SRC))
        assert generator.instances_touching({"x"}) == {0, 1}
        assert generator.instances_touching({"y"}) == {0, 1}

    def test_lookup_assembles_across_factors(self):
        generator = _generator(_tables(A_SRC, B_SRC))
        db = {"x": 2, "y": 9}
        table = generator.generate(lambda n: db.get(n, 0), dict(db), 1)
        objects = {
            obj.name
            for con in table.global_treaty.constraints
            for obj in con.variables()
        }
        assert objects == {"x", "y"}
        assert generator.instances_recomputed == 2
        db["x"] = 3
        generator.generate(lambda n: db.get(n, 0), dict(db), 2, dirty={"x"})
        assert generator.instances_recomputed == 3

    def test_factorized_matches_full_joint(self):
        """The conjunction of the per-table lookups is the monolithic
        joint table's lookup on every database."""
        tables = _tables(A_SRC, B_SRC, T1_SRC)
        full = build_joint_table(tables)
        for vx in range(-1, 12, 3):
            for vy in range(-1, 12, 4):
                db = {"x": vx, "y": vy}
                lookup = lambda n: db.get(n, 0)  # noqa: E731
                rows = [table.lookup(lookup) for table in tables]
                joint = full.lookup(lookup)
                assert conj([row.guard for row in rows]).evaluate(lookup)
                assert [r.pretty() for r in joint.residuals] == [
                    row.residual.pretty() for row in rows
                ]

    def test_scale_many_items(self):
        """Grounding a parameterized family over n items yields n
        instances, each depending on its own object only (what makes
        TPC-C tractable)."""
        family = parse_transaction(
            "transaction Buy(i) { q := read(qty(@i)); "
            "if q > 1 then { write(qty(@i) = q - 1) } else { write(qty(@i) = 9) } }"
        )
        tables = [
            build_symbolic_table(gi.transaction)
            for gi in ground_instances(family, {"i": range(30)})
        ]
        generator = _generator(tables)
        for i in range(30):
            assert generator.instances_touching({f"qty[{i}]"}) == {i}
