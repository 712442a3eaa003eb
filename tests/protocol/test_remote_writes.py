"""Tests for the Appendix B transform (repro.protocol.remote_writes)."""

import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.residual import residual_reads
from repro.analysis.symbolic import build_symbolic_table
from repro.lang.interp import evaluate
from repro.lang.parser import parse_transaction
from repro.protocol.remote_writes import (
    ReplicationSpec,
    delta_base,
    initial_replicated_db,
    replicate_workload,
    transform_for_site,
)

FIG23_SRC = """
transaction F() {
  xh := read(x);
  if 0 < xh then { write(x = xh - 1) } else { write(x = 10) }
}
"""


def _spec(sites=(1, 2)):
    return ReplicationSpec(bases={"x": tuple(sites)}, home={"x": 1})


def _effective_x(db, sites=(1, 2)):
    return db.get("x", 0) + sum(db.get(delta_base("x", s), 0) for s in sites)


class TestFigure23:
    def test_writes_become_local(self):
        tx = transform_for_site(parse_transaction(FIG23_SRC), 1, _spec())
        rendered = tx.body.pretty()
        assert "write(x " not in rendered
        assert "write(x__d1" in rendered

    def test_reads_become_sums(self):
        tx = transform_for_site(parse_transaction(FIG23_SRC), 1, _spec())
        rendered = tx.body.pretty()
        assert "read(x)" in rendered and "read(x__d1)" in rendered

    def test_transform_preserves_effective_value(self):
        """The invariant value(x) = x + sum dx_i after any run."""
        original = parse_transaction(FIG23_SRC)
        for initial in (0, 1, 5):
            ref = evaluate(original, {"x": initial})
            for site in (1, 2):
                variant = transform_for_site(original, site, _spec())
                out = evaluate(variant, {"x": initial})
                assert _effective_x(out.db) == ref.db["x"]

    def test_decrement_residual_is_purely_local(self):
        """Figure 23c: after linear simplification, the decrement row
        reads only the site's own delta."""
        variant = transform_for_site(parse_transaction(FIG23_SRC), 1, _spec())
        table = build_symbolic_table(variant)
        decrement_rows = [
            row for row in table.rows if "0 <" in row.guard.pretty() or "> 0" in row.guard.pretty()
        ]
        assert decrement_rows
        for row in decrement_rows:
            assert residual_reads(row.residual) == {"x__d1"}

    def test_reset_residual_needs_remote_reads(self):
        """The write of an absolute value (10) cannot cancel: it reads
        the base and the other site's delta (this is what forces the
        synchronization on the refill path)."""
        variant = transform_for_site(parse_transaction(FIG23_SRC), 1, _spec())
        table = build_symbolic_table(variant)
        reset_rows = [row for row in table.rows if "10" in row.residual.pretty()]
        assert reset_rows
        for row in reset_rows:
            reads = residual_reads(row.residual)
            assert "x" in reads and "x__d2" in reads


class TestSpecMechanics:
    def test_locate_deltas(self):
        spec = _spec()
        assert spec.locate("x__d1") == 1
        assert spec.locate("x__d2") == 2
        assert spec.locate("x") == 1  # home
        assert spec.locate("unrelated", fallback=7) == 7

    def test_locate_array_deltas(self):
        spec = ReplicationSpec(bases={"qty": (0, 1)}, home={"qty": 0})
        assert spec.locate("qty__d1[44]") == 1
        assert spec.locate("qty[44]") == 0

    def test_initial_db_materializes_deltas(self):
        spec = ReplicationSpec(bases={"qty": (0, 1)}, home={"qty": 0})
        db = initial_replicated_db({"qty[3]": 7, "other": 1}, spec, (0, 1))
        assert db["qty[3]"] == 7
        assert db["qty__d0[3]"] == 0 and db["qty__d1[3]"] == 0
        assert "other__d0" not in db

    def test_writer_without_delta_rejected(self):
        spec = ReplicationSpec(bases={"x": (1, 2)}, home={"x": 1})
        with pytest.raises(ValueError):
            transform_for_site(parse_transaction(FIG23_SRC), 3, spec)

    def test_replicate_workload_names(self):
        variants = replicate_workload(
            [parse_transaction(FIG23_SRC)], (1, 2), _spec()
        )
        assert set(variants) == {"F@s1", "F@s2"}


class TestArrayTransform:
    SRC = """
    transaction Buy(i) {
      q := read(qty(@i));
      if q > 1 then { write(qty(@i) = q - 1) } else { write(qty(@i) = 9) }
    }
    """

    def test_parameterized_deltas(self):
        spec = ReplicationSpec(bases={"qty": (0, 1)}, home={"qty": 0})
        tx = transform_for_site(parse_transaction(self.SRC), 0, spec)
        rendered = tx.body.pretty()
        assert "qty__d0(@i)" in rendered

    @settings(max_examples=examples(40))
    @given(q=st.integers(-3, 12), item=st.integers(0, 3), site=st.integers(0, 1))
    def test_array_semantics_preserved(self, q, item, site):
        spec = ReplicationSpec(bases={"qty": (0, 1)}, home={"qty": 0})
        original = parse_transaction(self.SRC)
        variant = transform_for_site(original, site, spec)
        db = {f"qty[{item}]": q}
        ref = evaluate(original, db, params={"i": item})
        out = evaluate(variant, db, params={"i": item})
        effective = out.db.get(f"qty[{item}]", 0) + sum(
            out.db.get(f"qty__d{s}[{item}]", 0) for s in (0, 1)
        )
        assert effective == ref.db[f"qty[{item}]"]


@settings(max_examples=examples(50), deadline=None)
@given(
    initial=st.integers(-5, 15),
    moves=st.lists(st.tuples(st.integers(1, 2)), min_size=1, max_size=8),
)
def test_interleaved_transform_matches_serial(initial, moves):
    """PROPERTY: executing per-site transformed variants in any order
    on a shared store computes the same effective value as running the
    original transaction the same number of times serially.

    (This is the Abelian-group argument of Appendix B for integers:
    delta composition commutes as long as every variant reads the
    synchronized state, which a shared store models.)
    """
    original = parse_transaction(FIG23_SRC)
    spec = _spec()
    variants = {s: transform_for_site(original, s, spec) for s in (1, 2)}

    serial_db = {"x": initial}
    shared_db = {"x": initial}
    for (site,) in moves:
        serial_db = evaluate(original, serial_db).db
        shared_db = evaluate(variants[site], shared_db).db
    assert _effective_x(shared_db) == serial_db["x"]
