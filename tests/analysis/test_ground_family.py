"""Grounding a family once (repro.analysis.ground.ground_family).

Every instance table :func:`ground_family` derives from its family's
one symbolic table must equal the table the instance gets analysed on
its own (:func:`ground_instances` + :func:`build_symbolic_table`): the
same rows in the same order, the same transaction, the same name.
"""

import pytest
from conftest import examples
from hypothesis import given, settings

import repro.analysis.ground as ground_module
import repro.workloads.common as common_module
from repro.analysis.ground import (
    GroundingDivergence,
    ground_family,
    ground_instances,
)
from repro.analysis.symbolic import (
    MAX_ALIAS_SPLIT,
    AnalysisError,
    Row,
    build_symbolic_table,
)
from repro.fuzz.generators import FuzzWorkload
from repro.fuzz.strategies import fuzz_specs
from repro.lang.ast import Skip
from repro.lang.parser import parse_transaction
from repro.workloads import (
    BankingWorkload,
    FlashSaleWorkload,
    GeoMicroWorkload,
    MicroWorkload,
    QuotaWorkload,
    TpccWorkload,
)


def reference(tx, domains):
    return [
        build_symbolic_table(gi.transaction) for gi in ground_instances(tx, domains)
    ]


def assert_grounds_like_reference(tx, domains, table=None):
    tables = ground_family(tx, domains, table)
    assert tables == reference(tx, domains)
    return tables


def reference_ground_tables(workload):
    tables = workload.variant_tables()
    return [
        (build_symbolic_table(gi.transaction), site)
        for tx, domains, site in workload.ground_families(tables)
        for gi in ground_instances(tx, domains)
    ]


class TestCommittedWorkloads:
    @pytest.mark.parametrize(
        "make",
        [
            MicroWorkload,
            lambda: MicroWorkload(items_per_txn=2),
            TpccWorkload,
            BankingWorkload,
            FlashSaleWorkload,
            QuotaWorkload,
            GeoMicroWorkload,
        ],
        ids=["micro", "micro-2-item", "tpcc", "banking", "flashsale", "quota", "geo"],
    )
    def test_instance_tables_equal_the_per_instance_analysis(self, make):
        workload = make()
        ground = workload.ground_tables()
        expect = reference_ground_tables(workload)
        assert len(ground) == len(expect) > 0
        for (table, site), (want, want_site) in zip(ground, expect):
            assert table.transaction.name == want.transaction.name
            assert (table, site) == (want, want_site)


@settings(max_examples=examples(30), deadline=None)
@given(spec=fuzz_specs())
def test_generated_families_ground_like_their_instances(spec):
    workload = FuzzWorkload(fuzz=spec)
    assert workload.ground_tables() == reference_ground_tables(workload)


class TestHandCases:
    MOVE = """
    transaction Move(a, b) {distinct} {
      write(q(@a) = read(q(@a)) - 1);
      if read(q(@b)) >= 2 then { write(q(@b) = read(q(@b)) - 2) } else { skip }
    }
    """

    def move(self, distinct):
        return parse_transaction(
            self.MOVE.replace("{distinct}", "distinct(a, b)" if distinct else "")
        )

    def test_two_parameters_indexing_one_array(self):
        tx = self.move(distinct=False)
        family = build_symbolic_table(tx)
        tables = assert_grounds_like_reference(tx, {"a": [0, 1], "b": [0, 1]})
        assert len(tables) == 4
        # The family splits on whether @a and @b alias; each instance
        # keeps only the side its values take.
        assert all(len(table) < len(family) for table in tables)

    def test_two_parameters_declared_distinct(self):
        tx = self.move(distinct=True)
        tables = assert_grounds_like_reference(tx, {"a": [0, 1, 2], "b": [0, 1, 2]})
        # The diagonal is excluded, exactly as ground_instances excludes it.
        assert [t.transaction.name for t in tables] == [
            gi.transaction.name
            for gi in ground_instances(tx, {"a": [0, 1, 2], "b": [0, 1, 2]})
        ]
        assert len(tables) == 6

    def test_assume_distinct_excludes_within_a_group_only(self):
        tx = parse_transaction(
            "transaction T(a, b, c) distinct(a, b) "
            "{ write(q(@a) = @c); write(q(@b) = read(q(@a)) + @c) }"
        )
        tables = assert_grounds_like_reference(
            tx, {"a": [0, 1], "b": [0, 1], "c": [3, 4]}
        )
        assert len(tables) == 4  # (0,1) and (1,0), each with either c

    def test_a_row_false_only_after_substitution_is_dropped(self):
        tx = parse_transaction(
            "transaction T(a) { if @a > 1 then { write(x = 1) } else { write(x = 2) } }"
        )
        assert len(build_symbolic_table(tx)) == 2
        tables = assert_grounds_like_reference(tx, {"a": [0, 1, 2, 3]})
        assert [len(table) for table in tables] == [1, 1, 1, 1]

    def test_alias_split_over_the_limit_raises_like_its_instances(self):
        reads = " + ".join(f"read(q(read(i{k})))" for k in range(MAX_ALIAS_SPLIT + 1))
        tx = parse_transaction(
            f"transaction T(a) {{ write(q(@a) = 0); "
            f"if {reads} > 0 then {{ write(y = 1) }} else {{ skip }} }}"
        )
        with pytest.raises(AnalysisError, match="ambiguous aliases"):
            ground_family(tx, {"a": [0, 1]})
        for gi in ground_instances(tx, {"a": [0, 1]}):
            with pytest.raises(AnalysisError, match="ambiguous aliases"):
                build_symbolic_table(gi.transaction)

    def test_a_table_of_another_family_is_refused(self):
        tx = self.move(distinct=False)
        other = build_symbolic_table(self.move(distinct=True))
        with pytest.raises(ValueError, match="given for family"):
            ground_family(tx, {"a": [0], "b": [1]}, other)


class TestValidateOracle:
    def test_a_corrupted_instance_row_is_a_divergence(self, monkeypatch):
        workload = MicroWorkload(num_items=4, num_sites=2)
        grounded = common_module.ground_family

        def corrupt_one(tx, domains, table=None):
            tables = grounded(tx, domains, table)
            first = tables[1]
            row = first.rows[0]
            first.rows[0] = Row(row.guard, Skip())
            return tables

        monkeypatch.setattr(common_module, "ground_family", corrupt_one)
        workload.cluster_spec()  # validate off: nothing compares
        with pytest.raises(GroundingDivergence, match=r"Buy@s0#item=1"):
            workload.cluster_spec(validate=True)


def test_grounding_tpcc_analyses_each_variant_once(monkeypatch):
    """The default TPC-C spec runs Figure 6 once per variant (three
    families at two sites), not once per ground instance."""
    analyses = []
    build = build_symbolic_table

    def counted(tx, *args, **kwargs):
        analyses.append(tx.name)
        return build(tx, *args, **kwargs)

    monkeypatch.setattr(common_module, "build_symbolic_table", counted)
    monkeypatch.setattr(ground_module, "build_symbolic_table", counted)
    workload = TpccWorkload()
    spec = workload.cluster_spec(strategy="optimized")
    assert sorted(analyses) == sorted(workload.variants) and len(analyses) == 6
    assert len(spec.ground_tables) == 2008
    assert len(spec.tables) == 6

