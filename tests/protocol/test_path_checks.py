"""Runtime tests for the path-sensitive treaty-check tier.

Covers the per-site check-kind counters, the full check on a
ground-write catalog against the oracle, the WAL round-trip of the path
table, the cluster-level classifier statistics, and -- as the
property-level safety net -- a Hypothesis differential oracle: random
micro runs in validate mode, where every bypassed check is executed
next to the full treaty check and any disagreement raises
:class:`PathCheckDivergence`.

Some cases keep the name they had when the tier had two finer kinds
(``free-absorb``, ``partition``); they feed the same input and assert
what such a path gets today, the ``full`` check.
"""

import random

from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pathsplit import PathCheckDivergence  # noqa: F401 (oracle)
from repro.analysis.symbolic import build_symbolic_table
from repro.lang.parser import parse_transaction
from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.terms import ObjT
from repro.protocol.site import SiteServer
from repro.storage.wal import (
    decode_recorded_paths,
    encode_local_treaty,
)
from repro.treaty.table import LocalTreaty
from repro.workloads.micro import MicroWorkload

DRAIN_SRC = """
transaction Drain() {
  v := read(x);
  write(x = v - 1)
}
"""

PROBE_SRC = """
transaction Probe() {
  v := read(x);
  print(v)
}
"""

BUYP_SRC = """
transaction BuyP(i) {
  v := read(qty(@i));
  write(qty(@i) = v - 1)
}
"""


def _le(coeffs, bound):
    expr = LinearExpr.make({ObjT(name): c for name, c in coeffs.items()})
    return LinearConstraint.make(expr, "<=", bound)


def _server(*sources, constraints=None, validate=True):
    server = SiteServer(site_id=0, locate=lambda name: 0)
    for src in sources:
        server.catalog.register(build_symbolic_table(parse_transaction(src)))
    if constraints is not None:
        server.validate = validate
        server.install_treaty(LocalTreaty(site=0, constraints=list(constraints)))
    return server


class TestCheckStatsCounters:
    def test_free_path_skips_check_and_counts(self):
        server = _server(DRAIN_SRC, constraints=[_le({"y": 1}, 10)])
        server.engine.poke("x", 5)
        result = server.execute("Drain")
        assert result.committed
        assert server.engine.peek("x") == 4
        stats = server.check_stats
        assert stats["free"] == 1
        assert stats["checked"] == 1
        assert stats["clauses_in_scope"] == 0

    def test_read_only_path_is_free(self):
        server = _server(PROBE_SRC, constraints=[_le({"x": 1}, 10)])
        assert server.execute("Probe").committed
        assert server.check_stats["free"] == 1

    def test_monotone_safe_path_counts_absorbed(self):
        server = _server(DRAIN_SRC, constraints=[_le({"x": 1}, 10)])
        server.engine.poke("x", 3)
        assert server.execute("Drain").committed
        stats = server.check_stats
        assert stats["full"] == 1
        assert stats["clauses_in_scope"] == 1

    def test_partition_counts_clauses_in_scope(self):
        # x >= 1 plus an unrelated clause: the scope reported is the
        # installed treaty (the dynamic check narrows it per object).
        server = _server(
            DRAIN_SRC, constraints=[_le({"x": -1}, -1), _le({"y": 1}, 10)]
        )
        server.engine.poke("x", 5)
        assert server.execute("Drain").committed
        stats = server.check_stats
        assert stats["full"] == 1
        assert stats["clauses_in_scope"] == 2

    def test_full_counts_whole_treaty(self):
        server = _server(
            BUYP_SRC,
            constraints=[_le({"qty[0]": -1}, 0), _le({"qty[1]": -1}, 0)],
        )
        server.engine.poke("qty[0]", 4)
        server.engine.poke("qty[1]", 4)
        assert server.execute("BuyP", params={"i": 0}).committed
        stats = server.check_stats
        assert stats["full"] == 1
        assert stats["clauses_in_scope"] == 2

    def test_counters_sum_to_checked(self):
        server = _server(
            DRAIN_SRC, PROBE_SRC, constraints=[_le({"x": -1}, -1)]
        )
        server.engine.poke("x", 10)
        for _ in range(4):
            server.execute("Drain")
            server.execute("Probe")
        stats = server.check_stats
        assert stats["checked"] == 8
        assert stats["free"] == stats["full"] == 4


class TestPartitionAgainstOracle:
    def _escrow_server(self, constraints):
        """A validate-mode server whose full checks run on its escrow
        account, the interpreted oracle beside every verdict."""
        server = _server(DRAIN_SRC, constraints=constraints)
        assert server.escrow is not None and server.validate
        return server

    def test_partition_detects_violation(self):
        server = self._escrow_server([_le({"x": -1}, -1)])
        server.engine.poke("x", 2)
        assert server.execute("Drain").committed  # x: 2 -> 1
        result = server.execute("Drain")  # x: 1 -> 0 violates x >= 1
        assert result.violated and not result.committed
        assert server.engine.peek("x") == 1  # aborted attempt rolled back
        assert result.violated_objects == frozenset({"x"})

    def test_partition_agrees_with_full_check_in_validate_mode(self):
        # validate is on and the escrow arm runs: any
        # disagreement with the interpreted oracle raises out of execute().
        server = _server(DRAIN_SRC, constraints=[_le({"x": -1}, -1), _le({"y": 1}, 5)])
        assert server.escrow is not None
        server.engine.poke("x", 6)
        verdicts = [server.execute("Drain").committed for _ in range(6)]
        assert verdicts == [True] * 5 + [False]
        assert server.check_stats["full"] == 6

    def test_unrelated_clause_violation_is_not_blamed(self):
        # The check must not charge the drain path for the y-clause:
        # with y already past its bound before the commit, H2 is broken
        # for y, but every clause over what the drain wrote still holds.
        server = self._escrow_server([_le({"x": -1}, -1), _le({"y": 1}, 5)])
        server.engine.poke("x", 4)
        server.engine.poke("y", 9)
        result = server.execute("Drain")
        assert result.committed and not result.violated_objects


class TestWalPathRecords:
    def _paths(self):
        server = _server(
            DRAIN_SRC, PROBE_SRC, constraints=[_le({"x": -1}, -1)]
        )
        return server, server.path_checks

    def test_encode_decode_round_trip(self):
        server, paths = self._paths()
        treaty = server.local_treaty
        record = encode_local_treaty(treaty, headroom=None, paths=paths)
        assert decode_recorded_paths(record) == paths

    def test_record_without_paths_decodes_to_none(self):
        server, _ = self._paths()
        record = encode_local_treaty(server.local_treaty)
        assert decode_recorded_paths(record) is None

    def test_install_logs_paths_to_wal(self):
        server, paths = self._paths()
        install_records = [
            rec for rec in server.wal.records() if rec["kind"] == "treaty_install"
        ]
        assert install_records
        assert decode_recorded_paths(install_records[-1]) == paths


class TestClusterClassifier:
    def _run(self, audit_fraction, txns=200, seed=7):
        workload = MicroWorkload(
            num_items=6,
            refill=40,
            num_sites=2,
            audit_fraction=audit_fraction,
        )
        cluster = workload.build_homeostasis(
            strategy="equal-split", seed=0, validate=True
        )
        rng = random.Random(seed)
        for _ in range(txns):
            request = workload.next_request(rng)
            cluster.submit(request.tx_name, request.params)
        return workload, cluster

    def test_audit_probes_are_free(self):
        _, cluster = self._run(audit_fraction=0.5)
        free = cluster.free_transactions()
        assert {"Audit@s0", "Audit@s1"} <= free
        assert "Buy@s0" not in free

    def test_classifier_stats_are_consistent(self):
        _, cluster = self._run(audit_fraction=0.5)
        stats = cluster.classifier_stats()
        assert stats["checked"] > 0
        assert stats["free"] + stats["full"] == stats["checked"]
        assert 0.0 < stats["free_ratio"] <= 1.0
        assert stats["checks_per_commit"] >= 0.0

    def test_pure_buy_mix_has_no_free_traffic_at_home(self):
        _, cluster = self._run(audit_fraction=0.0)
        assert "Audit@s0" not in cluster.free_transactions()


class TestDifferentialOracle:
    """Random micro runs in validate mode: every FREE bypass is
    executed next to the full treaty check inside
    ``SiteServer.execute`` and any disagreement raises
    ``PathCheckDivergence``.  The property also
    pins validate mode as observationally silent: the final database
    matches a plain (non-validating) run of the same request stream.
    """

    @settings(max_examples=examples(20), deadline=None)
    @given(
        num_items=st.integers(min_value=2, max_value=6),
        audit=st.sampled_from([0.0, 0.25, 0.5]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_validate_mode_never_diverges(self, num_items, audit, seed):
        workload = MicroWorkload(
            num_items=num_items,
            refill=20,
            num_sites=2,
            audit_fraction=audit,
        )
        validated = workload.build_homeostasis(
            strategy="equal-split", seed=0, validate=True
        )
        plain = workload.build_homeostasis(strategy="equal-split", seed=0)
        rng_v, rng_p = random.Random(seed), random.Random(seed)
        for _ in range(40):
            request = workload.next_request(rng_v)
            validated.submit(request.tx_name, request.params)
            mirror = workload.next_request(rng_p)
            plain.submit(mirror.tx_name, mirror.params)
        for name in workload.initial_db:
            site = workload.locate(name)
            assert validated.sites[site].engine.peek(name) == plain.sites[
                site
            ].engine.peek(name)
