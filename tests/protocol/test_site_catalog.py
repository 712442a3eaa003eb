"""Tests for site servers and the stored-procedure catalog (Section 5.1)."""

import pytest

from repro.analysis.symbolic import Row, SymbolicTable, build_symbolic_table
from repro.lang.ast import AConst, GroundRef, Transaction, Write
from repro.lang.parser import parse_transaction
from repro.logic.formula import And, Cmp
from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.terms import Const, ObjT
from repro.protocol.catalog import (
    CatalogError,
    ExecutionDivergence,
    StoredProcedureCatalog,
)
from repro.protocol.messages import MessageStats, SyncBroadcast
from repro.protocol.site import SiteServer
from repro.treaty.table import LocalTreaty

INCR_SRC = """
transaction Incr() {
  v := read(x);
  if v < 10 then { write(x = v + 1) } else { write(x = 0) }
}
"""


def _catalog():
    catalog = StoredProcedureCatalog()
    catalog.register(build_symbolic_table(parse_transaction(INCR_SRC)))
    return catalog


class TestCatalog:
    def test_one_procedure_per_row(self):
        catalog = _catalog()
        assert len(catalog.procedures["Incr"]) == 2

    def test_dispatch_selects_matching_row(self):
        catalog = _catalog()
        proc = catalog.dispatch("Incr", lambda n: {"x": 3}.get(n, 0))
        assert "v + 1" in proc.row.residual.pretty() or "+ 1" in proc.row.residual.pretty()
        proc = catalog.dispatch("Incr", lambda n: {"x": 12}.get(n, 0))
        assert "= 0" in proc.row.residual.pretty()

    def test_duplicate_registration_rejected(self):
        catalog = _catalog()
        with pytest.raises(CatalogError):
            catalog.register(build_symbolic_table(parse_transaction(INCR_SRC)))

    def test_unknown_transaction(self):
        catalog = _catalog()
        with pytest.raises(CatalogError):
            catalog.dispatch("Nope", lambda n: 0)

    def test_full_transaction_retrievable(self):
        catalog = _catalog()
        assert catalog.full_transaction("Incr").name == "Incr"

    def test_exactly_one_row_checked_on_every_dispatch(self):
        # Hand-built guards that are no partition: 0 <= x <= 5 and
        # x >= 5 overlap at x = 5 and leave x < 0 uncovered.  Dispatch
        # refuses both states with validate off, not only as an oracle.
        x = ObjT("x")
        low = And((Cmp(">=", x, Const(0)), Cmp("<=", x, Const(5))))
        table = SymbolicTable(
            Transaction("Bad", (), Write(GroundRef("y"), AConst(1))),
            [
                Row(low, Write(GroundRef("y"), AConst(1))),
                Row(Cmp(">=", x, Const(5)), Write(GroundRef("y"), AConst(2))),
            ],
        )
        server = SiteServer(site_id=0, locate=lambda name: 0)
        server.catalog.register(table)
        assert not server.validate
        for value, found in ((5, 2), (-1, 0)):
            server.engine.poke("x", value)
            with pytest.raises(CatalogError, match=f"found {found}"):
                server.catalog.dispatch("Bad", server.engine.peek)
            with pytest.raises(CatalogError):
                server.execute("Bad")
        assert server.engine.peek("y") == 0
        for value, y in ((2, 1), (9, 2)):
            server.engine.poke("x", value)
            assert server.execute("Bad").committed
            assert server.engine.peek("y") == y


def _local_treaty(site, upper):
    """x <= upper as a local treaty at `site`."""
    return LocalTreaty(
        site=site,
        constraints=[
            LinearConstraint.make(LinearExpr.variable(ObjT("x")), "<=", upper)
        ],
    )


class TestSiteServer:
    def _server(self, treaty_upper=None):
        server = SiteServer(site_id=0, locate=lambda name: 0)
        server.catalog.register(build_symbolic_table(parse_transaction(INCR_SRC)))
        if treaty_upper is not None:
            server.install_treaty(_local_treaty(0, treaty_upper))
        return server

    def test_commit_within_treaty(self):
        server = self._server(treaty_upper=5)
        result = server.execute("Incr")
        assert result.committed and not result.violated
        assert server.engine.peek("x") == 1

    def test_violation_aborts_and_reports(self):
        server = self._server(treaty_upper=2)
        server.engine.poke("x", 2)
        result = server.execute("Incr")  # would write x = 3 > 2
        assert result.violated and not result.committed
        assert server.engine.peek("x") == 2  # rolled back

    def test_no_treaty_always_commits(self):
        server = self._server()
        for _ in range(11):
            server.execute("Incr")
        # 0 -> 10 in ten increments, then the reset branch fires.
        assert server.engine.peek("x") == 0

    def test_foreign_write_assertion(self):
        server = SiteServer(site_id=0, locate=lambda name: 1)  # nothing local
        server.catalog.register(build_symbolic_table(parse_transaction(INCR_SRC)))
        with pytest.raises(AssertionError):
            server.execute("Incr")

    def test_dirty_owned_values_and_sync(self):
        server = self._server(treaty_upper=100)
        server.execute("Incr")
        dirty = server.dirty_owned_values()
        assert dirty == {"x": 1}
        # The kernel's path: the round's broadcast, then its end.
        server.handle(SyncBroadcast(src=1, dst=0, updates=(("x", 42), ("remote", 7))))
        server.finish_sync()
        assert server.engine.peek("x") == 42
        assert server.engine.peek("remote") == 7
        assert server.dirty_owned_values() == {}

    def test_validate_catches_a_corrupted_residual(self):
        server = self._server(treaty_upper=100)
        server.validate = True
        proc = server.catalog.procedures["Incr"][0]  # the v < 10 row
        corrupt = lambda g, s, e, p, arrays: s("x", g("x") + 2)
        object.__setattr__(proc, "_run", corrupt)
        with pytest.raises(ExecutionDivergence, match="compiled row 0"):
            server.execute("Incr")
        assert server.engine.peek("x") == 0  # rolled back
        server.validate = False
        assert server.execute("Incr").committed  # unchecked, it runs
        assert server.engine.peek("x") == 2

    def test_validate_catches_a_wrong_row(self):
        server = self._server(treaty_upper=100)
        server.validate = True
        wrong = server.catalog.procedures["Incr"][1]  # the reset row
        server.catalog.deciders["Incr"] = lambda getobj, params: wrong
        with pytest.raises(ExecutionDivergence, match="interpreted rows \\[0\\]"):
            server.execute("Incr")

    def test_cleanup_run_returns_log_and_writes(self):
        server = self._server()
        log, written = server.run_cleanup_transaction("Incr")
        assert written == {"x"}
        assert log == ()


class TestMessageStats:
    """MessageStats is a pure derived view over a message trace."""

    def test_sync_round_counts(self):
        from repro.protocol.messages import SyncBroadcast

        # All-to-all exchange among 4 participants: 4*3 broadcasts.
        trace = [
            SyncBroadcast(src=a, dst=b)
            for a in range(4)
            for b in range(4)
            if a != b
        ]
        stats = MessageStats.from_trace(trace, negotiations=1)
        assert stats.sync_broadcasts == 12
        assert stats.negotiations == 1
        assert stats.total() == 12

    def test_mixed_trace(self):
        from repro.protocol.messages import (
            CleanupRun,
            Decision,
            Prepare,
            TreatyInstall,
            Vote,
        )

        trace = [
            Vote(src=0, dst=1),
            CleanupRun(src=0, dst=1, tx_name="T"),
            TreatyInstall(src=0, dst=1, round_number=2),
            Prepare(src=0, dst=1),
            Prepare(src=0, dst=2),
            Decision(src=0, dst=1),
            Decision(src=0, dst=2),
        ]
        stats = MessageStats.from_trace(trace)
        assert stats.vote_messages == 1
        assert stats.cleanup_messages == 1
        assert stats.treaty_updates == 1
        assert stats.prepare_messages == 2
        assert stats.decision_messages == 2
        assert stats.total() == 7

    def test_unknown_message_rejected(self):
        from repro.protocol.messages import Message

        with pytest.raises(TypeError):
            MessageStats.from_trace([Message(src=0, dst=1)])
