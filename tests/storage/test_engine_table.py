"""Tests for the transactional engine."""

import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.symbolic import build_symbolic_table
from repro.lang.interp import InterpError
from repro.lang.parser import parse_transaction
from repro.protocol.catalog import CatalogError
from repro.protocol.site import SiteServer
from repro.storage.engine import LocalEngine, TxnAborted, TxnOverlap
from repro.storage.kvstore import KVStore


class TestEngine:
    def test_commit_applies(self):
        engine = LocalEngine()
        txn = engine.begin()
        txn.write("x", 5)
        txn.commit()
        assert engine.peek("x") == 5
        assert engine.committed == 1

    def test_abort_rolls_back(self):
        engine = LocalEngine()
        engine.poke("x", 1)
        txn = engine.begin()
        assert txn.read("x") == 1
        txn.write("x", 99)
        txn.write("y", 42)
        txn.abort()
        assert engine.peek("x") == 1
        assert engine.peek("y") == 0
        assert engine.aborted == 1

    def test_finished_txn_rejects_operations(self):
        engine = LocalEngine()
        txn = engine.begin()
        txn.commit()
        with pytest.raises(TxnAborted):
            txn.read("x")
        with pytest.raises(TxnAborted):
            txn.commit()

    def test_second_txn_begins_after_first_finishes(self):
        engine = LocalEngine()
        t1 = engine.begin()
        t1.write("x", 1)
        t1.commit()
        t2 = engine.begin()
        t2.write("x", 2)
        t2.commit()
        assert engine.peek("x") == 2

    def test_begin_while_open_raises_and_leaves_first_usable(self):
        engine = LocalEngine()
        t1 = engine.begin()
        t1.write("x", 1)
        with pytest.raises(TxnOverlap):
            engine.begin()
        t1.write("x", 2)
        assert t1.read("x") == 2
        t1.commit()
        assert engine.peek("x") == 2
        assert (engine.committed, engine.aborted) == (1, 0)

    @pytest.mark.parametrize("finish", ["commit", "abort"])
    def test_begin_after_finish_succeeds(self, finish):
        engine = LocalEngine()
        t1 = engine.begin()
        t1.write("x", 1)
        getattr(t1, finish)()
        t2 = engine.begin()
        assert t2.txn_id != t1.txn_id
        t2.commit()

    def test_dirty_tracking(self):
        engine = LocalEngine()
        txn = engine.begin()
        txn.write("a", 1)
        txn.write("b", 2)
        txn.commit()
        assert engine.dirty_objects() == {"a", "b"}
        engine.checkpoint()
        assert engine.dirty_objects() == set()

    def test_aborted_writes_not_dirty(self):
        engine = LocalEngine()
        txn = engine.begin()
        txn.write("a", 1)
        txn.abort()
        assert engine.dirty_objects() == set()

    def test_log_captured_per_txn(self):
        engine = LocalEngine()
        txn = engine.begin()
        txn.emit(3)
        txn.emit(4)
        assert txn.log == [3, 4]

    @settings(max_examples=examples(40))
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from("abc"), st.integers(-9, 9), st.booleans()
            ),
            max_size=10,
        )
    )
    def test_commit_abort_isolation_property(self, ops):
        """Aborted transactions leave no trace; committed ones all do."""
        engine = LocalEngine()
        expected: dict[str, int] = {}
        for name, value, commit in ops:
            txn = engine.begin()
            txn.write(name, value)
            if commit:
                txn.commit()
                expected[name] = value
            else:
                txn.abort()
        assert engine.store == KVStore.from_mapping(expected)


PUT_SRC = """
transaction Put(p) {
  write(x = 1);
  write(y = @p)
}
"""


class TestSiteLeavesEngineFree:
    """An exception escaping ``SiteServer.execute`` mid-transaction
    aborts it, so the site's next transaction can begin."""

    def _server(self):
        server = SiteServer(site_id=0, locate=lambda name: 0)
        server.catalog.register(build_symbolic_table(parse_transaction(PUT_SRC)))
        return server

    def test_unknown_transaction_name(self):
        server = self._server()
        with pytest.raises(CatalogError):
            server.execute("Nope")
        assert server.engine.aborted == 1
        assert server.execute("Put", {"p": 7}).committed

    def test_residual_that_raises(self):
        server = self._server()
        with pytest.raises(InterpError):
            server.execute("Put")  # unbound @p, after x was written
        assert server.engine.peek("x") == 0
        assert server.engine.aborted == 1
        assert server.execute("Put", {"p": 7}).committed
        assert server.engine.peek("y") == 7
