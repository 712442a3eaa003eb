"""Tests for the transactional engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.engine import LocalEngine, TxnAborted
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

    def test_locks_released_on_commit(self):
        engine = LocalEngine()
        t1 = engine.begin()
        t1.write("x", 1)
        t1.commit()
        t2 = engine.begin()
        t2.write("x", 2)  # must not block
        t2.commit()
        assert engine.peek("x") == 2

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

    @settings(max_examples=40)
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
