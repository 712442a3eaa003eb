"""The per-site transactional engine.

Combines the object store and the undo journal into the interface the
protocol layer needs:

- ``begin() -> StorageTxn`` with ``read`` / ``write`` / ``commit`` /
  ``abort``;
- a site has one writer, so its transactions run one after another and
  the committed local history is serial -- which is the protocol's
  first normal-execution invariant (Section 3.3).  ``begin()`` enforces
  it: it raises :class:`TxnOverlap` while the previous transaction is
  still open.  An engine that admitted a second writer would have to
  bring its own concurrency control with it;
- ``peek`` / ``poke`` bypass transactions for synchronization-phase
  state exchange (the protocol performs those while the site is
  quiesced);
- an update counter per object supports the cleanup-phase broadcast
  of "every local object updated since the start of the round".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.storage.kvstore import KVStore
from repro.storage.wal import UndoLog


class TxnAborted(Exception):
    """Operations on a finished transaction handle."""


class TxnOverlap(Exception):
    """``begin()`` while the engine's previous transaction is still open."""


@dataclass
class StorageTxn:
    """A handle on one open transaction."""

    txn_id: int
    engine: "LocalEngine"
    undo: UndoLog = field(default_factory=UndoLog)
    log: list[int] = field(default_factory=list)
    active: bool = True
    #: objects this transaction wrote (for round-level dirty tracking)
    written: set[str] = field(default_factory=set)

    def _check_active(self) -> None:
        if not self.active:
            raise TxnAborted(f"txn {self.txn_id} is finished")

    def read(self, name: str) -> int:
        self._check_active()
        return self.engine.store.get(name)

    def write(self, name: str, value: int) -> None:
        self._check_active()
        self.undo.record(self.engine.store, name)
        self.engine.store.put(name, value)
        self.written.add(name)

    def emit(self, value: int) -> None:
        self._check_active()
        self.log.append(value)

    def commit(self) -> None:
        self._check_active()
        self.active = False
        self.undo.clear()
        self.engine.dirty |= self.written
        self.engine._open = None
        self.engine.committed += 1

    def abort(self) -> None:
        self._check_active()
        self.active = False
        self.undo.rollback(self.engine.store)
        self.engine._open = None
        self.engine.aborted += 1


@dataclass
class LocalEngine:
    """One site's storage engine."""

    store: KVStore = field(default_factory=KVStore)
    #: objects committed-to since the last checkpoint
    dirty: set[str] = field(default_factory=set)
    #: the objects written outside the transactional commit path
    #: (``poke``, cleanup transactions) since the consumer holding an
    #: incremental view of the store -- the escrow headroom counters
    #: -- last caught up (it clears the set): it re-reads only the
    #: counter rows over these, every other counter is still exact
    moved: set[str] = field(default_factory=set)
    committed: int = 0
    aborted: int = 0
    _ids: "itertools.count[int]" = field(default_factory=itertools.count)
    #: the transaction begun and not yet committed or aborted, if any
    _open: StorageTxn | None = field(default=None, init=False, repr=False)

    def begin(self) -> StorageTxn:
        if self._open is not None:
            raise TxnOverlap(
                f"txn {self._open.txn_id} is still open: a site runs "
                "one transaction at a time"
            )
        self._open = txn = StorageTxn(txn_id=next(self._ids), engine=self)
        return txn

    # -- non-transactional access (synchronization phases) ---------------------

    def peek(self, name: str) -> int:
        return self.store.get(name)

    def poke(self, name: str, value: int) -> None:
        self.store.put(name, value)
        self.moved.add(name)

    def wrote_outside_commit(self, names: set[str]) -> None:
        """A transaction committed ``names`` without the commit check
        seeing its deltas (the cleanup run T')."""
        self.moved.update(names)

    def dirty_objects(self) -> set[str]:
        """Objects committed-to since the last checkpoint."""
        return set(self.dirty)

    def checkpoint(self) -> None:
        """Reset dirty tracking (called at round boundaries)."""
        self.dirty.clear()
