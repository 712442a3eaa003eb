"""Local database substrate (the paper's prototype used MySQL InnoDB).

The homeostasis middleware needs, per site, a local store that can

- execute a stored procedure transactionally (atomic commit/abort),
- guarantee *local* serializability (the protocol's first normal-
  execution invariant, Section 3.3),
- expose current object values for treaty checks and synchronization.

This package provides that substrate:

- :mod:`repro.storage.kvstore` -- object store with finite support
  and 0 defaults (the paper's databases map objects to integers);
- :mod:`repro.storage.locks` -- strict two-phase locking with
  shared/exclusive modes, upgrades, wait queues, wait-for-graph
  deadlock detection and a lock-wait timeout (MySQL's 1 s floor is
  what produces the latency tails in Figures 19/21);
- :mod:`repro.storage.wal` -- per-transaction undo journal;
- :mod:`repro.storage.engine` -- the transactional engine gluing the
  three together.
"""

from repro.storage.kvstore import KVStore
from repro.storage.locks import (
    DeadlockError,
    LockManager,
    LockMode,
    LockTimeoutError,
    WouldBlock,
)
from repro.storage.wal import UndoLog
from repro.storage.engine import LocalEngine, StorageTxn, TxnAborted

__all__ = [
    "DeadlockError",
    "KVStore",
    "LocalEngine",
    "LockManager",
    "LockMode",
    "LockTimeoutError",
    "StorageTxn",
    "TxnAborted",
    "UndoLog",
    "WouldBlock",
]
