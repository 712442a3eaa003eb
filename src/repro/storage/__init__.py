"""Local database substrate (the paper's prototype used MySQL InnoDB).

The homeostasis middleware needs, per site, a local store that can

- execute a stored procedure transactionally (atomic commit/abort),
- guarantee *local* serializability (the protocol's first normal-
  execution invariant, Section 3.3) -- here by running one transaction
  at a time per site, which ``LocalEngine.begin`` enforces,
- expose current object values for treaty checks and synchronization.

This package provides that substrate:

- :mod:`repro.storage.kvstore` -- object store with finite support
  and 0 defaults (the paper's databases map objects to integers);
- :mod:`repro.storage.wal` -- per-transaction undo journal;
- :mod:`repro.storage.engine` -- the transactional engine gluing the
  two together.
"""

from repro.storage.kvstore import KVStore
from repro.storage.wal import UndoLog
from repro.storage.engine import LocalEngine, StorageTxn, TxnAborted, TxnOverlap

__all__ = [
    "KVStore",
    "LocalEngine",
    "StorageTxn",
    "TxnAborted",
    "TxnOverlap",
    "UndoLog",
]
