"""Write-ahead logging: the undo journal and the treaty WAL.

Two durability mechanisms live here:

- :class:`UndoLog` -- the per-transaction undo journal.  Records
  before-images so aborts restore the store exactly.  Only the first
  write of a transaction to each object is journaled (later writes
  overwrite the same slot, and the oldest before-image is what
  rollback must restore).

- :class:`TreatyWAL` -- the per-site append-only log of **protocol
  metadata**: treaty installs and rebalance requests are logged
  *before* they are acknowledged, so a site that crash-stops after
  acking an install recovers with exactly the treaties its peers
  believe it holds.  The database itself is durable through the
  storage engine; the WAL exists because a local treaty is installed
  by message at negotiation time and lives nowhere else -- losing it
  on crash would silently weaken the global treaty (H1) when the
  site resumed committing against a stale local invariant.

The treaty WAL models an append-only file as a byte buffer of
JSON-lines records.  A record is durable once its terminating newline
is in the buffer; a **torn final record** (crash mid-append: no
newline, or truncated JSON) is detected and dropped on replay, which
is safe precisely because installs are logged before the ack -- a
torn install was never acknowledged, so no peer assumes the site has
it.  Replay is idempotent: it reduces the log to the *last complete*
install, so replaying twice (or appending the same install twice)
converges to the same state.

**Install records are a snapshot and a chain of deltas.**  A
``treaty_install`` record is the whole local treaty::

    {"kind": "treaty_install", "round": R, "site": S,
     "clauses": [{"coeffs": [[name, c], ...], "op": "<=", "bound": b}, ...],
     "headroom": [grant or null, ...],          # per clause
     "paths": {tx: [[row, kind, [], reason], ...], ...}}

A ``treaty_delta`` record is the next install as a difference against
the install record before it -- what a negotiation changed, which is a
few clauses of a treaty that holds hundreds::

    {"kind": "treaty_delta", "round": R, "base": R_before,
     "removed": [position in the base's clause list, ...],
     "added": [[position in the new list, clause], ...],   # ascending
     "headroom": [[position in the new list, grant], ...],
     "paths": {...}}                  # only when the partition changed

``headroom`` lists the grants that are not the base's: those of added
clauses and of carried clauses whose slack moved.  A site writes a
snapshot for its first install, for the first install after a replay
(it then has no baseline it can vouch for) and every
:data:`SNAPSHOT_EVERY`-th install record, so the last install is the
last snapshot with at most ``SNAPSHOT_EVERY - 1`` deltas folded over
it (:func:`apply_treaty_delta`).  :meth:`TreatyWAL.last_treaty_install`
does that fold and hands back a record of the snapshot form, reading
the log from its tail: recovery costs the length of a chain, not the
age of the log.  A delta whose ``base`` is not the round of the
install record before it, or whose positions do not fit it, was not
written against that record: :class:`WALCorruption`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.storage.kvstore import KVStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.logic.linear import LinearConstraint
    from repro.treaty.table import LocalTreaty


@dataclass
class UndoLog:
    """Before-images of one transaction's writes, in write order."""

    entries: list[tuple[str, int, bool]] = field(default_factory=list)
    _seen: set[str] = field(default_factory=set)

    def record(self, store: KVStore, name: str) -> None:
        """Journal the current value of ``name`` before overwriting it."""
        if name in self._seen:
            return
        self._seen.add(name)
        self.entries.append((name, store.get(name), name in store))

    def rollback(self, store: KVStore) -> None:
        """Restore all before-images, newest first."""
        for name, value, existed in reversed(self.entries):
            if existed:
                store.put(name, value)
            else:
                store.delete(name)
        self.clear()

    def clear(self) -> None:
        self.entries.clear()
        self._seen.clear()

    def __len__(self) -> int:
        return len(self.entries)


# -- the treaty write-ahead log ----------------------------------------------------


#: a site writes a full ``treaty_install`` snapshot at least every
#: this many install records; the ones between are ``treaty_delta``s.
#: Bounds what a replay folds (one snapshot, ``SNAPSHOT_EVERY - 1``
#: deltas) against what a snapshot costs an install (the whole treaty,
#: amortized over this many).
SNAPSHOT_EVERY = 32


class WALCorruption(Exception):
    """An *interior* WAL record failed to parse, or a delta record
    does not continue the install record before it.  Unlike a torn
    final record (an interrupted append, expected under crash-stop),
    interior corruption means the log was damaged after being written
    and replay cannot trust anything past the damage."""


@dataclass
class TreatyWAL:
    """Append-only JSON-lines log of one site's protocol metadata.

    The byte buffer stands in for an fsync'd append-only file: a
    record is durable once its terminating newline is appended, and a
    crash can leave at most one torn record at the tail.  The write
    protocol is **log before ack**: `SiteServer` appends the install
    (or rebalance) record *before* applying it and before the
    transport returns the acknowledgement, so the set of records with
    newlines is always a superset of what any peer believes this site
    has.
    """

    _buf: bytearray = field(default_factory=bytearray)
    #: records appended in this process lifetime (observability)
    appended: int = 0

    def append(self, record: dict) -> None:
        """Durably append one record (the newline is the commit point)."""
        self._buf.extend(_encode_line(record).encode("utf-8"))
        self._buf.extend(b"\n")
        self.appended += 1

    def size_bytes(self) -> int:
        return len(self._buf)

    def tear(self, nbytes: int) -> None:
        """Simulate a crash mid-append by chopping the final ``nbytes``
        from the buffer (test/fault-injection helper)."""
        if nbytes > 0:
            del self._buf[-nbytes:]

    def records(self) -> list[dict]:
        """Every *complete* record, oldest first.

        A torn final record (no terminating newline, or truncated
        JSON on the last line) is silently dropped: it was never
        acknowledged, so dropping it cannot diverge from any peer's
        view.  A malformed interior record raises
        :class:`WALCorruption`.
        """
        # A buffer ending in '\n' splits into [.., b'']; anything else
        # in the final slot is a torn tail (dropped).
        return [_decode_line(line) for line in self._buf.split(b"\n")[:-1]]

    def truncate_torn_tail(self) -> int:
        """Drop a torn final record from the buffer (recovery repair);
        returns the number of bytes removed."""
        keep = self._buf.rfind(b"\n") + 1  # 0: the whole buffer is torn
        removed = len(self._buf) - keep
        if removed:
            del self._buf[keep:]
        return removed

    def last_treaty_install(self) -> dict | None:
        """The most recent complete install (what replay reinstalls),
        as a record of the ``treaty_install`` form: the last snapshot
        with the deltas after it folded in.  None for a fresh or
        fully-torn log.

        Reads back from the tail and stops at the snapshot, so it
        decodes one chain however long the log is."""
        buf = self._buf
        end = buf.rfind(b"\n")  # anything past it is a torn tail
        chain: list[dict] = []
        while end >= 0:
            start = buf.rfind(b"\n", 0, end) + 1
            record = _decode_line(buf[start:end])
            kind = record.get("kind")
            if kind == "treaty_install":
                while chain:
                    record = apply_treaty_delta(record, chain.pop())
                return record
            if kind == "treaty_delta":
                chain.append(record)
            end = start - 1
        if chain:
            raise WALCorruption("delta records with no snapshot before them")
        return None


#: one record, one line, byte for byte the same for the same record
_encode_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _decode_line(line: bytes | bytearray) -> dict:
    # Records are single-line JSON, so an unparsable *newline-
    # terminated* line can only mean post-write damage, never an
    # append crash.
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise WALCorruption(f"record unreadable: {bytes(line[:80])!r}") from exc
    if not isinstance(record, dict):
        raise WALCorruption(f"record is not an object: {bytes(line[:80])!r}")
    return record


def _encode_clause(con: "LinearConstraint") -> dict:
    return {
        "coeffs": [[var.name, coeff] for var, coeff in con.expr.coeffs],
        "op": con.op,
        "bound": con.bound,
    }


def encode_local_treaty(
    treaty: "LocalTreaty", headroom: dict | None = None, paths: dict | None = None
) -> dict:
    """Serialize a local treaty (and its install-time headroom
    snapshot) into a WAL-storable record body.

    Local-treaty clauses range over ground database objects only
    (``ObjT`` leaves), so ``(object name, coefficient)`` pairs plus
    the normalized ``(op, bound)`` reconstruct each clause exactly.

    The per-clause ``headroom`` grants serve recovery's adaptive
    low-watermark, which restores them verbatim (slack consumed before
    the crash must stay consumed).  The escrow account does not read
    them: it reads every counter from the durable store (post-install
    consumption is derivable from the data, so the recovered counters
    equal a freshly lowered treaty's).

    ``paths`` is the optional per-path check table built at install
    time (``tx name -> PathCheck tuples``): recovery re-derives the
    table from the replayed treaty and the catalog, and validate mode
    cross-checks the re-derivation against this record.
    """
    headroom = headroom or {}
    record = {
        "site": treaty.site,
        "clauses": [_encode_clause(con) for con in treaty.constraints],
        "headroom": [headroom.get(con) for con in treaty.constraints],
    }
    if paths is not None:
        from repro.analysis.pathsplit import encode_path_checks

        record["paths"] = encode_path_checks(paths)
    return record


def encode_treaty_delta(
    base_round: int,
    removed: list[int],
    added: list[tuple[int, "LinearConstraint"]],
    grants: list[tuple[int, int]],
    paths: dict | None = None,
) -> dict:
    """The body of a ``treaty_delta`` record (layout in the module
    docstring): ``removed`` holds positions in the base install's
    clause list, ``added`` and ``grants`` positions in the new one,
    ascending; ``paths`` is passed only when the partition changed."""
    record = {
        "base": base_round,
        "removed": removed,
        "added": [[at, _encode_clause(con)] for at, con in added],
        "headroom": [[at, grant] for at, grant in grants],
    }
    if paths is not None:
        from repro.analysis.pathsplit import encode_path_checks

        record["paths"] = encode_path_checks(paths)
    return record


def apply_treaty_delta(install: dict, delta: dict) -> dict:
    """Fold one ``treaty_delta`` record over the install it was
    written against (a snapshot, or a snapshot with earlier deltas
    folded in); the result has the ``treaty_install`` form."""
    if delta.get("base") != install["round"]:
        raise WALCorruption(
            f"delta of round {delta.get('round')} continues round "
            f"{delta.get('base')}, but the install record before it is "
            f"round {install['round']}"
        )
    try:
        removed = set(delta["removed"])
        size = len(install["clauses"])
        if len(removed) != len(delta["removed"]) or not all(
            isinstance(at, int) and 0 <= at < size for at in removed
        ):
            raise ValueError(f"removed positions {delta['removed']} of {size}")
        clauses = [c for at, c in enumerate(install["clauses"]) if at not in removed]
        headroom = [g for at, g in enumerate(install["headroom"]) if at not in removed]
        for at, clause in delta["added"]:
            if not 0 <= at <= len(clauses):
                raise ValueError(f"added position {at} of {len(clauses)}")
            clauses.insert(at, clause)
            headroom.insert(at, None)
        for at, grant in delta["headroom"]:
            if at < 0:
                raise ValueError(f"grant position {at}")
            headroom[at] = grant
        out = {**install, "round": delta["round"]}
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise WALCorruption(
            f"delta of round {delta.get('round')} does not fit the install "
            f"record before it: {exc!r}"
        ) from exc
    out.update(clauses=clauses, headroom=headroom)
    if "paths" in delta:
        out["paths"] = delta["paths"]
    return out


def decode_local_treaty(record: dict):
    """Rebuild ``(LocalTreaty, install_headroom)`` from a WAL record.

    The inverse of :func:`encode_local_treaty`; round-trip stability
    holds because stored clauses are already in the normal form
    :meth:`LinearConstraint.make` produces.
    """
    from repro.logic.linear import LinearConstraint, LinearExpr
    from repro.logic.terms import ObjT
    from repro.treaty.table import LocalTreaty

    constraints = []
    headroom: dict = {}
    for clause, grant in zip(record["clauses"], record["headroom"]):
        expr = LinearExpr.make({ObjT(name): coeff for name, coeff in clause["coeffs"]})
        con = LinearConstraint.make(expr, clause["op"], clause["bound"])
        constraints.append(con)
        if grant is not None:
            headroom[con] = grant
    return LocalTreaty(site=record["site"], constraints=constraints), headroom


def decode_recorded_paths(record: dict):
    """The path-check table recorded with a treaty install, or
    ``None`` for records written before the path dimension existed
    (the codec stays readable across that upgrade)."""
    payload = record.get("paths")
    if payload is None:
        return None
    from repro.analysis.pathsplit import decode_path_checks

    return decode_path_checks(payload)
