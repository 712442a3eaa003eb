"""Per-path write summaries and the static treaty-check tier.

The symbolic executor (:mod:`repro.analysis.symbolic`) already splits a
stored procedure into mutually exclusive ``Row(guard, residual)``
execution paths, and the catalog dispatches exactly one row per
invocation.  This module exploits that split at *treaty-check* time: it
statically summarizes each path's write set and answers one question
per path -- does it write an array base some installed clause mentions?

Two check kinds:

``free``
    The path's written array bases are disjoint from every base any
    treaty clause mentions (read-only paths are the degenerate case).
    A clause's truth value only changes through writes to its own
    objects, so under H2 (the treaty holds before the commit) it still
    holds after -- the commit can skip the treaty check, the escrow
    interaction, and the write-delta computation outright.  This is
    exactly escrow-equivalent: no escrow row is over an untracked
    object, so the account would neither have moved nor judged a
    counter for these writes either.

``full``
    The path writes a base some clause mentions: the commit runs the
    dynamic check (the escrow account, or the per-object clause index
    of ``violations_after_writes``), which already narrows itself to
    the clauses indexed under the objects actually written.

There is no finer kind on purpose: a tier has to fire on a served
workload to exist (docs/AUDIT.md keeps the table).

The classification runs at :meth:`SiteServer.install_treaty` time from
the site's own catalog and treaty, so it is deterministic given the
install -- which is what lets the WAL record it and recovery re-derive
and cross-check it.

Everything a classification reads from the treaty is a
:class:`ClauseSummary` -- per array base, how many clause variables
name it -- which is additive per clause.  An install therefore patches
the installed summary with the clauses it added and removed and
re-classifies only the paths writing a base those clauses mention
(:func:`patch_path_checks`); :func:`build_path_checks` is the same
classification from the empty summary, kept for WAL replay and as the
validate-mode oracle.  Each path's :class:`WriteSummary` is taken once,
when its stored procedure registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AbstractSet, Any, Iterable, Mapping

from repro.lang.ast import ArrayRef, Com, GroundRef, Write, walk_commands
from repro.logic.linear import LinearConstraint
from repro.logic.terms import ObjT, parse_ground_name

if TYPE_CHECKING:
    from repro.protocol.catalog import StoredProcedureCatalog
    from repro.treaty.table import LocalTreaty

#: check kinds, cheapest first (order is meaningful for reporting)
CHECK_KINDS = ("free", "full")

#: the one reason a path is ``full``: it writes a base some clause
#: mentions.  The token is what install records in every site's WAL
#: already carry, and those bytes are a cross-commit oracle.
_FULL_REASON = "parameterized-writes"


class PathCheckDivergence(AssertionError):
    """The static tier's bypass and the full treaty check disagreed on
    one commit's verdict -- a soundness bug in the classifier,
    surfaced loudly by validate mode instead of silently weakening the
    treaty."""


def base_of_name(name: str) -> str:
    """Array base of a ground object name (scalars are their own base)."""
    parsed = parse_ground_name(name)
    return parsed[0] if parsed else name


def _base_of_var(var: object) -> str:
    if isinstance(var, ObjT):
        return base_of_name(var.name)
    # parameterized template var; be conservative
    return str(getattr(var, "base", var))


@dataclass
class ClauseSummary:
    """What path classification reads from a clause set, additive per
    clause so an install can patch it instead of recomputing it.

    ``mentions`` maps an array base to the number of clause variable
    occurrences naming it; a base no clause mentions has no entry.
    """

    mentions: dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, constraints: Iterable[LinearConstraint]) -> "ClauseSummary":
        summary = cls()
        for con in constraints:
            summary.add(con)
        return summary

    def copy(self) -> "ClauseSummary":
        return ClauseSummary(dict(self.mentions))

    def add(self, con: LinearConstraint, times: int = 1) -> list[str]:
        """Count one clause in (``times=-1`` takes it back out);
        returns the bases it mentions."""
        mentions = self.mentions
        bases = [_base_of_var(var) for var, _coeff in con.expr.coeffs]
        for base in bases:
            count = mentions.get(base, 0) + times
            if count:
                mentions[base] = count
            else:
                del mentions[base]
        return bases


@dataclass(frozen=True)
class WriteSummary:
    """Static summary of one execution path's write set: the array base
    of every write (a scalar is its own base)."""

    bases: frozenset[str]

    @property
    def read_only(self) -> bool:
        return not self.bases


def summarize_writes(residual: Com) -> WriteSummary:
    """Summarize the writes of one straight-line residual."""
    bases: set[str] = set()
    for node in walk_commands(residual):
        if not isinstance(node, Write):
            continue
        ref = node.ref
        if isinstance(ref, GroundRef):
            bases.add(base_of_name(ref.name))
        else:
            assert isinstance(ref, ArrayRef)
            bases.add(ref.base)
    return WriteSummary(bases=frozenset(bases))


@dataclass(frozen=True)
class PathCheck:
    """The selected treaty-check strategy for one execution path."""

    tx_name: str
    row_index: int
    kind: str  # one of CHECK_KINDS
    reason: str

    @property
    def bypasses_check(self) -> bool:
        return self.kind == "free"

    def encode(self) -> list[object]:
        """Compact JSON-ready form (for the treaty WAL record).  The
        third slot is reserved and written empty: the record layout is
        fixed, because every site's WAL bytes are a cross-commit
        oracle."""
        return [self.row_index, self.kind, [], self.reason]


def decode_path_check(tx_name: str, payload: Iterable[Any]) -> PathCheck:
    row_index, kind, _indices, reason = payload
    return PathCheck(
        tx_name=tx_name,
        row_index=int(row_index),
        kind=str(kind),
        reason=str(reason),
    )


def classify_path(
    writes: WriteSummary,
    treaty_bases: AbstractSet[str],
    tx_name: str,
    row_index: int,
) -> PathCheck:
    """The check kind for one path's writes: ``free`` unless it writes
    one of ``treaty_bases``, the array bases some clause mentions."""
    if writes.read_only:
        return PathCheck(tx_name, row_index, "free", "read-only")
    if treaty_bases.isdisjoint(writes.bases):
        return PathCheck(tx_name, row_index, "free", "untouched-invariants")
    return PathCheck(tx_name, row_index, "full", _FULL_REASON)


def build_path_checks(
    catalog: "StoredProcedureCatalog", treaty: "LocalTreaty | None"
) -> dict[str, tuple[PathCheck, ...]]:
    """Classify every registered stored procedure's paths against the
    installed local treaty, from scratch.

    With no treaty installed every path is trivially free.
    """
    constraints = treaty.constraints if treaty is not None else ()
    return patch_path_checks(catalog, ClauseSummary.of(constraints), {}, None)


def patch_path_checks(
    catalog: "StoredProcedureCatalog",
    clauses: ClauseSummary,
    installed: Mapping[str, tuple[PathCheck, ...]],
    touched: AbstractSet[str] | None,
) -> dict[str, tuple[PathCheck, ...]]:
    """The path-check table for the clause set summarized by
    ``clauses``, given the table ``installed`` before the clause set
    changed on the array bases ``touched`` (``None``: assume every
    base changed).

    A path keeps its installed check unless it writes a touched base
    -- nothing else a classification reads moved.
    """
    out: dict[str, tuple[PathCheck, ...]] = {}
    for tx_name, procedures in catalog.procedures.items():
        kept = installed.get(tx_name, ())
        checks: list[PathCheck] = []
        for position, proc in enumerate(procedures):
            check = kept[position] if position < len(kept) else None
            if (
                check is None
                or touched is None
                or not touched.isdisjoint(proc.writes.bases)
            ):
                check = classify_path(
                    proc.writes, clauses.mentions.keys(), tx_name, proc.row_index
                )
            checks.append(check)
        out[tx_name] = tuple(checks)
    return out


def encode_path_checks(
    paths: Mapping[str, tuple[PathCheck, ...]],
) -> dict[str, list[list[object]]]:
    """JSON-ready form of a full path-check table (WAL payload)."""
    return {
        tx: [check.encode() for check in checks]
        for tx, checks in sorted(paths.items())
    }


def decode_path_checks(
    payload: Mapping[str, Iterable[Iterable[Any]]],
) -> dict[str, tuple[PathCheck, ...]]:
    return {
        tx: tuple(decode_path_check(tx, entry) for entry in entries)
        for tx, entries in payload.items()
    }
