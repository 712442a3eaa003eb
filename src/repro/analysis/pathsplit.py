"""Per-path write summaries and treaty-check partitioning.

The symbolic executor (:mod:`repro.analysis.symbolic`) already splits a
stored procedure into mutually exclusive ``Row(guard, residual)``
execution paths, and the catalog dispatches exactly one row per
invocation.  This module exploits that split at *treaty-check* time:
instead of treating every commit as potentially touching every clause
of the site's local treaty, it statically summarizes each path's write
set and partitions the installed clause list into the cheapest sound
check for that path.

Four check kinds, from cheapest to most general:

``free``
    The path's written array bases are disjoint from every base any
    treaty clause mentions (read-only paths are the degenerate case).
    A clause's truth value only changes through writes to its own
    objects, so under H2 (the treaty holds before the commit) it still
    holds after -- the commit can skip the treaty check, the escrow
    interaction, and the write-delta computation outright.  This is
    exactly escrow-equivalent: untracked objects have ``max_coeff ==
    0``, so the escrow account would not have staged their deltas
    either.

``free-absorb``
    Every write has the constant-delta form ``x = read(x) + c`` and,
    for every ``<=``-clause touching a written base, ``coeff * c <=
    0`` (the write moves the clause *away* from its bound), with no
    equality pin touching any written base.  Monotone-safe: the commit
    cannot introduce a violation, so the judgment is skipped.  In
    escrow mode the deltas still flow through the account (the
    counters track slack incrementally) but the verdict is known
    statically.

``partition``
    The path's write set is fully ground (statically known object
    names).  The clauses touching those names are precompiled into a
    single conjunction subset check -- the static analogue of the
    per-object clause index ``violations_after_writes`` consults
    dynamically, minus the per-commit index walk.

``full``
    Parameterized writes touching treaty bases: fall back to the
    dynamic per-object check (or the escrow account).

The partitioning runs at :meth:`SiteServer.install_treaty` time from
the site's own catalog and treaty, so it is deterministic given the
install -- which is what lets the WAL record it and recovery re-derive
and cross-check it.

Everything a classification reads from the treaty is a
:class:`ClauseSummary` -- per array base, how many clause mentions push
which way -- which is additive per clause.  An install therefore
patches the installed summary with the clauses it added and removed
and re-classifies only the paths writing a base those clauses mention
(:func:`patch_path_checks`); :func:`build_path_checks` is the same
classification from the empty summary, kept for WAL replay and as the
validate-mode oracle.  Each path's :class:`WriteSummary` is taken once,
when its stored procedure registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AbstractSet, Any, Iterable, Mapping, Sequence

from repro.lang.ast import ArrayRef, Com, GroundRef, Write, ref_to_term, walk_commands
from repro.logic.linear import (
    LinearConstraint,
    LinearizationError,
    linear_of_term,
)
from repro.logic.terms import ObjT, Term, parse_ground_name

if TYPE_CHECKING:
    from repro.protocol.catalog import StoredProcedureCatalog
    from repro.treaty.table import LocalTreaty

#: check kinds, cheapest first (order is meaningful for reporting)
CHECK_KINDS = ("free", "free-absorb", "partition", "full")


def base_of_name(name: str) -> str:
    """Array base of a ground object name (scalars are their own base)."""
    parsed = parse_ground_name(name)
    return parsed[0] if parsed else name


def _base_of_var(var: object) -> str:
    if isinstance(var, ObjT):
        return base_of_name(var.name)
    # parameterized template var; be conservative
    return str(getattr(var, "base", var))


def clause_bases(constraints: Iterable[LinearConstraint]) -> frozenset[str]:
    """Every array base mentioned by any clause of a treaty."""
    return frozenset(
        _base_of_var(var) for con in constraints for var in con.variables()
    )


@dataclass
class ClauseSummary:
    """What path classification reads from a clause set, additive per
    clause so an install can patch it instead of recomputing it.

    ``mentions`` maps an array base to three counts over the clauses'
    variable occurrences: positive coefficients, negative
    coefficients, and occurrences inside equality pins.  ``opaque``
    counts occurrences of non-object (template) variables, about which
    nothing can be concluded statically.
    """

    mentions: dict[str, list[int]] = field(default_factory=dict)
    opaque: int = 0

    @classmethod
    def of(cls, constraints: Iterable[LinearConstraint]) -> "ClauseSummary":
        summary = cls()
        for con in constraints:
            summary.add(con)
        return summary

    def copy(self) -> "ClauseSummary":
        return ClauseSummary(
            {base: list(counts) for base, counts in self.mentions.items()},
            self.opaque,
        )

    def add(self, con: LinearConstraint, times: int = 1) -> None:
        """Count one clause in (``times=-1`` takes it back out)."""
        pinned = con.op != "<="
        mentions = self.mentions
        for var, coeff in con.expr.coeffs:
            if not isinstance(var, ObjT):
                self.opaque += times
            base = _base_of_var(var)
            counts = mentions.get(base)
            if counts is None:
                counts = mentions[base] = [0, 0, 0]
            counts[0 if coeff > 0 else 1] += times
            if pinned:
                counts[2] += times
            if counts == [0, 0, 0]:
                del mentions[base]


@dataclass(frozen=True)
class WriteSummary:
    """Static summary of one execution path's write set.

    ``bases`` is always exact (every write's array base).  ``ground``
    is the full set of written object names when *every* write target
    is ground, else ``None``.  ``const_deltas`` maps each written
    reference (pretty-printed term) to its constant delta when every
    write has the form ``x = read(x) + c``, else ``None``.
    """

    bases: frozenset[str]
    ground: frozenset[str] | None
    const_deltas: tuple[tuple[str, int], ...] | None

    @property
    def read_only(self) -> bool:
        return not self.bases

    def delta_by_base(self) -> dict[str, list[int]]:
        """Constant deltas grouped by written base (empty if unknown)."""
        out: dict[str, list[int]] = {}
        if self.const_deltas is None:
            return out
        for name, delta in self.const_deltas:
            out.setdefault(base_of_name(name), []).append(delta)
        return out


def summarize_writes(residual: Com) -> WriteSummary:
    """Summarize the writes of one straight-line residual."""
    bases: set[str] = set()
    ground: set[str] | None = set()
    deltas: list[tuple[str, int]] | None = []
    for node in walk_commands(residual):
        if not isinstance(node, Write):
            continue
        ref = node.ref
        target = ref_to_term(ref)
        if isinstance(ref, GroundRef):
            bases.add(base_of_name(ref.name))
        else:
            assert isinstance(ref, ArrayRef)
            bases.add(ref.base)
        if isinstance(target, ObjT):
            if ground is not None:
                ground.add(target.name)
        else:
            ground = None  # parameterized target: names unknown statically
        if deltas is not None:
            delta = _const_delta(target, node)
            if delta is None:
                deltas = None
            else:
                deltas.append((_ref_key(target), delta))
    return WriteSummary(
        bases=frozenset(bases),
        ground=frozenset(ground) if ground is not None else None,
        const_deltas=tuple(deltas) if deltas is not None else None,
    )


def _ref_key(target: Term) -> str:
    return target.pretty()


def _const_delta(target: Term, write: Write) -> int | None:
    """The constant ``c`` when the write is ``target = read(target) + c``."""
    from repro.lang.ast import aexp_to_term

    try:
        linear = linear_of_term(aexp_to_term(write.expr))
    except LinearizationError:
        return None
    coeffs = dict(linear.coeffs)
    if coeffs.pop(target, None) != 1 or coeffs:
        return None
    return linear.const


@dataclass(frozen=True)
class PathCheck:
    """The selected treaty-check strategy for one execution path."""

    tx_name: str
    row_index: int
    kind: str  # one of CHECK_KINDS
    clause_indices: tuple[int, ...]  # into the treaty's constraint list
    reason: str

    @property
    def bypasses_check(self) -> bool:
        return self.kind in ("free", "free-absorb")

    def encode(self) -> list[object]:
        """Compact JSON-ready form (for the treaty WAL record)."""
        return [self.row_index, self.kind, list(self.clause_indices), self.reason]


def decode_path_check(tx_name: str, payload: Iterable[Any]) -> PathCheck:
    row_index, kind, indices, reason = payload
    return PathCheck(
        tx_name=tx_name,
        row_index=int(row_index),
        kind=str(kind),
        clause_indices=tuple(int(i) for i in indices),
        reason=str(reason),
    )


def classify_path(
    summary: WriteSummary,
    constraints: Sequence[LinearConstraint],
    tx_name: str,
    row_index: int,
    clauses: ClauseSummary | None = None,
) -> PathCheck:
    """Select the cheapest sound check kind for one path's writes.

    ``clauses`` is the summary of ``constraints`` when the caller
    already holds it (an install classifies every path against one).
    """
    if clauses is None:
        clauses = ClauseSummary.of(constraints)
    if summary.read_only:
        return PathCheck(tx_name, row_index, "free", (), "read-only")
    if clauses.mentions.keys().isdisjoint(summary.bases):
        return PathCheck(tx_name, row_index, "free", (), "untouched-invariants")
    if _monotone_safe(summary, clauses):
        return PathCheck(tx_name, row_index, "free-absorb", (), "monotone-safe")
    if summary.ground is not None:
        # Clause indices are positions in the installed list, so this
        # is the one classification that reads the clauses themselves.
        indices = tuple(
            i
            for i, con in enumerate(constraints)
            if any(
                isinstance(var, ObjT) and var.name in summary.ground
                for var in con.variables()
            )
        )
        return PathCheck(tx_name, row_index, "partition", indices, "ground-writes")
    return PathCheck(tx_name, row_index, "full", (), "parameterized-writes")


def _monotone_safe(summary: WriteSummary, clauses: ClauseSummary) -> bool:
    """True when every write is a constant delta that cannot move any
    touching ``<=``-clause toward its bound, and no pin is touched."""
    by_base = summary.delta_by_base()
    if not by_base or set(by_base) != set(summary.bases):
        return False
    if clauses.opaque:
        return False  # template var: cannot reason statically
    for base, deltas in by_base.items():
        counts = clauses.mentions.get(base)
        if counts is None:
            continue
        positive, negative, pinned = counts
        if pinned:
            return False  # equality pin on a written base
        for delta in deltas:
            if (delta > 0 and positive) or (delta < 0 and negative):
                return False
    return True


def build_path_checks(
    catalog: "StoredProcedureCatalog", treaty: "LocalTreaty | None"
) -> dict[str, tuple[PathCheck, ...]]:
    """Partition every registered stored procedure's paths against the
    installed local treaty, from scratch.

    With no treaty installed every path is trivially free.
    """
    constraints = treaty.constraints if treaty is not None else ()
    return patch_path_checks(
        catalog, constraints, ClauseSummary.of(constraints), {}, None
    )


def patch_path_checks(
    catalog: "StoredProcedureCatalog",
    constraints: Sequence[LinearConstraint],
    clauses: ClauseSummary,
    installed: Mapping[str, tuple[PathCheck, ...]],
    touched: AbstractSet[str] | None,
) -> dict[str, tuple[PathCheck, ...]]:
    """The path-check table for ``constraints`` (summarized by
    ``clauses``), given the table ``installed`` before the clause set
    changed on the array bases ``touched`` (``None``: assume every
    base changed).

    A path keeps its installed check unless it writes a touched base
    -- nothing else a classification reads moved -- or holds a
    ``partition`` check, whose clause indices are positional.
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
                or check.kind == "partition"
                or not touched.isdisjoint(proc.writes.bases)
            ):
                check = classify_path(
                    proc.writes, constraints, tx_name, proc.row_index, clauses
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
