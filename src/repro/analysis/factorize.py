"""Independence factorization of joint tables (Section 5.1).

"Often transaction code operates on multiple database objects
independently [...].  Using a read-write dependency analysis like the
one in SDD-1, we identify such points of independence and use them to
encode symbolic tables more concisely in a factorized manner."

Two transactions are *dependent* when they may touch a common database
object (read-write or write-write on the same object, or on
potentially-aliasing parameterized references).  The dependency graph
partitions the workload into connected components; the joint table of
the whole workload is then the (implicit) product of the per-component
joint tables.  Storing the factors instead of the product avoids the
cross-product blow-up: the materialized row count is the *sum* of
factor sizes rather than their product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.analysis.joint import JointRow, JointSymbolicTable, build_joint_table
from repro.analysis.symbolic import SymbolicTable
from repro.lang.ast import (
    AConst,
    ArrayRef,
    ObjRef,
    Transaction,
    transaction_reads,
    transaction_writes,
)
from repro.logic.formula import conj
from repro.logic.terms import parse_ground_name


def _ref_footprint(ref: ObjRef) -> tuple[str, str | None]:
    """Return ``(base_name, full_name_or_None)`` for dependency purposes.

    A parameterized reference ``a(@p)`` may touch any slot of ``a``,
    so it is tracked at base granularity (``full_name`` is None); a
    ground reference keeps its exact object name.
    """
    if isinstance(ref, ArrayRef):
        if all(isinstance(ix, AConst) for ix in ref.index):
            indices = tuple(ix.value for ix in ref.index)  # type: ignore[union-attr]
            from repro.logic.terms import ground_name

            return ref.base, ground_name(ref.base, indices)
        return ref.base, None
    parsed = parse_ground_name(ref.name)
    if parsed is not None:
        return parsed[0], ref.name
    return ref.name, ref.name


def _footprints_overlap(
    xs: set[tuple[str, str | None]], ys: set[tuple[str, str | None]]
) -> bool:
    names_y = {name for _base, name in ys if name is not None}
    imprecise_bases_y = {base for base, name in ys if name is None}
    bases_y = {base for base, _name in ys}
    for base, name in xs:
        if name is not None:
            if name in names_y or base in imprecise_bases_y:
                return True
        else:
            # Imprecise reference: conflicts with anything on the base.
            if base in bases_y:
                return True
    return False


def transactions_may_conflict(a: Transaction, b: Transaction) -> bool:
    """Conservative check: do the two transactions share any object?

    Conflicts considered: write-write and read-write in either
    direction (pure read-read sharing does not create a dependency for
    table factorization, because neither transaction's behaviour
    constrains the other's writes -- their guards simply share
    variables, which the treaty layer handles).  Two ground references
    conflict only when they name the same object; a parameterized
    reference conflicts with anything sharing its array base.
    """
    reads_a = {_ref_footprint(r) for r in transaction_reads(a)}
    writes_a = {_ref_footprint(r) for r in transaction_writes(a)}
    reads_b = {_ref_footprint(r) for r in transaction_reads(b)}
    writes_b = {_ref_footprint(r) for r in transaction_writes(b)}

    return (
        _footprints_overlap(writes_a, writes_b)
        or _footprints_overlap(writes_a, reads_b)
        or _footprints_overlap(reads_a, writes_b)
    )


@dataclass
class FactorizedJointTable:
    """A joint table stored as independent factors.

    Each factor is the joint table of one dependency component.  The
    implied full joint table is the cross product of the factors; the
    ``lookup`` result is assembled per-factor without materializing
    that product.
    """

    factors: list[JointSymbolicTable] = field(default_factory=list)

    @property
    def transactions(self) -> tuple[Transaction, ...]:
        out: list[Transaction] = []
        for factor in self.factors:
            out.extend(factor.transactions)
        return tuple(out)

    def materialized_rows(self) -> int:
        """Rows stored across all factors (sum, not product)."""
        return sum(len(f) for f in self.factors)

    def implied_rows(self) -> int:
        """Rows the unfactorized cross product would contain."""
        total = 1
        for factor in self.factors:
            total *= len(factor)
        return total

    def lookup(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
    ) -> JointRow:
        """Assemble the matching implied row from per-factor lookups."""
        guards = []
        residuals = []
        for factor in self.factors:
            row = factor.lookup(getobj, params=params)
            guards.append(row.guard)
            residuals.extend(row.residuals)
        return JointRow(guard=conj(guards), residuals=tuple(residuals))


def factorize_workload(
    tables: Sequence[SymbolicTable], simplify: bool = True
) -> FactorizedJointTable:
    """Partition a workload into independent factors and build each
    factor's joint table.

    Union-find over the conservative conflict relation; instead of the
    quadratic pairwise check, transactions are unioned through the
    objects they touch (two transactions conflict exactly when they
    meet in some object's read+write sets, so hashing by footprint
    yields the same partition in near-linear time).  The result is
    semantically equivalent to ``build_joint_table`` over the full set
    (their cross product matches row-for-row), while storing
    exponentially fewer rows for independent workloads.
    """
    n = len(tables)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    # Index transactions by footprint.  A precise footprint is keyed
    # by its full object name; an imprecise one (parameterized access)
    # by its base.  Read-write and write-write sharing creates edges;
    # read-read does not, so readers and writers are indexed apart.
    readers_by_name: dict[str, list[int]] = {}
    writers_by_name: dict[str, list[int]] = {}
    readers_by_base: dict[str, list[int]] = {}
    writers_by_base: dict[str, list[int]] = {}
    bases_seen: set[str] = set()

    footprints: list[tuple[set, set]] = []
    for i, table in enumerate(tables):
        tx = table.transaction
        reads = {_ref_footprint(r) for r in transaction_reads(tx)}
        writes = {_ref_footprint(r) for r in transaction_writes(tx)}
        footprints.append((reads, writes))
        for base, name in reads:
            bases_seen.add(base)
            if name is None:
                readers_by_base.setdefault(base, []).append(i)
            else:
                readers_by_name.setdefault(name, []).append(i)
        for base, name in writes:
            bases_seen.add(base)
            if name is None:
                writers_by_base.setdefault(base, []).append(i)
            else:
                writers_by_name.setdefault(name, []).append(i)

    # Precise name meetings: writers union with every reader/writer of
    # the same object name.
    for name, writer_list in writers_by_name.items():
        anchor = writer_list[0]
        for other in writer_list[1:]:
            union(anchor, other)
        for reader in readers_by_name.get(name, []):
            union(anchor, reader)
    # Imprecise base meetings: a base-level writer conflicts with
    # everything on the base; a base-level reader conflicts with every
    # writer on the base.
    for base, writer_list in writers_by_base.items():
        anchor = writer_list[0]
        for other in writer_list[1:]:
            union(anchor, other)
        for reader in readers_by_base.get(base, []):
            union(anchor, reader)
        for name, others in writers_by_name.items():
            if name.split("[", 1)[0] == base:
                for other in others:
                    union(anchor, other)
        for name, others in readers_by_name.items():
            if name.split("[", 1)[0] == base:
                for other in others:
                    union(anchor, other)
    for base, reader_list in readers_by_base.items():
        for name, others in writers_by_name.items():
            if name.split("[", 1)[0] == base:
                for reader in reader_list:
                    union(reader, others[0])

    groups: dict[int, list[SymbolicTable]] = {}
    for i, table in enumerate(tables):
        groups.setdefault(find(i), []).append(table)

    factors = [
        build_joint_table(group, simplify=simplify)
        for _, group in sorted(groups.items())
    ]
    return FactorizedJointTable(factors=factors)
