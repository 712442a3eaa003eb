"""Stored procedures compiled from symbolic tables (Section 5.1).

"For every partially evaluated transaction in the symbolic tables
produced by the analyzer, [the protocol initializer] creates and
registers a stored procedure which executes this partially evaluated
transaction.  The stored procedure also includes checks for the
satisfaction of the corresponding treaty [...] and returns a boolean
flag indicating whether the local treaty is violated after execution."

A :class:`StoredProcedure` wraps one symbolic-table row; the
:class:`StoredProcedureCatalog` maps a transaction name to its row
procedures plus the dispatch logic (guard evaluation on the current
local state picks the unique applicable row).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.analysis.pathsplit import WriteSummary, summarize_writes
from repro.analysis.symbolic import Row, SymbolicTable
from repro.lang.ast import Transaction
from repro.lang.interp import ExecContext, execute
from repro.logic.compile import FormulaCheck, compile_formula


class CatalogError(Exception):
    """Unknown transactions or non-matching guards."""


@dataclass(frozen=True)
class StoredProcedure:
    """One registered row procedure.

    The row guard is compiled to a closure at construction time, so
    per-transaction dispatch never walks the guard AST (guards are
    evaluated once per registered row on *every* submission -- they
    are as hot as the treaty check itself).  The path's static write
    summary is taken at the same moment: every treaty install
    classifies the path against it (:mod:`repro.analysis.pathsplit`),
    and the residual never changes after registration.
    """

    tx_name: str
    row_index: int
    row: Row
    guard_check: FormulaCheck | None = None
    writes: WriteSummary = field(init=False)

    def __post_init__(self) -> None:
        if self.guard_check is None:
            object.__setattr__(self, "guard_check", compile_formula(self.row.guard))
        object.__setattr__(self, "writes", summarize_writes(self.row.residual))

    def run(self, ctx: ExecContext) -> None:
        """Execute the partially evaluated transaction's effects."""
        execute(self.row.residual, ctx)


@dataclass
class StoredProcedureCatalog:
    """Per-site registry: transaction name -> row procedures."""

    procedures: dict[str, list[StoredProcedure]] = field(default_factory=dict)
    tables: dict[str, SymbolicTable] = field(default_factory=dict)
    transactions: dict[str, Transaction] = field(default_factory=dict)

    def register(self, table: SymbolicTable) -> None:
        name = table.transaction.name
        if name in self.procedures:
            raise CatalogError(f"transaction {name!r} already registered")
        self.tables[name] = table
        self.transactions[name] = table.transaction
        self.procedures[name] = [
            StoredProcedure(tx_name=name, row_index=i, row=row)
            for i, row in enumerate(table.rows)
        ]

    def dispatch(
        self,
        tx_name: str,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
    ) -> StoredProcedure:
        """Select the unique row procedure whose guard matches (via
        the compiled guard checks)."""
        if tx_name not in self.procedures:
            raise CatalogError(f"unknown transaction {tx_name!r}")
        matches = [
            proc
            for proc in self.procedures[tx_name]
            if proc.guard_check(getobj, params)
        ]
        if len(matches) != 1:
            raise CatalogError(
                f"{tx_name}: expected exactly one applicable stored procedure, "
                f"found {len(matches)}"
            )
        return matches[0]

    def full_transaction(self, tx_name: str) -> Transaction:
        if tx_name not in self.transactions:
            raise CatalogError(f"unknown transaction {tx_name!r}")
        return self.transactions[tx_name]
