"""Stored procedures compiled from symbolic tables (Section 5.1).

"For every partially evaluated transaction in the symbolic tables
produced by the analyzer, [the protocol initializer] creates and
registers a stored procedure which executes this partially evaluated
transaction.  The stored procedure also includes checks for the
satisfaction of the corresponding treaty [...] and returns a boolean
flag indicating whether the local treaty is violated after execution."

A :class:`StoredProcedure` wraps one symbolic-table row and its
residual, lowered to a Python closure; the
:class:`StoredProcedureCatalog` maps a transaction name to its row
procedures plus one compiled *decider* that picks the unique row
whose guard holds on the current local state
(:func:`repro.logic.compile.compile_decider`).  Both lowerings happen
once, at :meth:`~StoredProcedureCatalog.register`; the clean commit
runs no AST.  :func:`repro.lang.interp.execute` and
``Formula.evaluate`` stay the reference they are held to
(:meth:`StoredProcedureCatalog.replay`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.analysis.pathsplit import WriteSummary, summarize_writes
from repro.analysis.symbolic import Row, SymbolicTable
from repro.lang.ast import Transaction
from repro.lang.interp import ExecContext, execute
from repro.logic.compile import Decider, Residual, compile_decider, compile_residual

#: the parameters of a call that passes none
_NO_PARAMS: Mapping[str, int] = {}


class CatalogError(Exception):
    """Unknown transactions or non-matching guards."""


class ExecutionDivergence(AssertionError):
    """Validate mode: the compiled clean path and the interpreter
    disagree on a commit's row, writes or log."""


@dataclass(frozen=True)
class StoredProcedure:
    """One registered row procedure.

    The residual is lowered to a closure at construction time
    (:func:`~repro.logic.compile.compile_residual`), and the path's
    static write summary is taken at the same moment: every treaty
    install classifies the path against it
    (:mod:`repro.analysis.pathsplit`), and the residual never changes
    after registration.
    """

    tx_name: str
    row_index: int
    row: Row
    writes: WriteSummary = field(init=False)
    _run: Residual = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "writes", summarize_writes(self.row.residual))
        object.__setattr__(self, "_run", compile_residual(self.row.residual))

    def run(
        self,
        getobj: Callable[[str], int],
        setobj: Callable[[str, int], None],
        emit: Callable[[int], None],
        params: Mapping[str, int],
        arrays: Mapping[str, tuple[int, ...]],
    ) -> None:
        """Execute the partially evaluated transaction's effects."""
        self._run(getobj, setobj, emit, params, arrays)


@dataclass
class StoredProcedureCatalog:
    """Per-site registry: transaction name -> row procedures."""

    procedures: dict[str, list[StoredProcedure]] = field(default_factory=dict)
    tables: dict[str, SymbolicTable] = field(default_factory=dict)
    transactions: dict[str, Transaction] = field(default_factory=dict)
    #: transaction name -> its compiled row decider
    deciders: dict[str, Decider[StoredProcedure]] = field(
        default_factory=dict, repr=False
    )

    def register(self, table: SymbolicTable) -> None:
        name = table.transaction.name
        if name in self.procedures:
            raise CatalogError(f"transaction {name!r} already registered")
        self.tables[name] = table
        self.transactions[name] = table.transaction
        procs = self.procedures[name] = [
            StoredProcedure(tx_name=name, row_index=i, row=row)
            for i, row in enumerate(table.rows)
        ]
        self.deciders[name] = compile_decider([row.guard for row in table.rows], procs)

    def dispatch(
        self,
        tx_name: str,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
    ) -> StoredProcedure:
        """Select the unique row procedure whose guard matches;
        :class:`CatalogError` unless exactly one does."""
        decide = self.deciders.get(tx_name)
        if decide is None:
            raise CatalogError(f"unknown transaction {tx_name!r}")
        proc = decide(getobj, _NO_PARAMS if params is None else params)
        if proc is None:
            found = len(self.matching_rows(tx_name, getobj, params))
            raise CatalogError(
                f"{tx_name}: expected exactly one applicable stored procedure, "
                f"found {found}"
            )
        return proc

    def matching_rows(
        self,
        tx_name: str,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
    ) -> list[int]:
        """The rows whose guard ``Formula.evaluate`` finds true."""
        rows = self.tables[tx_name].rows
        return [at for at, row in enumerate(rows) if row.guard.evaluate(getobj, params)]

    def replay(
        self,
        tx_name: str,
        getobj: Callable[[str], int],
        params: Mapping[str, int],
        arrays: Mapping[str, tuple[int, ...]],
    ) -> tuple[list[int], dict[str, int], tuple[int, ...]]:
        """The interpreted reference of :meth:`dispatch` plus
        :meth:`StoredProcedure.run` from the state ``getobj`` reads:
        the matching rows, and -- when exactly one matches -- the
        values its residual writes and the log it prints, run by
        :func:`~repro.lang.interp.execute` over a write overlay."""
        rows = self.matching_rows(tx_name, getobj, params)
        writes: dict[str, int] = {}
        log: list[int] = []
        if len(rows) == 1:
            ctx = ExecContext(
                getobj=lambda name: writes[name] if name in writes else getobj(name),
                setobj=writes.__setitem__,
                emit=log.append,
                params=params,
                arrays=arrays,
            )
            execute(self.tables[tx_name].rows[rows[0]].residual, ctx)
        return rows, writes, tuple(log)

    def full_transaction(self, tx_name: str) -> Transaction:
        if tx_name not in self.transactions:
            raise CatalogError(f"unknown transaction {tx_name!r}")
        return self.transactions[tx_name]
