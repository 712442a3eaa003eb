"""Joint symbolic tables for transaction sets (Section 2.2).

A symbolic table for a set of K transactions is a (K+1)-ary relation:
each row ``(guard, residual_1, ..., residual_K)`` pairs a conjunction
of per-transaction guards with the corresponding partially evaluated
transaction for every member of the set.  It is built as the cross
product of the individual tables, conjoining guards and pruning
contradictions.

Parameters of different transactions are renamed apart in the joint
guard (``@p`` of transaction ``T`` becomes ``@T.p``) so that two
transactions using the same parameter name do not accidentally
correlate.  Residuals keep their original parameter names: they are
executed per-transaction with that transaction's own arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.analysis.symbolic import SymbolicTable
from repro.lang.ast import Com, Transaction
from repro.logic.formula import FalseF, Formula, conj
from repro.logic.simplify import simplify_formula
from repro.logic.terms import ParamT, Term


class JointTableError(Exception):
    """Raised on inconsistent joint table operations."""


def qualified_param(tx_name: str, param: str) -> str:
    """The joint-table name for parameter ``param`` of ``tx_name``."""
    return f"{tx_name}.{param}"


def _rename_params(guard: Formula, tx: Transaction) -> Formula:
    mapping: dict[Term, Term] = {
        ParamT(p): ParamT(qualified_param(tx.name, p)) for p in tx.params
    }
    return guard.substitute(mapping) if mapping else guard


@dataclass(frozen=True)
class JointRow:
    """One row of the joint table."""

    guard: Formula
    residuals: tuple[Com, ...]

    def pretty(self) -> str:
        return f"{self.guard.pretty()}  ->  {len(self.residuals)} residuals"


@dataclass
class JointSymbolicTable:
    """The (K+1)-ary joint symbolic table of a transaction set."""

    transactions: tuple[Transaction, ...]
    rows: list[JointRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def lookup(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
    ) -> JointRow:
        """Return the unique row whose guard holds on the database.

        ``params`` uses qualified names (``T.p``); for workloads whose
        treaties do not depend on parameters it can be omitted.
        """
        matches = [
            row for row in self.rows if row.guard.evaluate(getobj, params=params)
        ]
        if len(matches) != 1:
            raise JointTableError(
                f"expected exactly one matching joint row, found {len(matches)}"
            )
        return matches[0]

    def residual_for(self, row: JointRow, tx_name: str) -> Com:
        for tx, residual in zip(self.transactions, row.residuals):
            if tx.name == tx_name:
                return residual
        raise JointTableError(f"transaction {tx_name!r} not in joint table")

    def pretty(self) -> str:
        names = ", ".join(tx.name for tx in self.transactions)
        lines = [f"joint symbolic table for {{{names}}} ({len(self.rows)} rows)"]
        lines += ["  " + row.pretty() for row in self.rows]
        return "\n".join(lines)


def build_joint_table(
    tables: Sequence[SymbolicTable], simplify: bool = True
) -> JointSymbolicTable:
    """Cross-product construction of the joint table (Section 2.2).

    Rows whose conjoined guard simplifies to ``false`` are pruned;
    this is what keeps joint tables of compatible transactions from
    exploding (e.g. ``x + y < 10`` of T1 contradicts ``x + y >= 20``
    of T2, removing that combination entirely -- compare Figure 4c,
    which has 3 rows rather than 4).
    """
    if not tables:
        raise JointTableError("cannot build a joint table for zero transactions")
    transactions = tuple(t.transaction for t in tables)
    seen = set()
    for tx in transactions:
        if tx.name in seen:
            raise JointTableError(f"duplicate transaction name {tx.name!r}")
        seen.add(tx.name)

    rows: list[JointRow] = [JointRow(guard=conj([]), residuals=())]
    for table in tables:
        tx = table.transaction
        extended: list[JointRow] = []
        for row in rows:
            for member in table.rows:
                guard = conj([row.guard, _rename_params(member.guard, tx)])
                if simplify:
                    guard = simplify_formula(guard)
                    if guard == FalseF:
                        continue
                extended.append(
                    JointRow(guard=guard, residuals=row.residuals + (member.residual,))
                )
        rows = extended
    return JointSymbolicTable(transactions=transactions, rows=rows)


