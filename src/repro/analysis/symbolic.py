"""Symbolic table construction (Section 2.3, Figure 6).

A symbolic table for a transaction ``T`` is a set of rows
``(guard, residual)`` where ``guard`` is a formula over database
objects and transaction parameters, and ``residual`` is a straight-line
"partially evaluated" transaction that behaves exactly like ``T`` on
every database satisfying the guard.  Rows are mutually exclusive and
exhaustive: a database (with fixed parameter values) satisfies exactly
one guard.

The construction works backward through the command structure,
applying the rules of Figure 6:

1.  start from ``{(true, skip)}``;
2.  sequencing processes the second command first;
3.  conditionals duplicate the running table, conjoining the branch
    guard (or its negation);
4.  assignments substitute the assigned expression for the temporary
    in every guard and prepend the assignment to every residual;
5.  ``skip`` leaves the table unchanged;
6.  writes substitute the written expression for the object and
    prepend the write;
7.  prints prepend the print and leave guards unchanged.

Parameterized array writes (the Section 5.1 compressed form) require
care: a write to ``a[@p]`` may alias another reference ``a[@q]`` or
``a[3]`` appearing in a guard.  The analysis performs an explicit
alias case split, producing one row per alias pattern with the
corresponding equality/disequality guards -- this keeps the
construction sound without expanding arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.lang.ast import (
    Assign,
    Com,
    ForEach,
    If,
    Print,
    Seq,
    Skip,
    Transaction,
    Write,
    aexp_to_term,
    bexp_to_formula,
    ref_to_term,
    seq,
)
from repro.logic.formula import Cmp, FalseF, Formula, TrueF, conj
from repro.logic.simplify import simplify_formula
from repro.logic.terms import (
    IndexedObjT,
    ObjT,
    TempT,
    Term,
    parse_ground_name,
)

#: Hard cap on ambiguous alias references per write (case split is 2^m).
MAX_ALIAS_SPLIT = 6


class AnalysisError(Exception):
    """Raised when a transaction cannot be analyzed."""


@dataclass(frozen=True)
class Row:
    """One symbolic table row ``(guard, residual)``."""

    guard: Formula
    residual: Com

    def pretty(self) -> str:
        residual = self.residual.pretty().replace("\n", " ")
        return f"{self.guard.pretty()}  ->  [{residual}]"


@dataclass
class SymbolicTable:
    """The symbolic table ``Q_T`` of one transaction."""

    transaction: Transaction
    rows: list[Row] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def lookup(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
    ) -> Row:
        """Return the unique row whose guard holds on the database.

        Rows partition the database space (for fixed parameters), so
        exactly one guard matches; a mismatch indicates an analysis
        bug and raises :class:`AnalysisError`.
        """
        matches = [
            row for row in self.rows if row.guard.evaluate(getobj, params=params)
        ]
        if len(matches) != 1:
            raise AnalysisError(
                f"expected exactly one matching row for {self.transaction.name}, "
                f"found {len(matches)}"
            )
        return matches[0]

    def pretty(self) -> str:
        header = f"symbolic table for {self.transaction.name} ({len(self.rows)} rows)"
        lines = [header] + ["  " + row.pretty() for row in self.rows]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Write substitution with alias case-splitting
# ---------------------------------------------------------------------------


def _formula_base_refs(formula: Formula, base: str) -> set[Term]:
    """All references in the formula that could denote a slot of ``base``."""
    refs: set[Term] = set()
    for indexed in formula.indexed_objects():
        if indexed.base == base:
            refs.add(indexed)
    for obj in formula.objects():
        parsed = parse_ground_name(obj.name)
        if parsed is not None and parsed[0] == base:
            refs.add(obj)
    return refs


def _index_terms(ref: Term) -> tuple[Term, ...]:
    if isinstance(ref, IndexedObjT):
        return ref.index
    assert isinstance(ref, ObjT)
    parsed = parse_ground_name(ref.name)
    assert parsed is not None
    from repro.logic.terms import Const

    return tuple(Const(i) for i in parsed[1])


def _classify_alias(
    written: Term, other: Term, distinct: frozenset[frozenset[str]] = frozenset()
) -> str:
    """'same' / 'distinct' / 'ambiguous' aliasing of two references.

    ``distinct`` carries the transaction's ``assume_distinct`` groups:
    two different parameters of one group never take the same value.
    """
    if written == other:
        return "same"
    wi = _index_terms(written)
    oi = _index_terms(other)
    if len(wi) != len(oi):
        return "distinct"
    from repro.logic.terms import Const, ParamT

    all_const = all(isinstance(t, Const) for t in wi + oi)
    if all_const:
        return "same" if wi == oi else "distinct"
    if wi == oi:
        return "same"
    for a, b in zip(wi, oi):
        if (
            isinstance(a, ParamT)
            and isinstance(b, ParamT)
            and a.name != b.name
            and any(a.name in g and b.name in g for g in distinct)
        ):
            return "distinct"
        if isinstance(a, Const) and isinstance(b, Const) and a != b:
            return "distinct"
    return "ambiguous"


def _alias_guard(written: Term, other: Term, equal: bool) -> Formula:
    wi = _index_terms(written)
    oi = _index_terms(other)
    if equal:
        return conj([Cmp("=", a, b) for a, b in zip(wi, oi)])
    # "not all components equal": for 1-D indexes (the common case) a
    # single disequality; multi-dimensional disequality is a disjunction.
    from repro.logic.formula import disj

    return disj([Cmp("!=", a, b) for a, b in zip(wi, oi)])


def apply_write_substitution(
    guard: Formula,
    target: Term,
    replacement: Term,
    distinct: frozenset[frozenset[str]] = frozenset(),
) -> list[tuple[Formula, Formula]]:
    """Compute ``guard{replacement / target}`` with alias splitting.

    Returns a list of ``(alias_condition, substituted_guard)`` pairs
    whose alias conditions are mutually exclusive and exhaustive.  For
    ground scalar writes the list has exactly one entry with condition
    ``true``.
    """
    if isinstance(target, ObjT) and parse_ground_name(target.name) is None:
        # Plain scalar object: no aliasing possible.
        return [(TrueF, guard.substitute({target: replacement}))]

    base = target.base if isinstance(target, IndexedObjT) else parse_ground_name(target.name)[0]  # type: ignore[index]
    candidates = _formula_base_refs(guard, base)
    sure: set[Term] = set()
    ambiguous: list[Term] = []
    for ref in candidates:
        kind = _classify_alias(target, ref, distinct)
        if kind == "same":
            sure.add(ref)
        elif kind == "ambiguous":
            ambiguous.append(ref)
    ambiguous.sort(key=repr)
    if len(ambiguous) > MAX_ALIAS_SPLIT:
        raise AnalysisError(
            f"write to {target.pretty()} has {len(ambiguous)} ambiguous aliases "
            f"(limit {MAX_ALIAS_SPLIT}); expand the array instead"
        )

    results: list[tuple[Formula, Formula]] = []
    for pattern in itertools.product((True, False), repeat=len(ambiguous)):
        mapping: dict[Term, Term] = {target: replacement}
        for ref in sure:
            mapping[ref] = replacement
        conditions: list[Formula] = []
        for ref, equal in zip(ambiguous, pattern):
            conditions.append(_alias_guard(target, ref, equal))
            if equal:
                mapping[ref] = replacement
        results.append((conj(conditions), guard.substitute(mapping)))
    return results


# ---------------------------------------------------------------------------
# Backward construction
# ---------------------------------------------------------------------------


def _flatten_seq(com: Com) -> list[Com]:
    """Flatten nested ``Seq`` nodes into program order."""
    out: list[Com] = []
    stack = [com]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack.append(node.second)
            stack.append(node.first)
        else:
            out.append(node)
    return out


def _process(
    com: Com,
    rows: list[Row],
    simplify: bool,
    distinct: frozenset[frozenset[str]] = frozenset(),
) -> list[Row]:
    """Process a command backward (rule 2), statement by statement.

    Iterative over sequences so recursion depth tracks conditional
    nesting, not program length.
    """
    for cmd in reversed(_flatten_seq(com)):
        rows = _process_single(cmd, rows, simplify, distinct)
    return rows


def _process_single(
    com: Com, rows: list[Row], simplify: bool, distinct: frozenset[frozenset[str]]
) -> list[Row]:
    """Apply the Figure 6 rule for one non-sequence command."""
    if isinstance(com, Skip):
        return rows  # rule (5)
    if isinstance(com, If):  # rule (3)
        branch = bexp_to_formula(com.cond)
        not_branch = branch.to_nnf(negate=True)
        out: list[Row] = []
        for row in _process(com.then_branch, rows, simplify, distinct):
            out.append(Row(conj([branch, row.guard]), row.residual))
        for row in _process(com.else_branch, rows, simplify, distinct):
            out.append(Row(conj([not_branch, row.guard]), row.residual))
        return _prune(out, simplify)
    if isinstance(com, Assign):  # rule (4)
        expr = aexp_to_term(com.expr)
        mapping: dict[Term, Term] = {TempT(com.temp): expr}
        return [
            Row(row.guard.substitute(mapping), seq(com, row.residual)) for row in rows
        ]
    if isinstance(com, Write):  # rule (6)
        target = ref_to_term(com.ref)
        replacement = aexp_to_term(com.expr)
        out = []
        for row in rows:
            for alias_cond, guard in apply_write_substitution(
                row.guard, target, replacement, distinct
            ):
                out.append(Row(conj([alias_cond, guard]), seq(com, row.residual)))
        return _prune(out, simplify)
    if isinstance(com, Print):  # rule (7)
        return [Row(row.guard, seq(com, row.residual)) for row in rows]
    if isinstance(com, ForEach):
        raise AnalysisError(
            "foreach in transaction body; desugar with repro.lang.lpp first"
        )
    raise TypeError(f"unknown command node {com!r}")


def _prune(rows: list[Row], simplify: bool) -> list[Row]:
    if not simplify:
        return rows
    out: list[Row] = []
    for row in rows:
        guard = simplify_formula(row.guard)
        if guard == FalseF:
            continue
        out.append(Row(guard, row.residual))
    return out


def build_symbolic_table(
    tx: Transaction, simplify: bool = True, optimize_residuals: bool = True
) -> SymbolicTable:
    """Build the symbolic table of a (desugared) transaction.

    ``simplify`` prunes contradictory rows and redundant conjuncts; it
    never changes table semantics.  ``optimize_residuals`` runs the
    linear-cancellation and dead-read passes of
    :mod:`repro.analysis.residual` over each partially evaluated
    transaction (this is what produces Figure 4a's compact residuals
    and what lets Assumption 4.1 hold after the Appendix B transform).
    The completed guards mention only database objects and parameters
    -- a leftover temporary indicates a use-before-assignment in the
    transaction and raises :class:`AnalysisError`.
    """
    distinct = frozenset(frozenset(group) for group in tx.assume_distinct)
    rows = _process(tx.body, [Row(TrueF, Skip())], simplify, distinct)  # rules (1)-(2)
    for row in rows:
        leftover = row.guard.temps()
        if leftover:
            names = sorted(t.name for t in leftover)
            raise AnalysisError(
                f"temporaries {names} read before assignment in {tx.name}"
            )
    if optimize_residuals:
        from repro.analysis.residual import optimize_residual

        rows = [Row(row.guard, optimize_residual(row.residual)) for row in rows]
    return SymbolicTable(transaction=tx, rows=rows)


def rows_are_exclusive(
    table: SymbolicTable,
    databases: Iterable[Mapping[str, int]],
    params: Mapping[str, int] | None = None,
) -> bool:
    """Check mutual exclusivity of guards on the given sample databases."""
    for db in databases:
        matches = sum(
            1
            for row in table.rows
            if row.guard.evaluate(lambda n: db.get(n, 0), params=params)
        )
        if matches != 1:
            return False
    return True
