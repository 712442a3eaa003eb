"""Guard compilation and escrow lowering: the two local-check lowerings.

The whole point of the homeostasis protocol is that a *local* treaty
check replaces a coordinated round (Section 5.1), so the check sits on
the hot path of every single commit: stored-procedure dispatch
evaluates a row guard, and the pre-commit check enforces the site's
local treaty clauses.  This module lowers both ahead of time:

- :func:`compile_formula` turns a :class:`Formula` (ideally after
  :func:`repro.logic.simplify.simplify`) into a single Python code
  object built with :func:`compile`, a closure with the same
  ``(getobj, params, temps)`` signature and semantics as
  :meth:`~repro.logic.formula.Formula.evaluate` -- including raising
  :class:`KeyError` on unbound parameters or temporaries.  Compilation
  is memoized on the (hashable, immutable) AST, so recurring guards
  compile once while cached (the memo is bounded and cleared wholesale
  when it outgrows ``_CACHE_LIMIT``).
- :func:`lower_to_escrow` lowers a local treaty for the **escrow
  account** (:mod:`repro.treaty.escrow`), the one commit-time treaty
  check: each clause, a linear ``<=``-bound or equality pin over ground
  objects, becomes counter rows of an :class:`EscrowProgram` -- the
  static shape (per-row coefficients, object-to-row index) a site's
  headroom counters are run from.
  Treaty generation emits nothing else (``linearize_for_treaty`` and
  ``build_templates`` refuse clauses over non-object variables,
  :meth:`~repro.logic.linear.LinearConstraint.make` leaves only ``<=``
  and ``=``, and the WAL codec carries object names only), so a clause
  that does not lower is a caller's bug and raises
  :class:`CompilationError`.

Escrow lowering is not memoized: consecutive treaties almost never
repeat as a whole (under 7 % of installs on every benchmark workload),
so a site instead keeps one :class:`EscrowProgram` and patches it with
the clauses each install adds and removes (:meth:`EscrowProgram.add` /
:meth:`~EscrowProgram.remove`); every other clause keeps its rows, its
slots and its index entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.logic.formula import And, BoolConst, Cmp, Formula, Not, Or
from repro.logic.linear import LinearConstraint
from repro.logic.terms import (
    Add,
    Const,
    IndexedObjT,
    Mul,
    Neg,
    ObjT,
    ParamT,
    TempT,
    Term,
    ground_name,
)

#: signature of a compiled formula check (mirrors ``Formula.evaluate``)
FormulaCheck = Callable[..., bool]


class CompilationError(Exception):
    """The AST has no closed-form lowering (e.g. non-object variables
    in a treaty constraint)."""


#: comparison operator -> python source operator
_PY_OP = {"<": "<", "<=": "<=", "=": "==", "!=": "!=", ">": ">", ">=": ">="}

#: shared empty mapping for absent params/temps: lookups raise the
#: same ``KeyError`` the interpreter raises on unbound names
_EMPTY: Mapping[str, int] = {}

#: memo bound: when the table outgrows this limit it is simply cleared
#: (recompilation is cheap and correctness-free), which keeps
#: long-lived processes from accumulating dead code objects
_CACHE_LIMIT = 4096

_formula_cache: dict[Formula, FormulaCheck] = {}


# -- escrow lowering (the counter check's static shape) --------------------


@dataclass(frozen=True, eq=False)
class ClauseRows:
    """One clause's share of an escrow program: the counter rows it
    lowers to and the objects a violated row is attributed to.

    A ``<=`` clause is its own row; an equality pin ``e = b``
    becomes the opposing pair ``e <= b`` and ``-e <= -b``; a
    coefficient-less clause (trivially true, or the canonical-false
    normal form) mentions no object, so neither the account nor the
    interpreted oracle can ever attribute a violation to it (both judge
    only the clauses over a written object) and it lowers to no row.
    """

    rows: tuple[LinearConstraint, ...]
    #: per row: its ``(object name, coefficient)`` pairs
    terms: tuple[tuple[tuple[str, int], ...], ...]
    names: tuple[str, ...]
    #: a ``<=`` clause: its one row's counter is the clause's
    #: install-time grant (a pin's rows are not)
    budget: bool


def lower_clause(con: LinearConstraint) -> ClauseRows:
    """Lower one clause to its counter rows; :class:`CompilationError`
    if it is not a ``<=``-bound or equality pin over ground objects."""
    if con.op not in ("<=", "="):
        raise CompilationError(f"non-normalized constraint operator {con.op!r}")
    terms: list[tuple[str, int]] = []
    for var, coeff in con.expr.coeffs:
        if not isinstance(var, ObjT):
            raise CompilationError(
                f"treaty clause mentions non-object variable {var!r}"
            )
        terms.append((var.name, coeff))
    names = tuple(name for name, _coeff in terms)
    if not terms:
        return ClauseRows((), (), (), False)
    if con.op == "<=":
        return ClauseRows((con,), (tuple(terms),), names, True)
    return ClauseRows(
        (
            LinearConstraint(con.expr, "<=", con.bound),
            LinearConstraint(con.expr.scaled(-1), "<=", -con.bound),
        ),
        (tuple(terms), tuple((name, -coeff) for name, coeff in terms)),
        names,
        False,
    )


@dataclass(eq=False)
class EscrowProgram:
    """Shape of a lowered clause set: which counter rows
    exist and which objects they mention.

    The mutable counter values live in
    :class:`repro.treaty.escrow.EscrowAccount`.  A site keeps one
    program and **patches** it per install: :meth:`remove` for the
    clauses that left, :meth:`add` for the ones that entered, each
    touching the index entries of the names that clause mentions and
    nothing else.  Rows are therefore numbered by **slot**, not by
    treaty position: a removed row frees its slot, an added one takes
    a free slot before the lists grow.  Nothing the commit check
    computes depends on the numbering.

    Each source clause lowers to one or two counter rows, every row a
    ``<=``-bound (see :class:`ClauseRows`).
    """

    #: slot -> counter row, a normalized ``<=``-constraint (``None``:
    #: the slot is free)
    rows: list[LinearConstraint | None] = field(default_factory=list)
    #: slot -> the names of the objects the row's source clause
    #: mentions (violation reconstruction returns exactly these,
    #: matching the object set ``LocalTreaty.violations_after_writes``
    #: reports)
    clause_objects: list[tuple[str, ...]] = field(default_factory=list)
    #: object name -> [(slot, coefficient), ...] for every row
    #: mentioning it
    touching: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    #: placed clause (by identity) -> the slots of its rows
    slots: dict[ClauseRows, tuple[int, ...]] = field(default_factory=dict)
    _free: list[int] = field(default_factory=list)

    def add(self, clause: ClauseRows) -> tuple[int, ...]:
        """Place one clause's rows; returns their slots."""
        rows, free, touching = self.rows, self._free, self.touching
        slots = []
        for row, terms in zip(clause.rows, clause.terms):
            if free:
                slot = free.pop()
                rows[slot] = row
                self.clause_objects[slot] = clause.names
            else:
                slot = len(rows)
                rows.append(row)
                self.clause_objects.append(clause.names)
            slots.append(slot)
            for name, coeff in terms:
                touching.setdefault(name, []).append((slot, coeff))
        placed = self.slots[clause] = tuple(slots)
        return placed

    def remove(self, clause: ClauseRows) -> None:
        """Take a placed clause's rows back out and free their slots."""
        slots = self.slots.pop(clause)
        for slot in slots:
            self.rows[slot] = None
            self.clause_objects[slot] = ()
            self._free.append(slot)
        for name in clause.names:
            left = [pair for pair in self.touching[name] if pair[0] not in slots]
            if left:
                self.touching[name] = left
            else:
                del self.touching[name]


def lower_to_escrow(constraints: Iterable[LinearConstraint]) -> EscrowProgram:
    """Lower a clause set to its escrow program.

    Every clause is a linear ``<=``-bound or equality pin over ground
    objects (the two normal forms :meth:`LinearConstraint.make`
    produces; :func:`lower_clause` raises on anything else).  For a
    ``<=`` clause, slack ``bound - sum(coeff_i * D(x_i))`` is an
    integer headroom counter that a commit's deltas update
    incrementally -- exactly the numeric-invariant class that admits
    escrow-style local enforcement.  An equality pin lowers to an
    opposing pair of zero-slack rows (see :class:`ClauseRows`).

    This is the from-scratch lowering (WAL replay, the validate-mode
    oracle, tests): slots come out in treaty order.  An install
    patches the site's program instead.
    """
    program = EscrowProgram()
    for con in constraints:
        program.add(lower_clause(con))
    return program


# -- codegen ---------------------------------------------------------------


def _term_source(term: Term) -> str:
    """Python expression source for a term over ``(g, p, t)``."""
    if isinstance(term, Const):
        return f"({term.value})"
    if isinstance(term, ObjT):
        return f"g({term.name!r})"
    if isinstance(term, ParamT):
        return f"p[{term.name!r}]"
    if isinstance(term, TempT):
        return f"t[{term.name!r}]"
    if isinstance(term, IndexedObjT):
        indices = ", ".join(_term_source(ix) for ix in term.index)
        if len(term.index) == 1:
            indices += ","
        return f"g(_gn({term.base!r}, ({indices})))"
    if isinstance(term, Neg):
        return f"(-{_term_source(term.operand)})"
    if isinstance(term, Add):
        return f"({_term_source(term.left)} + {_term_source(term.right)})"
    if isinstance(term, Mul):
        return f"({_term_source(term.left)} * {_term_source(term.right)})"
    raise CompilationError(f"unknown term node {term!r}")


def _formula_source(formula: Formula) -> str:
    """Python expression source for a formula over ``(g, p, t)``."""
    if isinstance(formula, BoolConst):
        return "True" if formula.value else "False"
    if isinstance(formula, Cmp):
        lhs = _term_source(formula.left)
        rhs = _term_source(formula.right)
        return f"({lhs} {_PY_OP[formula.op]} {rhs})"
    if isinstance(formula, And):
        if not formula.operands:
            return "True"
        return "(" + " and ".join(_formula_source(f) for f in formula.operands) + ")"
    if isinstance(formula, Or):
        if not formula.operands:
            return "False"
        return "(" + " or ".join(_formula_source(f) for f in formula.operands) + ")"
    if isinstance(formula, Not):
        return f"(not {_formula_source(formula.operand)})"
    raise CompilationError(f"unknown formula node {formula!r}")


# -- public API ------------------------------------------------------------


def compile_formula(formula: Formula) -> FormulaCheck:
    """Compile a formula into a check equivalent to ``formula.evaluate``.

    The returned closure has the signature
    ``check(getobj, params=None, temps=None) -> bool`` and agrees with
    the interpreter on every environment, including raising
    ``KeyError`` for unbound parameters and temporaries.
    """
    cached = _formula_cache.get(formula)
    if cached is not None:
        return cached
    raw: Callable[..., bool] | None
    try:
        source = f"lambda g, p, t: {_formula_source(formula)}"
        raw = eval(compile(source, "<guard-check>", "eval"), {"_gn": ground_name})
    except (SyntaxError, RecursionError, MemoryError):
        # Pathologically deep ASTs (e.g. a foreach unrolled over
        # hundreds of array slots) can exceed CPython's nested-paren
        # or recursion limits; the equivalence contract wins over the
        # speedup, so fall back to the interpreter itself.
        raw = None

    if raw is None:
        check: FormulaCheck = formula.evaluate
    else:

        def check(
            getobj: Callable[[str], int],
            params: Mapping[str, int] | None = None,
            temps: Mapping[str, int] | None = None,
        ) -> bool:
            return raw(
                getobj,
                _EMPTY if params is None else params,
                _EMPTY if temps is None else temps,
            )

    if len(_formula_cache) >= _CACHE_LIMIT:
        _formula_cache.clear()
    _formula_cache[formula] = check
    return check
