"""Formula and treaty-clause compilation: the local-check fast path.

The whole point of the homeostasis protocol is that a *local* treaty
check replaces a coordinated round (Section 5.1), so the check sits on
the hot path of every single commit: stored-procedure dispatch
evaluates a row guard, and the pre-commit check evaluates the site's
local treaty clauses.  The interpreted implementations
(:meth:`repro.logic.formula.Formula.evaluate` and the per-constraint
loops over :class:`repro.logic.linear.LinearConstraint`) walk an AST
per call, which costs microseconds where the protocol's argument says
it should cost nanoseconds.

This module lowers both representations into single Python code
objects built with :func:`compile`:

- :func:`compile_formula` turns a :class:`Formula` (ideally after
  :func:`repro.logic.simplify.simplify`) into a closure with the same
  ``(getobj, params, temps)`` signature and semantics as
  ``Formula.evaluate`` -- including raising :class:`KeyError` on
  unbound parameters or temporaries;
- :func:`compile_clause` / :func:`compile_clauses` turn normalized
  linear treaty constraints into closures over ``getobj`` alone,
  equivalent to :func:`interpret_clauses` (the interpreted reference
  kept for differential tests and benchmarks);
- :func:`lower_to_escrow` classifies a clause set for the **escrow
  fast path** (:mod:`repro.treaty.escrow`): a conjunction whose every
  clause is a linear ``<=``-bound or equality pin over ground objects
  lowers to an :class:`EscrowProgram` -- the static shape (per-row
  coefficients, object-to-row index, worst-case coefficient
  magnitudes) that a site's headroom counters are run from.  Anything
  else (non-object variables, non-normalized operators) returns
  ``None`` and stays on the compiled-closure path.

Compilation is memoized on the (hashable, immutable) AST nodes, so
recurring guards and the value-keyed treaty pieces the incremental
generator reuses across rounds compile once while cached (the memo
tables are bounded and cleared wholesale when they outgrow
``_CACHE_LIMIT``, so long-lived processes never accumulate dead code
objects).  Escrow lowering is not memoized: consecutive treaties
almost never repeat as a whole (under 7 % of installs on every
benchmark workload), so a site instead keeps one
:class:`EscrowProgram` and patches it with the clauses each install
adds and removes (:meth:`EscrowProgram.add` / :meth:`~EscrowProgram.
remove`); every other clause keeps its rows, its slots and its index
entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

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
#: signature of a compiled treaty-clause check
ClauseCheck = Callable[[Callable[[str], int]], bool]


class CompilationError(Exception):
    """The AST has no closed-form lowering (e.g. non-object variables
    in a treaty constraint)."""


#: comparison operator -> python source operator
_PY_OP = {"<": "<", "<=": "<=", "=": "==", "!=": "!=", ">": ">", ">=": ">="}

#: shared empty mapping for absent params/temps: lookups raise the
#: same ``KeyError`` the interpreter raises on unbound names
_EMPTY: Mapping[str, int] = {}

#: above this many clauses a conjunction is split into several code
#: objects (keeps generated expressions small for pathological treaties)
_CHUNK = 64

#: per-table memo bound: value-keyed treaty pieces recur across rounds
#: so the working set is small, but each negotiation can also mint
#: clauses with fresh bounds -- when a table outgrows this limit it is
#: simply cleared (recompilation is cheap and correctness-free), which
#: keeps long-lived processes from accumulating dead code objects
_CACHE_LIMIT = 4096

_formula_cache: dict[Formula, FormulaCheck] = {}
_clause_cache: dict[LinearConstraint, ClauseCheck] = {}
_conjunction_cache: dict[tuple[LinearConstraint, ...], ClauseCheck] = {}


_K = TypeVar("_K")
_V = TypeVar("_V")


def _remember(cache: dict[_K, _V], key: _K, value: _V) -> _V:
    if len(cache) >= _CACHE_LIMIT:
        cache.clear()
    cache[key] = value
    return value


def compiled_counts() -> dict[str, int]:
    """Sizes of the memo tables (observability for tests/benchmarks)."""
    return {
        "formulas": len(_formula_cache),
        "clauses": len(_clause_cache),
        "conjunctions": len(_conjunction_cache),
    }


# -- escrow lowering (the counter fast path's static shape) ---------------


#: drain coefficient assigned to objects pinned by an equality clause:
#: large enough that any nonzero delta to a pinned object exceeds any
#: realistic window budget, forcing the exact settle-and-check path
#: (a pin has zero headroom in at least one direction, so there is no
#: slack to consume optimistically)
PIN_DRAIN = 1 << 60


@dataclass(frozen=True, eq=False)
class ClauseRows:
    """One clause's share of an escrow program: the counter rows it
    lowers to and the objects a violated row is attributed to.

    A ``<=`` clause is its own (budget) row; an equality pin ``e = b``
    becomes the opposing pair ``e <= b`` and ``-e <= -b``; a
    coefficient-less clause (trivially true, or the canonical-false
    normal form) mentions no object, so neither check path can ever
    attribute a violation to it and it lowers to no row at all.
    """

    rows: tuple[LinearConstraint, ...]
    #: per row: its ``(object name, coefficient)`` pairs
    terms: tuple[tuple[tuple[str, int], ...], ...]
    names: tuple[str, ...]
    #: rows lend headroom to the window budget (``<=`` clauses only)
    budget: bool


def lower_clause(con: LinearConstraint) -> ClauseRows | None:
    """Lower one clause, or ``None`` if it is escrow-ineligible (not a
    ``<=``-bound or equality pin, or over non-object variables)."""
    if con.op not in ("<=", "="):
        return None
    terms: list[tuple[str, int]] = []
    for var, coeff in con.expr.coeffs:
        if not isinstance(var, ObjT):
            return None
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
    """Shape of an escrow-eligible clause set: which counter rows
    exist, which objects they mention, what a write can drain.

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
    ``<=``-bound (see :class:`ClauseRows`).  Pin rows are excluded
    from the window budget -- they have no headroom to lend -- and
    pinned objects carry a :data:`PIN_DRAIN` worst-case coefficient so
    any write that moves one lands on the exact path.
    """

    #: slot -> counter row, a normalized ``<=``-constraint (``None``:
    #: the slot is free)
    rows: list[LinearConstraint | None] = field(default_factory=list)
    #: slot -> the names of the objects the row's source clause
    #: mentions (violation reconstruction returns exactly these,
    #: matching the object set ``LocalTreaty.violations_after_writes``
    #: reports)
    clause_objects: list[tuple[str, ...]] = field(default_factory=list)
    #: slots participating in the window budget (rows lowered from
    #: ``<=`` clauses; pin rows never lend headroom).  A list, not a
    #: set: every settlement takes a ``min`` over it, and a removal's
    #: scan is the same pointer-level pass at a fraction of the rate
    budget_rows: list[int] = field(default_factory=list)
    #: slots lowered from equality pins
    pin_rows: list[int] = field(default_factory=list)
    #: object name -> [(slot, coefficient), ...] for every row
    #: mentioning it
    touching: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    #: object name -> max |coefficient| across the rows mentioning it:
    #: a one-unit write to the object can drain at most this much
    #: headroom from any single budget row (the window guard's worst
    #: case); :data:`PIN_DRAIN` for pinned objects
    max_coeff: dict[str, int] = field(default_factory=dict)
    #: placed clause (by identity) -> the slots of its rows
    slots: dict[ClauseRows, tuple[int, ...]] = field(default_factory=dict)
    _free: list[int] = field(default_factory=list)

    def add(self, clause: ClauseRows) -> tuple[int, ...]:
        """Place one clause's rows; returns their slots."""
        rows, free = self.rows, self._free
        kind_rows = self.budget_rows if clause.budget else self.pin_rows
        touching, max_coeff = self.touching, self.max_coeff
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
            kind_rows.append(slot)
            slots.append(slot)
            for name, coeff in terms:
                touching.setdefault(name, []).append((slot, coeff))
                magnitude = abs(coeff) if clause.budget else PIN_DRAIN
                if magnitude > max_coeff.get(name, 0):
                    max_coeff[name] = magnitude
        placed = self.slots[clause] = tuple(slots)
        return placed

    def remove(self, clause: ClauseRows) -> None:
        """Take a placed clause's rows back out and free their slots."""
        slots = self.slots.pop(clause)
        kind_rows = self.budget_rows if clause.budget else self.pin_rows
        for slot in slots:
            self.rows[slot] = None
            self.clause_objects[slot] = ()
            kind_rows.remove(slot)
            self._free.append(slot)
        pin_rows = self.pin_rows
        for name in clause.names:
            left = [pair for pair in self.touching[name] if pair[0] not in slots]
            if left:
                self.touching[name] = left
                self.max_coeff[name] = max(
                    PIN_DRAIN if slot in pin_rows else abs(coeff)
                    for slot, coeff in left
                )
            else:
                del self.touching[name], self.max_coeff[name]


def lower_to_escrow(
    constraints: Iterable[LinearConstraint],
) -> EscrowProgram | None:
    """Lower a clause set to its escrow program, or ``None`` if any
    clause is ineligible.

    Eligibility rule: every clause must be a linear ``<=``-bound or
    equality pin over ground objects (the two normal forms
    :meth:`LinearConstraint.make` produces).  For a ``<=`` clause,
    slack ``bound - sum(coeff_i * D(x_i))`` is an integer headroom
    counter that a commit's deltas update incrementally -- exactly the
    numeric-invariant class that admits escrow-style local
    enforcement.  An equality pin lowers to an opposing pair of
    zero-slack rows (see :class:`ClauseRows`).  Any clause over
    non-object variables sends the whole treaty to the compiled slow
    path.

    This is the from-scratch lowering (WAL replay, the validate-mode
    oracle, tests): slots come out in treaty order.  An install
    patches the site's program instead.
    """
    lowered: list[ClauseRows] = []
    for con in constraints:
        clause = lower_clause(con)
        if clause is None:
            return None
        lowered.append(clause)
    program = EscrowProgram()
    for clause in lowered:
        program.add(clause)
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


def _clause_source(con: LinearConstraint) -> str:
    """Python expression source for a treaty clause over ``g``."""
    if con.op not in ("<=", "="):
        raise CompilationError(f"non-normalized constraint operator {con.op!r}")
    parts: list[str] = []
    for var, coeff in con.expr.coeffs:
        if not isinstance(var, ObjT):
            raise CompilationError(
                f"treaty clause mentions non-object variable {var!r}"
            )
        access = f"g({var.name!r})"
        if coeff == 1:
            parts.append(access)
        elif coeff == -1:
            parts.append(f"-{access}")
        else:
            parts.append(f"{coeff}*{access}")
    total = " + ".join(parts) if parts else "0"
    return f"({total}) {_PY_OP[con.op]} {con.bound}"


def _make(source: str, args: str) -> Callable[..., Any]:
    """Build one closure from generated expression source."""
    code = compile(f"lambda {args}: {source}", "<treaty-check>", "eval")
    closure: Callable[..., Any] = eval(code, {"_gn": ground_name})
    return closure


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
    try:
        raw = _make(_formula_source(formula), "g, p, t")
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

    return _remember(_formula_cache, formula, check)


def compile_clause(con: LinearConstraint) -> ClauseCheck:
    """Compile one normalized treaty clause into a check over ``getobj``."""
    cached = _clause_cache.get(con)
    if cached is not None:
        return cached
    return _remember(_clause_cache, con, _make(_clause_source(con), "g"))


def compile_clauses(constraints: Iterable[LinearConstraint]) -> ClauseCheck:
    """Compile a conjunction of treaty clauses into one check.

    This is the per-commit fast path: the entire local treaty becomes
    a single short-circuiting code object, so checking costs one
    closure call instead of a Python-level loop with per-clause
    dispatch.
    """
    cons = tuple(constraints)
    cached = _conjunction_cache.get(cons)
    if cached is not None:
        return cached
    if not cons:
        check: ClauseCheck = lambda g: True  # the empty treaty holds
    elif len(cons) <= _CHUNK:
        check = _make(" and ".join(_clause_source(c) for c in cons), "g")
    else:
        chunks = tuple(
            _make(" and ".join(_clause_source(c) for c in cons[i : i + _CHUNK]), "g")
            for i in range(0, len(cons), _CHUNK)
        )

        def check(
            g: Callable[[str], int],
            _chunks: tuple[Callable[..., Any], ...] = chunks,
        ) -> bool:
            return all(part(g) for part in _chunks)

    return _remember(_conjunction_cache, cons, check)


def interpret_clauses(
    constraints: Sequence[LinearConstraint], getobj: Callable[[str], int]
) -> bool:
    """Interpreted reference semantics for :func:`compile_clauses`.

    Kept (rather than deleted with the old per-call loops) so the
    equivalence property tests and the benchmark harness can measure
    compiled-vs-interpreted head to head.
    """
    for con in constraints:
        if con.op not in ("<=", "="):
            raise CompilationError(f"non-normalized constraint operator {con.op!r}")
        total = 0
        for var, coeff in con.expr.coeffs:
            if not isinstance(var, ObjT):
                raise CompilationError(
                    f"treaty clause mentions non-object variable {var!r}"
                )
            total += coeff * getobj(var.name)
        ok = total <= con.bound if con.op == "<=" else total == con.bound
        if not ok:
            return False
    return True
