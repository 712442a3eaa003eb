"""Linear normal forms over integer variables.

The treaty machinery of Section 4.2 works with *linear constraints*:

    sum_i d_i * x_i  OP  n      with OP in {<, <=, =}

This module provides ``LinearExpr`` (an integer-coefficient linear
combination over arbitrary hashable variable keys) and
``LinearConstraint`` (a normalized comparison of a linear expression
against an integer bound), together with the lowering from the term
language of :mod:`repro.logic.terms`.

Variable keys are deliberately generic: the analysis uses term leaves
(``ObjT``), while the treaty optimizer mixes in configuration
variables (:class:`repro.treaty.templates.ConfigVar`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Hashable, Mapping

from repro.logic.formula import Cmp
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
)


class LinearizationError(Exception):
    """Raised when a term or atom has no linear representation."""


@dataclass(frozen=True)
class LinearExpr:
    """``sum(coeffs[v] * v) + const`` with integer coefficients.

    Instances are immutable; arithmetic helpers return new objects.
    Zero coefficients are never stored.
    """

    coeffs: tuple[tuple[Hashable, int], ...]
    const: int = 0

    @staticmethod
    def make(coeffs: Mapping[Hashable, int], const: int = 0) -> "LinearExpr":
        items = tuple(
            sorted(
                ((v, c) for v, c in coeffs.items() if c != 0),
                key=lambda kv: repr(kv[0]),
            )
        )
        return LinearExpr(items, const)

    @staticmethod
    def constant(value: int) -> "LinearExpr":
        return LinearExpr((), value)

    @staticmethod
    def variable(var: Hashable, coeff: int = 1) -> "LinearExpr":
        if coeff == 0:
            return LinearExpr((), 0)
        return LinearExpr(((var, coeff),), 0)

    def coeff_map(self) -> dict[Hashable, int]:
        return dict(self.coeffs)

    def variables(self) -> set[Hashable]:
        return {v for v, _ in self.coeffs}

    def is_constant(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LinearExpr | int") -> "LinearExpr":
        if isinstance(other, int):
            return LinearExpr(self.coeffs, self.const + other)
        merged = self.coeff_map()
        for v, c in other.coeffs:
            merged[v] = merged.get(v, 0) + c
        return LinearExpr.make(merged, self.const + other.const)

    def __sub__(self, other: "LinearExpr | int") -> "LinearExpr":
        if isinstance(other, int):
            return LinearExpr(self.coeffs, self.const - other)
        return self + other.scaled(-1)

    def scaled(self, factor: int) -> "LinearExpr":
        if factor == 0:
            return LinearExpr((), 0)
        return LinearExpr(
            tuple((v, c * factor) for v, c in self.coeffs), self.const * factor
        )

    def evaluate(self, assignment: Mapping[Hashable, int]) -> int:
        total = self.const
        for v, c in self.coeffs:
            total += c * assignment[v]
        return total

    def value_on(self, getobj: Callable[[str], int]) -> int:
        """The expression's value on a store, ``getobj`` reading each
        ground object by name: the one loop that evaluates a treaty
        clause.  Raises :class:`LinearizationError` on a variable that
        is not a ground object (a parameter or temporary left in)."""
        total = self.const
        for var, coeff in self.coeffs:
            if not isinstance(var, ObjT):
                raise LinearizationError(
                    f"treaty constraint mentions non-object variable {var!r}"
                )
            total += coeff * getobj(var.name)
        return total

    def pretty(self) -> str:
        parts: list[str] = []
        for v, c in self.coeffs:
            name = v.pretty() if isinstance(v, Term) else str(v)
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.pretty()


@dataclass(frozen=True)
class LinearConstraint:
    """A normalized linear constraint ``expr OP bound``.

    After normalization ``op`` is either ``"<="`` or ``"="`` and the
    expression carries no constant part (it is folded into ``bound``).
    Over the integers, strict ``<`` is normalized to ``<= bound - 1``
    and ``>=`` / ``>`` are normalized by negating coefficients.
    """

    expr: LinearExpr
    op: str
    bound: int

    def __hash__(self) -> int:
        # Clauses key the per-install dicts (headroom grants, WAL
        # encoding, escrow rows), and hashing one walks its whole
        # coefficient vector: remember the result.
        cached: int | None = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash((self.expr, self.op, self.bound))
        return cached

    @staticmethod
    def make(expr: LinearExpr, op: str, bound: int) -> "LinearConstraint":
        # Fold the expression's constant into the bound.
        bound = bound - expr.const
        expr = LinearExpr(expr.coeffs, 0)
        if op == "<":
            op, bound = "<=", bound - 1
        elif op == ">":
            # e > b  <=>  e >= b + 1  <=>  -e <= -(b + 1)
            expr, op, bound = expr.scaled(-1), "<=", -bound - 1
        elif op == ">=":
            op, expr, bound = "<=", expr.scaled(-1), -bound
        if op not in ("<=", "="):
            raise LinearizationError(f"operator {op!r} has no linear normal form")
        return LinearConstraint(expr, op, bound)._tightened()

    def _tightened(self) -> "LinearConstraint":
        """Divide through by the gcd of the coefficients (integer tightening)."""
        if not self.expr.coeffs:
            return self
        g = 0
        for _, c in self.expr.coeffs:
            g = gcd(g, abs(c))
        if g <= 1:
            return self
        coeffs = tuple((v, c // g) for v, c in self.expr.coeffs)
        if self.op == "<=":
            bound = self.bound // g  # floor division tightens soundly
            return LinearConstraint(LinearExpr(coeffs, 0), "<=", bound)
        if self.bound % g != 0:
            # Equality whose bound is not divisible by the coefficient
            # gcd has no *integer* solution; normalize to a canonical
            # false constraint (all constraints in this system range
            # over integer-valued database objects, so this is sound,
            # and it keeps branch-and-bound from diverging on
            # unbounded relaxations of such constraints).
            return LinearConstraint(LinearExpr((), 0), "<=", -1)
        return LinearConstraint(LinearExpr(coeffs, 0), "=", self.bound // g)

    def variables(self) -> set[Hashable]:
        return self.expr.variables()

    def coeff_for(self, var: Hashable) -> int:
        for v, c in self.expr.coeffs:
            if v == var:
                return c
        return 0

    def is_trivially_true(self) -> bool:
        if self.expr.coeffs:
            return False
        return 0 <= self.bound if self.op == "<=" else self.bound == 0

    def is_trivially_false(self) -> bool:
        if self.expr.coeffs:
            return False
        return not self.is_trivially_true()

    def satisfied_by(self, assignment: Mapping[Hashable, int]) -> bool:
        value = self.expr.evaluate(assignment)
        return value <= self.bound if self.op == "<=" else value == self.bound

    def slack(self, getobj: Callable[[str], int]) -> int:
        """Headroom on a store: ``bound - sum(d_i * D(x_i))``; negative
        means a ``<=``-clause is violated (see :meth:`LinearExpr.value_on`)."""
        return self.bound - self.expr.value_on(getobj)

    def holds_on(self, getobj: Callable[[str], int]) -> bool:
        """Whether the clause holds on a store (an equality needs zero
        slack, a ``<=``-bound any slack that is not negative)."""
        value = self.expr.value_on(getobj)
        return value <= self.bound if self.op == "<=" else value == self.bound

    def negated(self) -> "LinearConstraint":
        """Return the negation (only defined for ``<=``)."""
        if self.op != "<=":
            raise LinearizationError(
                "cannot negate a linear equality into one constraint"
            )
        # not(e <= b)  <=>  e >= b + 1  <=>  -e <= -(b + 1)
        return LinearConstraint.make(self.expr.scaled(-1), "<=", -(self.bound + 1))

    def pretty(self) -> str:
        return f"{self.expr.pretty()} {self.op} {self.bound}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.pretty()


def linear_of_term(term: Term) -> LinearExpr:
    """Lower a term to a linear expression over its leaf variables.

    Raises :class:`LinearizationError` if the term multiplies two
    non-constant subterms (non-linear arithmetic).
    """
    if isinstance(term, Const):
        return LinearExpr.constant(term.value)
    if isinstance(term, (ObjT, ParamT, TempT)):
        return LinearExpr.variable(term)
    if isinstance(term, IndexedObjT):
        grounded = term.try_ground()
        return LinearExpr.variable(grounded if grounded is not None else term)
    if isinstance(term, Neg):
        return linear_of_term(term.operand).scaled(-1)
    if isinstance(term, Add):
        return linear_of_term(term.left) + linear_of_term(term.right)
    if isinstance(term, Mul):
        left = linear_of_term(term.left)
        right = linear_of_term(term.right)
        if left.is_constant():
            return right.scaled(left.const)
        if right.is_constant():
            return left.scaled(right.const)
        raise LinearizationError(f"non-linear product: {term.pretty()}")
    raise TypeError(f"unknown term node {term!r}")


def constraints_of_cmp(atom: Cmp) -> list[LinearConstraint]:
    """Lower a comparison atom to normalized linear constraints.

    ``!=`` is non-convex and has no conjunction-of-linear-constraints
    form; callers must handle it (the Appendix C.1 preprocessing pins
    the involved variables instead).
    """
    if atom.op == "!=":
        raise LinearizationError("disequality is not linearizable")
    lhs = linear_of_term(atom.left)
    rhs = linear_of_term(atom.right)
    diff = lhs - rhs
    return [LinearConstraint.make(diff, atom.op, 0)]
