"""Quantifier-free formulas over integer term comparisons.

These formulas appear as the first components of symbolic table rows
(Section 2.2), as global treaties (Definition 3.6) and as local
treaties (Section 4.1).  The grammar mirrors ``BExp`` from Figure 5 of
the paper, closed under negation and conjunction/disjunction:

    f ::= true | false | e0 OP e1 | f0 AND f1 | f0 OR f1 | NOT f
    OP ::= < | <= | = | != | > | >=

``>``/``>=``/``!=`` are not primitive in the paper's grammar but arise
from negating primitives; keeping them as first-class operators keeps
negation-normal-form cheap and formulas readable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from repro.logic.terms import IndexedObjT, ObjT, ParamT, TempT, Term, fold_constants

#: comparison operator -> python semantics
_OPS: dict[str, Callable[[int, int], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: comparison operator -> its logical negation
NEGATED_OP: dict[str, str] = {
    "<": ">=",
    "<=": ">",
    "=": "!=",
    "!=": "=",
    ">": "<=",
    ">=": "<",
}

#: comparison operator -> the operator with swapped operands
SWAPPED_OP: dict[str, str] = {
    "<": ">",
    "<=": ">=",
    "=": "=",
    "!=": "!=",
    ">": "<",
    ">=": "<=",
}


class Formula:
    """Base class of all formula nodes."""

    __slots__ = ()

    def children(self) -> tuple["Formula", ...]:
        return ()

    def walk(self) -> Iterator["Formula"]:
        stack: list[Formula] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children())

    def atoms(self) -> Iterator["Cmp"]:
        """Yield every comparison atom in the formula."""
        for node in self.walk():
            if isinstance(node, Cmp):
                yield node

    # -- variable queries -----------------------------------------------------

    def objects(self) -> set[ObjT]:
        out: set[ObjT] = set()
        for atom in self.atoms():
            out |= atom.left.objects() | atom.right.objects()
        return out

    def indexed_objects(self) -> set[IndexedObjT]:
        out: set[IndexedObjT] = set()
        for atom in self.atoms():
            out |= atom.left.indexed_objects() | atom.right.indexed_objects()
        return out

    def params(self) -> set[ParamT]:
        out: set[ParamT] = set()
        for atom in self.atoms():
            out |= atom.left.params() | atom.right.params()
        return out

    def temps(self) -> set[TempT]:
        out: set[TempT] = set()
        for atom in self.atoms():
            out |= atom.left.temps() | atom.right.temps()
        return out

    # -- core operations -------------------------------------------------------

    def substitute(self, mapping: Mapping[Term, Term]) -> "Formula":
        raise NotImplementedError

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> bool:
        raise NotImplementedError

    def to_nnf(self, negate: bool = False) -> "Formula":
        """Push negations down to atoms (negation normal form)."""
        raise NotImplementedError

    def pretty(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.pretty()


@dataclass(frozen=True)
class BoolConst(Formula):
    """``true`` or ``false``."""

    value: bool

    def substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return self

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> bool:
        return self.value

    def to_nnf(self, negate: bool = False) -> Formula:
        return BoolConst(self.value != negate)

    def pretty(self) -> str:
        return "true" if self.value else "false"


TrueF = BoolConst(True)
FalseF = BoolConst(False)


@dataclass(frozen=True)
class Cmp(Formula):
    """A comparison atom ``left OP right``."""

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return Cmp(self.op, self.left.substitute(mapping), self.right.substitute(mapping))

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> bool:
        lhs = self.left.evaluate(getobj, params, temps)
        rhs = self.right.evaluate(getobj, params, temps)
        return _OPS[self.op](lhs, rhs)

    def negated(self) -> "Cmp":
        return Cmp(NEGATED_OP[self.op], self.left, self.right)

    def to_nnf(self, negate: bool = False) -> Formula:
        return self.negated() if negate else self

    def folded(self) -> "Cmp":
        """Constant-fold both sides."""
        return Cmp(self.op, fold_constants(self.left), fold_constants(self.right))

    def pretty(self) -> str:
        return f"{self.left.pretty()} {self.op} {self.right.pretty()}"


@dataclass(frozen=True)
class And(Formula):
    """N-ary conjunction."""

    operands: tuple[Formula, ...]

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return And(tuple(f.substitute(mapping) for f in self.operands))

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> bool:
        return all(f.evaluate(getobj, params, temps) for f in self.operands)

    def to_nnf(self, negate: bool = False) -> Formula:
        parts = tuple(f.to_nnf(negate) for f in self.operands)
        return Or(parts) if negate else And(parts)

    def pretty(self) -> str:
        if not self.operands:
            return "true"
        return "(" + " and ".join(f.pretty() for f in self.operands) + ")"


@dataclass(frozen=True)
class Or(Formula):
    """N-ary disjunction."""

    operands: tuple[Formula, ...]

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return Or(tuple(f.substitute(mapping) for f in self.operands))

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> bool:
        return any(f.evaluate(getobj, params, temps) for f in self.operands)

    def to_nnf(self, negate: bool = False) -> Formula:
        parts = tuple(f.to_nnf(negate) for f in self.operands)
        return And(parts) if negate else Or(parts)

    def pretty(self) -> str:
        if not self.operands:
            return "false"
        return "(" + " or ".join(f.pretty() for f in self.operands) + ")"


@dataclass(frozen=True)
class Not(Formula):
    """Logical negation."""

    operand: Formula

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def substitute(self, mapping: Mapping[Term, Term]) -> Formula:
        return Not(self.operand.substitute(mapping))

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> bool:
        return not self.operand.evaluate(getobj, params, temps)

    def to_nnf(self, negate: bool = False) -> Formula:
        return self.operand.to_nnf(not negate)

    def pretty(self) -> str:
        return f"not ({self.operand.pretty()})"


def conj(formulas: Iterable[Formula]) -> Formula:
    """Build a flattened conjunction, short-circuiting constants."""
    flat: list[Formula] = []
    for f in formulas:
        if isinstance(f, BoolConst):
            if not f.value:
                return FalseF
            continue
        if isinstance(f, And):
            flat.extend(f.operands)
        else:
            flat.append(f)
    if not flat:
        return TrueF
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(formulas: Iterable[Formula]) -> Formula:
    """Build a flattened disjunction, short-circuiting constants."""
    flat: list[Formula] = []
    for f in formulas:
        if isinstance(f, BoolConst):
            if f.value:
                return TrueF
            continue
        if isinstance(f, Or):
            flat.extend(f.operands)
        else:
            flat.append(f)
    if not flat:
        return FalseF
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def conjuncts(formula: Formula) -> list[Formula]:
    """Flatten a formula into its top-level conjuncts."""
    if isinstance(formula, And):
        out: list[Formula] = []
        for f in formula.operands:
            out.extend(conjuncts(f))
        return out
    if isinstance(formula, BoolConst) and formula.value:
        return []
    return [formula]
