"""Abstract syntax for the transaction languages L and L++.

The node set mirrors Figure 5 of the paper:

    (AExp)  e ::= n | p | x^ | e0 (+|*) e1 | -e | read(x)
    (BExp)  b ::= true | false | e0 (<|=|<=) e1 | b0 and b1 | not b
    (Com)   c ::= skip | x^ := e | c0; c1 | if b then c1 else c2
                | write(x = e) | print(e)
    (Trans) T ::= { c } (P)

plus the L++ extensions of Section 2.4 / Appendix A:

- array references ``a(e1, ..., ek)`` in read and write position
  (:class:`ArrayRef`), with declared bounds recorded in
  :class:`Program`;
- bounded iteration ``foreach i in a { ... }`` (:class:`ForEach`),
  which unrolls during desugaring;
- ``or`` / ``>=`` / ``>`` / ``!=`` as derived boolean forms.

Object references in read/write position are :class:`GroundRef`
(a plain named database object) or :class:`ArrayRef` (a base name
plus index expressions).  AExp nodes convert to logic terms via
:func:`aexp_to_term`; BExp nodes convert to formulas via
:func:`bexp_to_formula` -- these conversions are what the symbolic
analysis of Section 2.3 operates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.logic.formula import BoolConst, Cmp, Formula, conj, disj
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

# ---------------------------------------------------------------------------
# Object references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroundRef:
    """A reference to a named database object, e.g. ``x``."""

    name: str

    def pretty(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayRef:
    """An L++ array access ``base(e1, ..., ek)``."""

    base: str
    index: tuple["AExp", ...]

    def pretty(self) -> str:
        return f"{self.base}({', '.join(e.pretty() for e in self.index)})"


ObjRef = Union[GroundRef, ArrayRef]


# ---------------------------------------------------------------------------
# Arithmetic expressions
# ---------------------------------------------------------------------------


class AExp:
    """Base class for arithmetic expressions."""

    __slots__ = ()

    def pretty(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.pretty()


@dataclass(frozen=True)
class AConst(AExp):
    value: int

    def pretty(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class AParam(AExp):
    """A transaction parameter occurrence."""

    name: str

    def pretty(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class ATemp(AExp):
    """A temporary-variable occurrence."""

    name: str

    def pretty(self) -> str:
        return self.name


@dataclass(frozen=True)
class ARead(AExp):
    """``read(x)`` -- fetch a database object's current value."""

    ref: ObjRef

    def pretty(self) -> str:
        return f"read({self.ref.pretty()})"


@dataclass(frozen=True)
class ABin(AExp):
    """Binary ``+``, ``-`` or ``*`` (``-`` is sugar for ``+ (-e)``)."""

    op: str
    left: AExp
    right: AExp

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*"):
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    def pretty(self) -> str:
        return f"({self.left.pretty()} {self.op} {self.right.pretty()})"


@dataclass(frozen=True)
class ANeg(AExp):
    operand: AExp

    def pretty(self) -> str:
        return f"-({self.operand.pretty()})"


# ---------------------------------------------------------------------------
# Boolean expressions
# ---------------------------------------------------------------------------


class BExp:
    """Base class for boolean expressions."""

    __slots__ = ()

    def pretty(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.pretty()


@dataclass(frozen=True)
class BConst(BExp):
    value: bool

    def pretty(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class BCmp(BExp):
    """Comparison of two arithmetic expressions."""

    op: str
    left: AExp
    right: AExp

    def __post_init__(self) -> None:
        if self.op not in ("<", "<=", "=", "!=", ">", ">="):
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def pretty(self) -> str:
        return f"{self.left.pretty()} {self.op} {self.right.pretty()}"


@dataclass(frozen=True)
class BAnd(BExp):
    left: BExp
    right: BExp

    def pretty(self) -> str:
        return f"({self.left.pretty()} and {self.right.pretty()})"


@dataclass(frozen=True)
class BOr(BExp):
    """Derived form: ``b0 or b1`` is ``not (not b0 and not b1)``."""

    left: BExp
    right: BExp

    def pretty(self) -> str:
        return f"({self.left.pretty()} or {self.right.pretty()})"


@dataclass(frozen=True)
class BNot(BExp):
    operand: BExp

    def pretty(self) -> str:
        return f"not ({self.operand.pretty()})"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


class Com:
    """Base class for commands."""

    __slots__ = ()

    def pretty(self, indent: int = 0) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.pretty()


@dataclass(frozen=True)
class Skip(Com):
    def pretty(self, indent: int = 0) -> str:
        return " " * indent + "skip"


@dataclass(frozen=True)
class Assign(Com):
    """``temp := e``"""

    temp: str
    expr: AExp

    def pretty(self, indent: int = 0) -> str:
        return " " * indent + f"{self.temp} := {self.expr.pretty()}"


@dataclass(frozen=True)
class Seq(Com):
    """``c0; c1``"""

    first: Com
    second: Com

    def pretty(self, indent: int = 0) -> str:
        return f"{self.first.pretty(indent)};\n{self.second.pretty(indent)}"


@dataclass(frozen=True)
class If(Com):
    cond: BExp
    then_branch: Com
    else_branch: Com

    def pretty(self, indent: int = 0) -> str:
        pad = " " * indent
        return (
            f"{pad}if {self.cond.pretty()} then {{\n"
            f"{self.then_branch.pretty(indent + 2)}\n{pad}}} else {{\n"
            f"{self.else_branch.pretty(indent + 2)}\n{pad}}}"
        )


@dataclass(frozen=True)
class Write(Com):
    """``write(ref = e)``"""

    ref: ObjRef
    expr: AExp

    def pretty(self, indent: int = 0) -> str:
        return " " * indent + f"write({self.ref.pretty()} = {self.expr.pretty()})"


@dataclass(frozen=True)
class Print(Com):
    """``print(e)`` -- append a value to the externally visible log."""

    expr: AExp

    def pretty(self, indent: int = 0) -> str:
        return " " * indent + f"print({self.expr.pretty()})"


@dataclass(frozen=True)
class ForEach(Com):
    """L++ bounded iteration: ``foreach i in a { c }``.

    ``i`` is a temporary bound to each index ``0..bound-1`` of the
    declared array ``a`` in turn; desugaring unrolls the body once per
    index with ``i`` replaced by the constant.  Not valid in plain L.
    """

    var: str
    array: str
    body: Com

    def pretty(self, indent: int = 0) -> str:
        pad = " " * indent
        return (
            f"{pad}foreach {self.var} in {self.array} {{\n"
            f"{self.body.pretty(indent + 2)}\n{pad}}}"
        )


# ---------------------------------------------------------------------------
# Transactions and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transaction:
    """A named transaction ``{ c } (P)`` with integer parameters P.

    ``assume_distinct`` lists groups of parameters the caller promises
    to instantiate with pairwise-distinct values (e.g. the item ids of
    a multi-item order).  The alias analysis uses the promise to avoid
    case-splitting on impossible aliases, and grounding skips the
    excluded combinations.
    """

    name: str
    params: tuple[str, ...]
    body: Com
    assume_distinct: tuple[tuple[str, ...], ...] = ()

    def pretty(self) -> str:
        header = f"transaction {self.name}({', '.join('@' + p for p in self.params)})"
        for group in self.assume_distinct:
            header += f" distinct({', '.join(group)})"
        return f"{header} {{\n{self.body.pretty(2)}\n}}"


@dataclass
class Program:
    """A compilation unit: array declarations plus transactions.

    ``arrays`` maps an array base name to its declared shape (a tuple
    of per-dimension bounds).  Declarations are required for the naive
    Appendix-A desugaring of dynamic accesses and for ``foreach``.
    """

    arrays: dict[str, tuple[int, ...]] = field(default_factory=dict)
    transactions: dict[str, Transaction] = field(default_factory=dict)

    def add(self, tx: Transaction) -> None:
        if tx.name in self.transactions:
            raise ValueError(f"duplicate transaction {tx.name!r}")
        self.transactions[tx.name] = tx


# ---------------------------------------------------------------------------
# Conversions to logic terms / formulas
# ---------------------------------------------------------------------------


def ref_to_term(ref: ObjRef) -> Term:
    """Convert an object reference to the term denoting its value."""
    if isinstance(ref, GroundRef):
        return ObjT(ref.name)
    term = IndexedObjT(ref.base, tuple(aexp_to_term(e) for e in ref.index))
    grounded = term.try_ground()
    return grounded if grounded is not None else term


def aexp_to_term(expr: AExp) -> Term:
    """Convert an arithmetic expression to a logic term.

    ``read(x)`` becomes the object variable ``x``: in formulas, an
    object denotes its value in the database state at the relevant
    program point (Section 2.3).
    """
    if isinstance(expr, AConst):
        return Const(expr.value)
    if isinstance(expr, AParam):
        return ParamT(expr.name)
    if isinstance(expr, ATemp):
        return TempT(expr.name)
    if isinstance(expr, ARead):
        return ref_to_term(expr.ref)
    if isinstance(expr, ANeg):
        return Neg(aexp_to_term(expr.operand))
    if isinstance(expr, ABin):
        left = aexp_to_term(expr.left)
        right = aexp_to_term(expr.right)
        if expr.op == "+":
            return Add(left, right)
        if expr.op == "-":
            return Add(left, Neg(right))
        return Mul(left, right)
    raise TypeError(f"unknown arithmetic node {expr!r}")


def bexp_to_formula(expr: BExp) -> Formula:
    """Convert a boolean expression to a logic formula."""
    if isinstance(expr, BConst):
        return BoolConst(expr.value)
    if isinstance(expr, BCmp):
        return Cmp(expr.op, aexp_to_term(expr.left), aexp_to_term(expr.right))
    if isinstance(expr, BAnd):
        return conj([bexp_to_formula(expr.left), bexp_to_formula(expr.right)])
    if isinstance(expr, BOr):
        return disj([bexp_to_formula(expr.left), bexp_to_formula(expr.right)])
    if isinstance(expr, BNot):
        return bexp_to_formula(expr.operand).to_nnf(negate=True)
    raise TypeError(f"unknown boolean node {expr!r}")


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def seq(*commands: Com) -> Com:
    """Right-nested sequencing of several commands, dropping skips."""
    useful = [c for c in commands if not isinstance(c, Skip)]
    if not useful:
        return Skip()
    result = useful[-1]
    for c in reversed(useful[:-1]):
        result = Seq(c, result)
    return result


def walk_commands(com: Com) -> Iterator[Com]:
    """Yield every command node, pre-order."""
    stack = [com]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Seq):
            stack.append(node.second)
            stack.append(node.first)
        elif isinstance(node, If):
            stack.append(node.else_branch)
            stack.append(node.then_branch)
        elif isinstance(node, ForEach):
            stack.append(node.body)
