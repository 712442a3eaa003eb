"""Integer terms over database objects, parameters and temporaries.

Terms are the arithmetic layer shared by the transaction language ``L``
(Section 2.3, Figure 5 of the paper) and the formula language used in
symbolic tables.  A term is built from:

- integer constants (``Const``),
- references to ground database objects (``ObjT``),
- references to *parameterized* database objects (``IndexedObjT``) --
  the compressed array representation of Section 5.1,
- transaction parameters (``ParamT``),
- temporary program variables (``TempT``),
- addition, multiplication and negation.

All nodes are immutable and hashable so they can be used directly as
keys in substitution maps.  Construction helpers normalize nothing; the
linear lowering in :mod:`repro.logic.linear` performs normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Mapping


def ground_name(base: str, indices: tuple[int, ...]) -> str:
    """Return the canonical ground object name for an array slot.

    The storage layer and the analysis agree on this encoding: the
    array slot ``a(3, 7)`` is the database object named ``a[3,7]``.
    """
    return f"{base}[{','.join(str(i) for i in indices)}]"


@lru_cache(maxsize=1 << 16)
def parse_ground_name(name: str) -> tuple[str, tuple[int, ...]] | None:
    """Invert :func:`ground_name`; return None for plain scalar names.

    Needed by the write-aliasing analysis: a ground object ``a[3]``
    may alias the parameterized reference ``a[@p]`` when ``p = 3``.

    Memoized: a database has finitely many object names and every
    treaty round asks about the same ones (placement, clause bases),
    so each distinct name is split once (bounded; names and results
    are immutable).
    """
    if not name.endswith("]"):
        return None
    open_idx = name.find("[")
    if open_idx <= 0:
        return None
    base = name[:open_idx]
    inner = name[open_idx + 1 : -1]
    try:
        indices = tuple(int(part) for part in inner.split(","))
    except ValueError:
        return None
    return base, indices


class Term:
    """Base class for integer terms."""

    __slots__ = ()

    # -- construction sugar -------------------------------------------------

    def __add__(self, other: "Term | int") -> "Term":
        return Add(self, _coerce(other))

    def __sub__(self, other: "Term | int") -> "Term":
        return Add(self, Neg(_coerce(other)))

    def __mul__(self, other: "Term | int") -> "Term":
        return Mul(self, _coerce(other))


    # -- traversal ----------------------------------------------------------

    def children(self) -> tuple["Term", ...]:
        return ()

    def walk(self) -> Iterator["Term"]:
        """Yield this node and all descendants, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children())

    # -- queries ------------------------------------------------------------

    def objects(self) -> set["ObjT"]:
        """All ground object references in the term."""
        return {n for n in self.walk() if isinstance(n, ObjT)}

    def indexed_objects(self) -> set["IndexedObjT"]:
        """All parameterized object references in the term."""
        return {n for n in self.walk() if isinstance(n, IndexedObjT)}

    def params(self) -> set["ParamT"]:
        return {n for n in self.walk() if isinstance(n, ParamT)}

    def temps(self) -> set["TempT"]:
        return {n for n in self.walk() if isinstance(n, TempT)}

    # -- substitution and evaluation -----------------------------------------

    def substitute(self, mapping: Mapping["Term", "Term"]) -> "Term":
        """Replace exact syntactic occurrences of the mapping's keys.

        Keys may be any leaf-like node (``ObjT``, ``IndexedObjT``,
        ``ParamT``, ``TempT``).  Substitution proceeds bottom-up so an
        ``IndexedObjT`` whose *index* mentions a substituted variable is
        first rewritten and then looked up in the mapping.
        """
        raise NotImplementedError

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> int:
        """Evaluate the term to an integer.

        ``getobj`` resolves ground object names to values; parameters
        and temporaries are looked up in the given mappings.
        """
        raise NotImplementedError

    def pretty(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.pretty()


def _coerce(value: "Term | int") -> Term:
    if isinstance(value, Term):
        return value
    if isinstance(value, int):
        return Const(value)
    raise TypeError(f"cannot coerce {value!r} to a Term")


@dataclass(frozen=True)
class Const(Term):
    """An integer literal."""

    value: int

    def substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return self

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> int:
        return self.value

    def pretty(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class ObjT(Term):
    """A reference to a ground database object (``read(x)`` in L)."""

    name: str

    def substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return mapping.get(self, self)

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> int:
        return getobj(self.name)

    def pretty(self) -> str:
        return self.name


@dataclass(frozen=True)
class IndexedObjT(Term):
    """A parameterized database object reference such as ``qty[@item]``.

    This is the compressed form described in Section 5.1: rather than
    expanding a dynamic array access into the nested conditionals of
    Appendix A, the access stays symbolic in both partially evaluated
    transactions and formulas.  When every index is a constant the
    reference is equivalent to ``ObjT(ground_name(base, indices))``.
    """

    base: str
    index: tuple[Term, ...]

    def children(self) -> tuple[Term, ...]:
        return self.index

    def substitute(self, mapping: Mapping[Term, Term]) -> Term:
        new_index = tuple(ix.substitute(mapping) for ix in self.index)
        candidate = IndexedObjT(self.base, new_index)
        if candidate in mapping:
            return mapping[candidate]
        grounded = candidate.try_ground()
        if grounded is not None and grounded in mapping:
            return mapping[grounded]
        return candidate

    def try_ground(self) -> ObjT | None:
        """Return the equivalent ``ObjT`` if all indices are constants."""
        values = []
        for ix in self.index:
            if not isinstance(ix, Const):
                return None
            values.append(ix.value)
        return ObjT(ground_name(self.base, tuple(values)))

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> int:
        indices = tuple(ix.evaluate(getobj, params, temps) for ix in self.index)
        return getobj(ground_name(self.base, indices))

    def pretty(self) -> str:
        return f"{self.base}[{', '.join(ix.pretty() for ix in self.index)}]"


@dataclass(frozen=True)
class ParamT(Term):
    """A transaction parameter (``p`` in Figure 5)."""

    name: str

    def substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return mapping.get(self, self)

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> int:
        if params is None or self.name not in params:
            raise KeyError(f"unbound parameter @{self.name}")
        return params[self.name]

    def pretty(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class TempT(Term):
    """A temporary program variable (``x^`` in the paper)."""

    name: str

    def substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return mapping.get(self, self)

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> int:
        if temps is None or self.name not in temps:
            raise KeyError(f"unbound temporary {self.name}")
        return temps[self.name]

    def pretty(self) -> str:
        return self.name


@dataclass(frozen=True)
class Add(Term):
    """Binary addition."""

    left: Term
    right: Term

    def children(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return Add(self.left.substitute(mapping), self.right.substitute(mapping))

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> int:
        return self.left.evaluate(getobj, params, temps) + self.right.evaluate(
            getobj, params, temps
        )

    def pretty(self) -> str:
        return f"({self.left.pretty()} + {self.right.pretty()})"


@dataclass(frozen=True)
class Mul(Term):
    """Binary multiplication."""

    left: Term
    right: Term

    def children(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return Mul(self.left.substitute(mapping), self.right.substitute(mapping))

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> int:
        return self.left.evaluate(getobj, params, temps) * self.right.evaluate(
            getobj, params, temps
        )

    def pretty(self) -> str:
        return f"({self.left.pretty()} * {self.right.pretty()})"


@dataclass(frozen=True)
class Neg(Term):
    """Unary negation."""

    operand: Term

    def children(self) -> tuple[Term, ...]:
        return (self.operand,)

    def substitute(self, mapping: Mapping[Term, Term]) -> Term:
        return Neg(self.operand.substitute(mapping))

    def evaluate(
        self,
        getobj: Callable[[str], int],
        params: Mapping[str, int] | None = None,
        temps: Mapping[str, int] | None = None,
    ) -> int:
        return -self.operand.evaluate(getobj, params, temps)

    def pretty(self) -> str:
        return f"(-{self.operand.pretty()})"


def fold_constants(term: Term) -> Term:
    """Recursively fold constant subterms (``2 + 3`` becomes ``5``).

    Only sound rewrites are applied; the result is semantically equal to
    the input on every environment.
    """
    if isinstance(term, (Const, ObjT, ParamT, TempT)):
        return term
    if isinstance(term, IndexedObjT):
        folded = IndexedObjT(term.base, tuple(fold_constants(ix) for ix in term.index))
        grounded = folded.try_ground()
        return grounded if grounded is not None else folded
    if isinstance(term, Neg):
        inner = fold_constants(term.operand)
        if isinstance(inner, Const):
            return Const(-inner.value)
        if isinstance(inner, Neg):
            return inner.operand
        return Neg(inner)
    if isinstance(term, Add):
        left = fold_constants(term.left)
        right = fold_constants(term.right)
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(left.value + right.value)
        if isinstance(left, Const) and left.value == 0:
            return right
        if isinstance(right, Const) and right.value == 0:
            return left
        return Add(left, right)
    if isinstance(term, Mul):
        left = fold_constants(term.left)
        right = fold_constants(term.right)
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(left.value * right.value)
        if isinstance(left, Const) and left.value == 1:
            return right
        if isinstance(right, Const) and right.value == 1:
            return left
        if (isinstance(left, Const) and left.value == 0) or (
            isinstance(right, Const) and right.value == 0
        ):
            return Const(0)
        return Mul(left, right)
    raise TypeError(f"unknown term node {term!r}")
