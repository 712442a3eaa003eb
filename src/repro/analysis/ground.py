"""Grounding of parameterized transactions.

Treaty generation needs a parameter-free joint table: a global treaty
is a predicate over database states only (Definition 3.6), so the
per-parameter behaviour of a transaction family such as
``NewOrder(item)`` must be captured by instantiating the family over
the item domain.

Grounding is one family analysis plus a substitution per instance.
:func:`ground_family` builds the family's symbolic table once -- the
Section 5.1 compressed form, whose rows are parameterized -- and binds
each parameter combination into it: every guard substituted and
simplified (a row the values falsify, such as one side of an alias
split, drops out), every residual substituted and optimized again.
The result equals analysing each instance on its own
(:func:`ground_instances`, then ``build_symbolic_table`` per
instance), which stays as the reference the tests and validate mode
compare against (:func:`assert_same_grounding`).  Instances that agree
on the parameters one statement or guard mentions share its bound
form.

Section 5.1 factorizes the joint table so that grounding costs the
*sum* of the instance table sizes, not their product.  Here no joint
table over the instances is ever built: the joint row matching a
database is the conjunction of the rows each instance's table
matches, so a dependency partition of the instances could never
change a treaty, only how many joint rows get materialized -- and
treaty generation materializes none.
:class:`~repro.protocol.homeostasis.TreatyGenerator` looks each
instance up on its own, ``instances_touching`` names the instances
whose piece depends on a changed object, and
:class:`~repro.treaty.assembly.TreatyAssembly` re-derives only the
clauses those pieces contribute to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, is_dataclass
from typing import Mapping, Sequence

from repro.analysis.residual import optimize_residual
from repro.analysis.symbolic import Row, SymbolicTable, build_symbolic_table
from repro.lang.ast import (
    ABin,
    AConst,
    AExp,
    ANeg,
    AParam,
    ARead,
    ArrayRef,
    Assign,
    BAnd,
    BCmp,
    BExp,
    BNot,
    BOr,
    Com,
    ForEach,
    If,
    ObjRef,
    Print,
    Seq,
    Skip,
    Transaction,
    Write,
    seq,
)
from repro.logic.formula import FalseF, Formula
from repro.logic.simplify import simplify_formula
from repro.logic.terms import Const, ParamT, Term


def subst_params_aexp(expr: AExp, values: Mapping[str, int]) -> AExp:
    if isinstance(expr, AParam) and expr.name in values:
        return AConst(values[expr.name])
    if isinstance(expr, ARead):
        return ARead(_subst_params_ref(expr.ref, values))
    if isinstance(expr, ABin):
        return ABin(
            expr.op,
            subst_params_aexp(expr.left, values),
            subst_params_aexp(expr.right, values),
        )
    if isinstance(expr, ANeg):
        return ANeg(subst_params_aexp(expr.operand, values))
    return expr


def _subst_params_ref(ref: ObjRef, values: Mapping[str, int]) -> ObjRef:
    if isinstance(ref, ArrayRef):
        return ArrayRef(
            ref.base, tuple(subst_params_aexp(ix, values) for ix in ref.index)
        )
    return ref


def subst_params_bexp(expr: BExp, values: Mapping[str, int]) -> BExp:
    if isinstance(expr, BCmp):
        return BCmp(
            expr.op,
            subst_params_aexp(expr.left, values),
            subst_params_aexp(expr.right, values),
        )
    if isinstance(expr, BAnd):
        return BAnd(
            subst_params_bexp(expr.left, values), subst_params_bexp(expr.right, values)
        )
    if isinstance(expr, BOr):
        return BOr(
            subst_params_bexp(expr.left, values), subst_params_bexp(expr.right, values)
        )
    if isinstance(expr, BNot):
        return BNot(subst_params_bexp(expr.operand, values))
    return expr


def subst_params_com(com: Com, values: Mapping[str, int]) -> Com:
    if isinstance(com, Skip):
        return com
    if isinstance(com, Assign):
        return Assign(com.temp, subst_params_aexp(com.expr, values))
    if isinstance(com, Seq):
        return Seq(
            subst_params_com(com.first, values), subst_params_com(com.second, values)
        )
    if isinstance(com, If):
        return If(
            subst_params_bexp(com.cond, values),
            subst_params_com(com.then_branch, values),
            subst_params_com(com.else_branch, values),
        )
    if isinstance(com, Write):
        return Write(
            _subst_params_ref(com.ref, values), subst_params_aexp(com.expr, values)
        )
    if isinstance(com, Print):
        return Print(subst_params_aexp(com.expr, values))
    if isinstance(com, ForEach):
        return ForEach(com.var, com.array, subst_params_com(com.body, values))
    raise TypeError(f"unknown command node {com!r}")


def instance_name(tx_name: str, values: Mapping[str, int]) -> str:
    suffix = ",".join(f"{k}={values[k]}" for k in sorted(values))
    return f"{tx_name}#{suffix}"


@dataclass(frozen=True)
class GroundInstance:
    """One parameter instantiation of a transaction family."""

    family: str
    params: tuple[tuple[str, int], ...]
    transaction: Transaction


def _violates_distinct(tx: Transaction, values: Mapping[str, int]) -> bool:
    """True when a combination assigns equal values within a distinct group."""
    for group in tx.assume_distinct:
        seen = [values[p] for p in group if p in values]
        if len(seen) != len(set(seen)):
            return True
    return False


def _parameter_values(
    tx: Transaction, domains: Mapping[str, Sequence[int]]
) -> list[dict[str, int]]:
    """Every parameter combination a family is grounded over: the
    product of its parameter domains, minus the combinations excluded
    by ``assume_distinct``."""
    missing = set(tx.params) - set(domains)
    if missing:
        raise ValueError(f"no domain for parameters {sorted(missing)} of {tx.name}")
    names = list(tx.params)
    out: list[dict[str, int]] = []
    for combo in itertools.product(*(domains[p] for p in names)):
        values = dict(zip(names, combo))
        if not _violates_distinct(tx, values):
            out.append(values)
    return out


def ground_instances(
    tx: Transaction, domains: Mapping[str, Sequence[int]]
) -> list[GroundInstance]:
    """Instantiate a transaction over the product of parameter domains,
    skipping combinations excluded by ``assume_distinct``.

    The per-instance reference: analysing each instance with
    :func:`~repro.analysis.symbolic.build_symbolic_table` gives what
    :func:`ground_family` derives from the family's one table."""
    return [
        GroundInstance(
            family=tx.name,
            params=tuple(sorted(values.items())),
            transaction=Transaction(
                instance_name(tx.name, values), (), subst_params_com(tx.body, values)
            ),
        )
        for values in _parameter_values(tx, domains)
    ]


#: a node of a family's table or body and the values of the parameters
#: it mentions
_Binding = tuple[int, tuple[int | None, ...]]


def _param_names(node: object) -> set[str]:
    """The parameters an L++ node, or a formula, mentions."""
    if isinstance(node, Formula):
        return {param.name for param in node.params()}
    if isinstance(node, AParam):
        return {node.name}
    if isinstance(node, tuple):
        parts: tuple[object, ...] = node
    elif is_dataclass(node):
        parts = tuple(getattr(node, f.name) for f in fields(node))
    else:
        return set()
    names: set[str] = set()
    for part in parts:
        names |= _param_names(part)
    return names


def _statements(com: Com) -> list[Com]:
    """A straight-line command's statements, in order, without skips."""
    if isinstance(com, Seq):
        return _statements(com.first) + _statements(com.second)
    return [] if isinstance(com, Skip) else [com]


class _Binder:
    """Binds one family's parameters into its nodes, once per distinct
    binding of the parameters each node mentions.

    Instances that agree on a statement's (or a guard's) parameters
    share its bound form: of a New Order instance's three residual
    writes, the two over ``(@w, @d)`` are bound and optimized once per
    district, not once per item and quantity.
    """

    def __init__(self) -> None:
        self._names: dict[int, tuple[str, ...]] = {}
        self._guards: dict[_Binding, Formula] = {}
        self._commands: dict[_Binding, Com] = {}
        self._residuals: dict[_Binding, Com] = {}

    def _key(self, node: Formula | Com, values: Mapping[str, int]) -> _Binding:
        names = self._names.get(id(node))
        if names is None:
            names = self._names[id(node)] = tuple(sorted(_param_names(node)))
        return id(node), tuple(values.get(name) for name in names)

    def guard(self, guard: Formula, values: Mapping[str, int]) -> Formula:
        """The guard with the values substituted, simplified."""
        key = self._key(guard, values)
        bound = self._guards.get(key)
        if bound is None:
            mapping: dict[Term, Term] = {
                ParamT(name): Const(value) for name, value in values.items()
            }
            bound = simplify_formula(guard.substitute(mapping))
            self._guards[key] = bound
        return bound

    def command(self, com: Com, values: Mapping[str, int]) -> Com:
        """:func:`subst_params_com`, sharing each bound statement."""
        if isinstance(com, Seq):
            return Seq(
                self.command(com.first, values), self.command(com.second, values)
            )
        key = self._key(com, values)
        bound = self._commands.get(key)
        if bound is None:
            bound = self._commands[key] = subst_params_com(com, values)
        return bound

    def residual(self, residual: Com, values: Mapping[str, int]) -> Com:
        """``optimize_residual(subst_params_com(residual, values))``.

        With no assignment in the residual the optimizer has no
        temporary to carry from one statement to the next and nothing
        to drop, so it rewrites each write and print on its own: each
        statement is optimized once per binding and the results are
        sequenced."""
        statements = _statements(residual)
        if any(isinstance(statement, Assign) for statement in statements):
            return optimize_residual(self.command(residual, values))
        out: list[Com] = []
        for statement in statements:
            key = self._key(statement, values)
            optimized = self._residuals.get(key)
            if optimized is None:
                optimized = optimize_residual(self.command(statement, values))
                self._residuals[key] = optimized
            out.append(optimized)
        return seq(*out)


def ground_family(
    tx: Transaction,
    domains: Mapping[str, Sequence[int]],
    table: SymbolicTable | None = None,
) -> list[SymbolicTable]:
    """The symbolic table of every instance of a family, in
    :func:`ground_instances` order, from the family's one table.

    Each instance row is a family row with the parameters bound: the
    guard simplified after substitution (a row whose alias or
    parameter condition the values falsify is dropped) and the
    residual optimized again (bound indices can cancel).  ``table`` is
    the family's table when the caller already has it.
    """
    combinations = _parameter_values(tx, domains)
    if table is None:
        table = build_symbolic_table(tx)
    elif table.transaction != tx:
        raise ValueError(
            f"table of {table.transaction.name} given for family {tx.name}"
        )
    binder = _Binder()
    out: list[SymbolicTable] = []
    for values in combinations:
        rows: list[Row] = []
        for row in table.rows:
            guard = binder.guard(row.guard, values)
            if guard != FalseF:
                rows.append(Row(guard, binder.residual(row.residual, values)))
        instance = Transaction(
            instance_name(tx.name, values), (), binder.command(tx.body, values)
        )
        out.append(SymbolicTable(instance, rows))
    return out


class GroundingDivergence(AssertionError):
    """An instance table :func:`ground_family` derived differs from the
    instance's own analysis (validate mode)."""


def assert_same_grounding(
    have: Sequence[tuple[SymbolicTable, int]],
    reference: Sequence[tuple[SymbolicTable, int]],
) -> None:
    """Raise :class:`GroundingDivergence` unless ``have`` lists the
    reference's instance tables and home sites, in its order."""
    if len(have) != len(reference):
        raise GroundingDivergence(
            f"grounding gave {len(have)} instances, the reference {len(reference)}"
        )
    for (table, site), (expect, expect_site) in zip(have, reference):
        if table != expect or site != expect_site:
            raise GroundingDivergence(
                f"instance {expect.transaction.name} at site {expect_site} differs "
                f"from its own analysis:\n{table.pretty()}\nvs\n{expect.pretty()}"
            )
