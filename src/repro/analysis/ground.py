"""Grounding of parameterized transactions.

Treaty generation needs a parameter-free joint table: a global treaty
is a predicate over database states only (Definition 3.6), so the
per-parameter behaviour of a transaction family such as
``NewOrder(item)`` must be captured by instantiating the family over
the item domain.

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
from dataclasses import dataclass
from typing import Mapping, Sequence

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
)


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
        return BAnd(subst_params_bexp(expr.left, values), subst_params_bexp(expr.right, values))
    if isinstance(expr, BOr):
        return BOr(subst_params_bexp(expr.left, values), subst_params_bexp(expr.right, values))
    if isinstance(expr, BNot):
        return BNot(subst_params_bexp(expr.operand, values))
    return expr


def subst_params_com(com: Com, values: Mapping[str, int]) -> Com:
    if isinstance(com, Skip):
        return com
    if isinstance(com, Assign):
        return Assign(com.temp, subst_params_aexp(com.expr, values))
    if isinstance(com, Seq):
        return Seq(subst_params_com(com.first, values), subst_params_com(com.second, values))
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


def ground_instances(
    tx: Transaction, domains: Mapping[str, Sequence[int]]
) -> list[GroundInstance]:
    """Instantiate a transaction over the product of parameter domains,
    skipping combinations excluded by ``assume_distinct``."""
    missing = set(tx.params) - set(domains)
    if missing:
        raise ValueError(f"no domain for parameters {sorted(missing)} of {tx.name}")
    out: list[GroundInstance] = []
    names = list(tx.params)
    for combo in itertools.product(*(domains[p] for p in names)):
        values = dict(zip(names, combo))
        if _violates_distinct(tx, values):
            continue
        body = subst_params_com(tx.body, values)
        instance = Transaction(instance_name(tx.name, values), (), body)
        out.append(
            GroundInstance(
                family=tx.name,
                params=tuple(sorted(values.items())),
                transaction=instance,
            )
        )
    return out
