"""The L / L++ interpreter: ``Eval(T, D)`` from Definition 2.1.

Evaluating a transaction ``T`` on a database ``D`` yields a pair
``(D', G')`` where ``D'`` is the updated database and ``G'`` the log of
printed values, in print order.  Transactions are deterministic, so
the result is a function of ``T``, ``D`` and the parameter values.

Two entry points:

- :func:`evaluate` -- pure functional evaluation over an immutable
  mapping, used by the analysis tests and the reference serial
  executor.
- :func:`execute` -- effectful evaluation against arbitrary
  read/write/print callbacks, used by the storage engine's stored
  procedures (Section 5.1): a site runs one transaction at a time, so
  reads go straight to its store, and writes are journaled in the
  transaction's undo log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.lang.ast import (
    ABin,
    AConst,
    AExp,
    ANeg,
    AParam,
    ARead,
    ATemp,
    Assign,
    BAnd,
    BCmp,
    BConst,
    BExp,
    BNot,
    BOr,
    Com,
    ForEach,
    GroundRef,
    If,
    ObjRef,
    Print,
    Seq,
    Skip,
    Transaction,
    Write,
)
from repro.logic.terms import ground_name

_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class InterpError(Exception):
    """Raised on runtime errors such as unbound temporaries."""


@dataclass
class ExecContext:
    """Execution environment threaded through command evaluation.

    ``getobj`` / ``setobj`` resolve database objects by ground name;
    ``emit`` receives printed values.  ``arrays`` supplies declared
    bounds for L++ ``foreach``.
    """

    getobj: Callable[[str], int]
    setobj: Callable[[str, int], None]
    emit: Callable[[int], None]
    params: Mapping[str, int] = field(default_factory=dict)
    temps: dict[str, int] = field(default_factory=dict)
    arrays: Mapping[str, tuple[int, ...]] = field(default_factory=dict)


def _resolve_ref(ref: ObjRef, ctx: ExecContext) -> str:
    if isinstance(ref, GroundRef):
        return ref.name
    indices = tuple(eval_aexp(ix, ctx) for ix in ref.index)
    return ground_name(ref.base, indices)


def eval_aexp(expr: AExp, ctx: ExecContext) -> int:
    """Evaluate an arithmetic expression to an integer."""
    if isinstance(expr, AConst):
        return expr.value
    if isinstance(expr, AParam):
        if expr.name not in ctx.params:
            raise InterpError(f"unbound parameter @{expr.name}")
        return ctx.params[expr.name]
    if isinstance(expr, ATemp):
        if expr.name not in ctx.temps:
            raise InterpError(f"unbound temporary {expr.name}")
        return ctx.temps[expr.name]
    if isinstance(expr, ARead):
        return ctx.getobj(_resolve_ref(expr.ref, ctx))
    if isinstance(expr, ANeg):
        return -eval_aexp(expr.operand, ctx)
    if isinstance(expr, ABin):
        left = eval_aexp(expr.left, ctx)
        right = eval_aexp(expr.right, ctx)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    raise TypeError(f"unknown arithmetic node {expr!r}")


def eval_bexp(expr: BExp, ctx: ExecContext) -> bool:
    """Evaluate a boolean expression."""
    if isinstance(expr, BConst):
        return expr.value
    if isinstance(expr, BCmp):
        return _CMP[expr.op](eval_aexp(expr.left, ctx), eval_aexp(expr.right, ctx))
    if isinstance(expr, BAnd):
        return eval_bexp(expr.left, ctx) and eval_bexp(expr.right, ctx)
    if isinstance(expr, BOr):
        return eval_bexp(expr.left, ctx) or eval_bexp(expr.right, ctx)
    if isinstance(expr, BNot):
        return not eval_bexp(expr.operand, ctx)
    raise TypeError(f"unknown boolean node {expr!r}")


def execute(com: Com, ctx: ExecContext) -> None:
    """Execute a command for its effects on ``ctx``."""
    # Iterative on sequences to keep recursion depth bounded by nesting,
    # not by program length.
    stack: list[Com] = [com]
    while stack:
        node = stack.pop()
        if isinstance(node, Skip):
            continue
        if isinstance(node, Seq):
            stack.append(node.second)
            stack.append(node.first)
            continue
        if isinstance(node, Assign):
            ctx.temps[node.temp] = eval_aexp(node.expr, ctx)
            continue
        if isinstance(node, If):
            branch = node.then_branch if eval_bexp(node.cond, ctx) else node.else_branch
            stack.append(branch)
            continue
        if isinstance(node, Write):
            value = eval_aexp(node.expr, ctx)
            ctx.setobj(_resolve_ref(node.ref, ctx), value)
            continue
        if isinstance(node, Print):
            ctx.emit(eval_aexp(node.expr, ctx))
            continue
        if isinstance(node, ForEach):
            if node.array not in ctx.arrays:
                raise InterpError(
                    f"foreach over undeclared array {node.array!r}; "
                    "declare its bound or desugar first"
                )
            bound = ctx.arrays[node.array][0]
            # Unroll in reverse so the stack pops iterations in order;
            # each iteration rebinds the loop temporary.
            for index in reversed(range(bound)):
                stack.append(node.body)
                stack.append(Assign(node.var, AConst(index)))
            continue
        raise TypeError(f"unknown command node {node!r}")


@dataclass(frozen=True)
class EvalResult:
    """The observable outcome ``(D', G')`` of Definition 2.1."""

    db: dict[str, int]
    log: tuple[int, ...]

    def observationally_equal(self, other: "EvalResult") -> bool:
        """Final database and log both match (Definition 3.3 specialised
        to a single transaction with everything local)."""
        return self.db == other.db and self.log == other.log


def evaluate(
    tx: Transaction,
    db: Mapping[str, int],
    params: Mapping[str, int] | None = None,
    arrays: Mapping[str, tuple[int, ...]] | None = None,
) -> EvalResult:
    """Pure ``Eval(T, D)``: returns the updated database and the log.

    ``db`` maps ground object names to integers; objects absent from
    the mapping read as 0 (the paper's null default).  The input
    mapping is never mutated.
    """
    params = dict(params or {})
    expected = set(tx.params)
    missing = expected - set(params)
    if missing:
        raise InterpError(f"missing parameters for {tx.name}: {sorted(missing)}")

    state = dict(db)
    log: list[int] = []
    ctx = ExecContext(
        getobj=lambda name: state.get(name, 0),
        setobj=state.__setitem__,
        emit=log.append,
        params=params,
        arrays=arrays or {},
    )
    execute(tx.body, ctx)
    return EvalResult(db=state, log=tuple(log))
