"""The clean commit's lowerings: dispatch, residuals and the escrow check.

The whole point of the homeostasis protocol is that a *local* commit
replaces a coordinated round (Section 5.1): a site picks the symbolic
table row whose guard holds, runs that row's partially evaluated
transaction, and checks its local treaty -- on every single commit.
This module lowers all three ahead of time, once per registration or
install, so the commit itself never walks an AST:

- :func:`compile_decider` turns one transaction's row guards into a
  single Python function (a *decider*) that returns the unique row
  whose guard holds, or ``None`` unless exactly one does.  It is a
  decision tree: each branch point tests one guard atom, an atom and
  its negation (``X > 1`` / ``X <= 1``) are one test, and no path tests
  an atom twice.  Atoms are tested in the order the interpreted
  guards (:meth:`~repro.logic.formula.Formula.evaluate`, row by row,
  short-circuiting) would first need them, so the decider raises
  :class:`KeyError` on an unbound parameter exactly when they would.
- :func:`compile_residual` turns a row's residual command into a
  closure ``run(getobj, setobj, emit, params, arrays)`` with the
  effects of :func:`repro.lang.interp.execute`: the same writes in the
  same order, the same log, and :class:`~repro.lang.interp.InterpError`
  on an unbound parameter after the same earlier writes.  Parameters
  load into locals and every ground name whose indices are constants
  or parameters is built once per call.
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

The first two build Python source and :func:`compile` it.  An AST too
deep for CPython's parser or recursion limit (e.g. a ``foreach``
unrolled over hundreds of array slots), a command still holding a
``foreach`` (a symbolic table's residuals are unrolled; a family body
Algorithm 1 replays need not be), or a decision tree over too many
leaves, keeps the interpreter: the decider then evaluates every
guard with ``Formula.evaluate`` and the residual runs through
``execute``, so equivalence never depends on the lowering succeeding.

Escrow lowering is not memoized: consecutive treaties almost never
repeat as a whole (under 7 % of installs on every benchmark workload),
so a site instead keeps one :class:`EscrowProgram` and patches it with
the clauses each install adds and removes (:meth:`EscrowProgram.add` /
:meth:`~EscrowProgram.remove`); every other clause keeps its rows, its
slots and its index entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
    cast,
)

from repro.lang.ast import (
    Assign,
    BAnd,
    BCmp,
    BConst,
    BExp,
    BNot,
    BOr,
    Com,
    If,
    Print,
    Seq,
    Skip,
    Write,
    aexp_to_term,
    ref_to_term,
)
from repro.lang.interp import ExecContext, execute
from repro.logic.formula import NEGATED_OP, And, BoolConst, Cmp, Formula, Not, Or
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

T = TypeVar("T")

#: ``decide(getobj, params)``: the one row whose guard holds, else None
Decider = Callable[[Callable[[str], int], Mapping[str, int]], Optional[T]]

#: ``run(getobj, setobj, emit, params, arrays)``: a residual's effects
Residual = Callable[
    [
        Callable[[str], int],
        Callable[[str, int], None],
        Callable[[int], None],
        Mapping[str, int],
        Mapping[str, tuple[int, ...]],
    ],
    None,
]


class CompilationError(Exception):
    """The AST has no closed-form lowering (e.g. non-object variables
    in a treaty constraint)."""


#: comparison operator -> python source operator
_PY_OP = {"<": "<", "<=": "<=", "=": "==", "!=": "!=", ">": ">", ">=": ">="}

#: a decider tests ``<``, ``<=`` and ``=`` atoms; the other three are
#: their negations
_ATOM_OPS = frozenset(("<", "<=", "="))

#: a decision tree with more leaves than this keeps the interpreted
#: guards (a symbolic table's guards partition the state space, so a
#: tree has about as many leaves as its table has rows)
_DECIDER_LEAVES = 1024

#: shared empty mapping: a guard's temporaries are never bound, and
#: reading one raises the same ``KeyError`` the interpreter raises
_EMPTY: Mapping[str, int] = {}


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


# -- the clean path: guard decider and residual closures -------------------


class _NotLowered(Exception):
    """This AST keeps the interpreter (see the module docstring)."""


def _static(term: Term) -> bool:
    """Built from constants and parameters only: fixed for one call."""
    if isinstance(term, (Const, ParamT)):
        return True
    if isinstance(term, Neg):
        return _static(term.operand)
    if isinstance(term, (Add, Mul)):
        return _static(term.left) and _static(term.right)
    return False


class _Locals:
    """The locals of one generated function: every parameter it reads
    and every ground name over constants and parameters it uses, each
    loaded once -- appended to ``out`` at indent ``pad`` -- before its
    first use.

    ``temps`` names a residual's temporaries and ``assigned`` is the
    set definitely assigned at the current statement; a guard has no
    temporaries (``temps is None``), and reading one raises
    ``KeyError`` like :meth:`~repro.logic.terms.TempT.evaluate`."""

    def __init__(
        self, out: list[str], pad: str, temps: dict[str, str] | None = None
    ) -> None:
        self.out, self.pad = out, pad
        self.held: dict[Term, str] = {}
        self.temps = temps
        self.assigned: set[str] = set()

    def fork(self, out: list[str], pad: str) -> _Locals:
        """The same locals, for a branch that loads more into ``out``."""
        fork = _Locals(out, pad, self.temps)
        fork.held = dict(self.held)
        return fork

    def load(self, term: Term, source: str) -> str:
        """The local holding ``source``, the value of ``term``."""
        local = self.held.get(term)
        if local is None:
            local = self.held[term] = f"v{len(self.held)}"
            self.out.append(f"{self.pad}{local} = {source}")
        return local

    def name(self, term: ObjT | IndexedObjT) -> str:
        """Source of the ground name a reference denotes."""
        if isinstance(term, ObjT):
            return repr(term.name)
        grounded = term.try_ground()
        if grounded is not None:
            return repr(grounded.name)
        if term in self.held:
            return self.held[term]
        indices = [self.source(ix) for ix in term.index]
        if not all(_static(ix) for ix in term.index):
            return f"_gn({term.base!r}, ({''.join(ix + ', ' for ix in indices)}))"
        base = term.base.replace("{", "{{").replace("}", "}}")
        parts = ",".join("{" + ix + "}" for ix in indices)
        return self.load(term, "f" + repr(f"{base}[{parts}]"))

    def source(self, term: Term) -> str:
        """Python expression source for ``term``."""
        if isinstance(term, Const):
            return f"({term.value})"
        if isinstance(term, ParamT):
            return self.load(term, f"p[{term.name!r}]")
        if isinstance(term, TempT):
            if self.temps is None:
                return f"_t[{term.name!r}]"
            if term.name not in self.assigned:
                raise _NotLowered(f"temporary {term.name} may be unbound")
            return self.temps[term.name]
        if isinstance(term, (ObjT, IndexedObjT)):
            return f"g({self.name(term)})"
        if isinstance(term, Neg):
            return f"(-{self.source(term.operand)})"
        if isinstance(term, Add):
            return f"({self.source(term.left)} + {self.source(term.right)})"
        if isinstance(term, Mul):
            return f"({self.source(term.left)} * {self.source(term.right)})"
        raise _NotLowered(f"unknown term node {term!r}")

    def cmp(self, atom: Cmp) -> str:
        return f"{self.source(atom.left)} {_PY_OP[atom.op]} {self.source(atom.right)}"


def _build(source: str, name: str, namespace: dict[str, object]) -> object:
    """Compile generated ``source`` and return the function ``name``."""
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


# -- the decider --


def _atom(cmp: Cmp) -> tuple[Cmp, bool]:
    """The test that decides ``cmp``, and the outcome that makes it
    true: ``X > 1`` is decided by ``X <= 1`` being false."""
    if cmp.op in _ATOM_OPS:
        return cmp, True
    return Cmp(NEGATED_OP[cmp.op], cmp.left, cmp.right), False


def _partial(formula: Formula, known: Mapping[Cmp, bool]) -> bool | Cmp:
    """``formula``'s value given the tested atoms, or else the untested
    atom ``Formula.evaluate`` would need next (operands left to right,
    short-circuiting)."""
    if isinstance(formula, BoolConst):
        return formula.value
    if isinstance(formula, Cmp):
        atom, holds = _atom(formula)
        value = known.get(atom)
        return atom if value is None else value == holds
    if isinstance(formula, Not):
        inner = _partial(formula.operand, known)
        return inner if isinstance(inner, Cmp) else not inner
    if isinstance(formula, (And, Or)):
        stop = isinstance(formula, Or)  # the operand value that decides
        for operand in formula.operands:
            value = _partial(operand, known)
            if isinstance(value, Cmp) or value == stop:
                return value
        return not stop
    raise _NotLowered(f"unknown formula node {formula!r}")


def _next_atom(guards: Sequence[Formula], known: Mapping[Cmp, bool]) -> Cmp | None:
    """The atom the interpreted guards would test next, in row order;
    ``None`` once every guard is decided."""
    for guard in guards:
        value = _partial(guard, known)
        if isinstance(value, Cmp):
            return value
    return None


def _decider_source(guards: Sequence[Formula]) -> str:
    """One decision tree over ``guards``: branch on the next atom the
    interpreted guards would test until every guard is decided; a leaf
    returns the one row that holds, or ``None``."""
    out = ["def decide(g, p):"]
    leaves = itertools.count(1)

    def node(known: dict[Cmp, bool], held: _Locals, pad: str) -> None:
        atom = _next_atom(guards, known)
        if atom is None:
            if next(leaves) > _DECIDER_LEAVES:
                raise _NotLowered("decision tree too large")
            rows = [at for at, guard in enumerate(guards) if _partial(guard, known)]
            leaf = f"return _o[{rows[0]}]" if len(rows) == 1 else "return None"
            out.append(pad + leaf)
            return
        held = held.fork(out, pad)
        out.append(f"{pad}if {held.cmp(atom)}:")
        node({**known, atom: True}, held, pad + "    ")
        out.append(f"{pad}else:")
        node({**known, atom: False}, held, pad + "    ")

    node({}, _Locals(out, "    "), "    ")
    return "\n".join(out) + "\n"


def _interpreted_decider(
    guards: Sequence[Formula], outcomes: Sequence[T]
) -> Decider[T]:
    def decide(getobj: Callable[[str], int], params: Mapping[str, int]) -> T | None:
        hits = [
            outcome
            for guard, outcome in zip(guards, outcomes)
            if guard.evaluate(getobj, params)
        ]
        return hits[0] if len(hits) == 1 else None

    return decide


def compile_decider(guards: Sequence[Formula], outcomes: Sequence[T]) -> Decider[T]:
    """Lower one transaction's row guards to its decider.

    ``decide(getobj, params)`` returns ``outcomes[i]`` when guard ``i``
    is the only one that holds and ``None`` otherwise -- overlap and
    gap alike, on every call -- and raises ``KeyError`` on an unbound
    parameter exactly when evaluating every guard in row order with
    :meth:`~repro.logic.formula.Formula.evaluate` would.
    """
    try:
        source = _decider_source(guards)
        namespace: dict[str, object] = {
            "_o": tuple(outcomes),
            "_gn": ground_name,
            "_t": _EMPTY,
        }
        return cast("Decider[T]", _build(source, "decide", namespace))
    except (_NotLowered, SyntaxError, RecursionError, MemoryError):
        return _interpreted_decider(guards, outcomes)


# -- residual closures --


def _sequence(com: Com) -> Iterator[Com]:
    """The commands of a ``Seq`` chain in order, without recursing."""
    stack = [com]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack.append(node.second)
            stack.append(node.first)
        elif not isinstance(node, Skip):
            yield node


def _bexp(expr: BExp, held: _Locals) -> str:
    if isinstance(expr, BConst):
        return "True" if expr.value else "False"
    if isinstance(expr, BCmp):
        left, right = aexp_to_term(expr.left), aexp_to_term(expr.right)
        return f"({held.cmp(Cmp(expr.op, left, right))})"
    if isinstance(expr, (BAnd, BOr)):
        join = " and " if isinstance(expr, BAnd) else " or "
        return f"({_bexp(expr.left, held)}{join}{_bexp(expr.right, held)})"
    if isinstance(expr, BNot):
        return f"(not {_bexp(expr.operand, held)})"
    raise _NotLowered(f"unknown boolean node {expr!r}")


def _block(com: Com, held: _Locals, out: list[str], pad: str) -> None:
    """Emit ``com``'s statements; on return ``held.assigned`` is the
    set of temporaries definitely assigned after it."""
    assert held.temps is not None
    start = len(out)
    for node in _sequence(com):
        if isinstance(node, Assign):
            source = held.source(aexp_to_term(node.expr))
            local = held.temps.setdefault(node.temp, f"t{len(held.temps)}")
            out.append(f"{pad}{local} = {source}")
            held.assigned.add(node.temp)
        elif isinstance(node, Write):
            target = ref_to_term(node.ref)
            assert isinstance(target, (ObjT, IndexedObjT))
            value = held.source(aexp_to_term(node.expr))
            out.append(f"{pad}s({held.name(target)}, {value})")
        elif isinstance(node, Print):
            out.append(f"{pad}e({held.source(aexp_to_term(node.expr))})")
        elif isinstance(node, If):
            out.append(f"{pad}if {_bexp(node.cond, held)}:")
            before = set(held.assigned)
            _block(node.then_branch, held, out, pad + "    ")
            after_then, held.assigned = held.assigned, before
            out.append(f"{pad}else:")
            _block(node.else_branch, held, out, pad + "    ")
            held.assigned &= after_then
        else:  # an L++ foreach: unrolled by the interpreter, not here
            raise _NotLowered(f"unknown command node {node!r}")
    if len(out) == start:
        out.append(f"{pad}pass")


def _residual_source(com: Com) -> str:
    """``run``: load every parameter and build every name over
    constants and parameters up front, then the statements.  A missing
    parameter hands the whole call to the interpreter before anything
    ran, so its ``InterpError`` comes after the same writes."""
    prologue: list[str] = []
    body: list[str] = []
    _block(com, _Locals(prologue, "        ", temps={}), body, "    ")
    out = ["def run(g, s, e, p, arrays):"]
    if prologue:
        out += ["    try:", *prologue, "    except KeyError:"]
        out.append("        return _interpret(g, s, e, p, arrays)")
    return "\n".join(out + body) + "\n"


def _interpreted_residual(com: Com) -> Residual:
    def run(
        getobj: Callable[[str], int],
        setobj: Callable[[str, int], None],
        emit: Callable[[int], None],
        params: Mapping[str, int],
        arrays: Mapping[str, tuple[int, ...]],
    ) -> None:
        execute(com, ExecContext(getobj, setobj, emit, params, arrays=arrays))

    return run


def compile_residual(com: Com) -> Residual:
    """Lower a residual command to ``run(getobj, setobj, emit, params,
    arrays)``, observationally :func:`repro.lang.interp.execute` on an
    :class:`~repro.lang.interp.ExecContext` of the same callbacks."""
    interpret = _interpreted_residual(com)
    try:
        source = _residual_source(com)
        namespace: dict[str, object] = {"_gn": ground_name, "_interpret": interpret}
        return cast(Residual, _build(source, "run", namespace))
    except (_NotLowered, SyntaxError, RecursionError, MemoryError):
        return interpret
