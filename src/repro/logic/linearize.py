"""Appendix C.1 preprocessing: strengthen a row formula to linear form.

Treaty generation (Section 4.2) requires the chosen symbolic-table
formula psi to be a conjunction of linear constraints.  Arbitrary row
formulas may contain disequalities, disjunctions or non-linear
arithmetic.  Following Appendix C.1, every offending subformula theta
is replaced by its truth value on the current database ``D`` and the
variables of theta are *pinned*: the constraints ``x_i = D(x_i)`` are
added for each variable ``x_i`` appearing in theta.

The result is a (possibly stronger) conjunction of linear constraints
that still holds on ``D``, which is all that correctness requires --
enforcing a stronger treaty can only cause extra synchronization,
never incorrect execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from repro.logic.formula import BoolConst, Cmp, Formula, conjuncts
from repro.logic.linear import (
    LinearConstraint,
    LinearExpr,
    LinearizationError,
    constraints_of_cmp,
)
from repro.logic.terms import Const, ObjT, ParamT, Term


@dataclass
class LinearizedTreaty:
    """Outcome of preprocessing: linear constraints plus pinning info.

    ``constraints`` is the conjunction of linear constraints over
    ground database objects.  ``pinned`` records the objects whose
    values were frozen because they appeared in non-linearizable
    subformulas (these yield equality constraints already included in
    ``constraints``).

    Only the pins read the database: every other constraint, and which
    objects get pinned, is a function of the formula alone.
    ``preconditions`` and ``pins`` record that split, so the outcome
    can be :meth:`rebound` to another database the same formula
    matches without linearizing again.
    """

    constraints: list[LinearConstraint]
    pinned: set[ObjT] = field(default_factory=set)
    #: what must be true on ``D`` for this to be its treaty: the formula
    #: and every subformula replaced by its truth value
    preconditions: list[Formula] = field(default_factory=list)
    #: the equalities ``x = D(x)``: position in ``constraints``, and ``x``
    pins: list[tuple[int, ObjT]] = field(default_factory=list)

    def rebound(
        self, getobj: Callable[[str], int], row_matched: bool = False
    ) -> "LinearizedTreaty":
        """This outcome on another database: the preconditions checked
        again, every pin re-read, each constraint at its position.

        ``row_matched`` says the caller has just evaluated the formula
        itself to true on ``getobj`` (the row lookup does): it is not
        evaluated again, the pinned subformulas still are."""
        for formula in self.preconditions[1 if row_matched else 0 :]:
            _require_holds(formula, getobj)
        if not self.pins:
            return self
        constraints = list(self.constraints)
        for at, obj in self.pins:
            constraints[at] = pin_constraint(obj, getobj)
        return replace(self, constraints=constraints)

    def holds_on(self, getobj: Callable[[str], int]) -> bool:
        return all(con.holds_on(getobj) for con in self.constraints)

    def pretty(self) -> str:
        return " and ".join(c.pretty() for c in self.constraints) or "true"


def _instantiate_params(formula: Formula, params: Mapping[str, int]) -> Formula:
    mapping: dict[Term, Term] = {
        ParamT(name): Const(value) for name, value in params.items()
    }
    return formula.substitute(mapping)


def linearize_for_treaty(
    formula: Formula,
    getobj: Callable[[str], int],
    params: Mapping[str, int] | None = None,
) -> LinearizedTreaty:
    """Preprocess ``formula`` into a conjunction of linear constraints.

    ``getobj`` resolves ground database object values on the current
    database ``D``; it is consulted both to check that the formula
    holds on ``D`` (a precondition: psi was selected as the row
    matching ``D``) and to pin variables of non-linearizable parts.

    Raises ``ValueError`` if the formula does not hold on ``D``.
    """
    if params:
        formula = _instantiate_params(formula, params)
    _require_holds(formula, getobj)

    result = LinearizedTreaty(constraints=[], preconditions=[formula])
    for part in conjuncts(formula.to_nnf()):
        _linearize_part(part, getobj, result)
    return result


def _require_holds(formula: Formula, getobj: Callable[[str], int]) -> None:
    if not formula.evaluate(getobj):
        raise ValueError(
            f"formula {formula.pretty()} does not hold on the current database; "
            "it cannot seed a treaty (H2 would be violated)"
        )


def pin_constraint(obj: ObjT, getobj: Callable[[str], int]) -> LinearConstraint:
    """The equality ``x = D(x)`` freezing one object (Appendix C.1, C.3)."""
    return LinearConstraint.make(LinearExpr.variable(obj), "=", getobj(obj.name))


def _linearize_part(
    part: Formula, getobj: Callable[[str], int], result: LinearizedTreaty
) -> None:
    if isinstance(part, BoolConst):
        if not part.value:
            raise ValueError("false conjunct in a formula that holds on D")
        return
    if isinstance(part, Cmp) and part.op != "!=":
        try:
            cons = constraints_of_cmp(part)
        except LinearizationError:
            _pin_subformula(part, getobj, result)
            return
        for con in cons:
            _require_ground_objects(con)
            if not con.is_trivially_true():
                result.constraints.append(con)
        return
    # Disequalities, residual negations, disjunctions, non-linear atoms:
    # pin every variable mentioned (Appendix C.1).
    _pin_subformula(part, getobj, result)


def _require_ground_objects(con: LinearConstraint) -> None:
    for var in con.variables():
        if not isinstance(var, ObjT):
            raise LinearizationError(
                f"treaty constraint mentions unresolved variable {var!r}; "
                "instantiate parameters and eliminate temporaries first"
            )


def _pin_subformula(
    part: Formula, getobj: Callable[[str], int], result: LinearizedTreaty
) -> None:
    _require_holds(part, getobj)
    result.preconditions.append(part)
    objs = set(part.objects())
    for indexed in part.indexed_objects():
        grounded = indexed.try_ground()
        if grounded is None:
            raise LinearizationError(
                f"cannot pin parameterized object {indexed.pretty()}"
            )
        objs.add(grounded)
    for obj in sorted(objs, key=lambda o: o.name):
        result.pinned.add(obj)
        result.pins.append((len(result.constraints), obj))
        result.constraints.append(pin_constraint(obj, getobj))
