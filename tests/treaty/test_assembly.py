"""Incremental treaty assembly equals whole-treaty assembly.

``TreatyAssembly.update`` keeps the merged clause map across rounds
and re-derives only what the changed pieces touch; ``from_scratch`` is
the original merge-everything assembly.  Pieces are churned at random
here -- clauses appear, vanish, tighten, loosen, move between
instances, repeat inside one piece -- and after every update the two
must agree on clause order, bounds, templates, configuration, local
treaties and the factor index.
"""

import random

import pytest

from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.linearize import LinearizedTreaty
from repro.logic.terms import ObjT
from repro.treaty.assembly import ContradictoryPins, TreatyAssembly, TreatyPiece
from repro.treaty.templates import build_templates

SITES = (0, 1, 2)
#: object -> site; every coefficient vector below draws from these
OBJECTS = {f"a{site}[{slot}]": site for site in SITES for slot in range(3)}


def locate(name):
    return OBJECTS[name]


def piece(clauses, skew=3):
    """A piece from ``(coeffs, op, bound)`` triples, split the way the
    generator does it; ``skew`` varies the configuration row."""
    constraints = [
        LinearConstraint.make(
            LinearExpr.make({ObjT(name): c for name, c in coeffs.items()}), op, bound
        )
        for coeffs, op, bound in clauses
    ]
    templates = build_templates(LinearizedTreaty(constraints), locate, SITES)
    return TreatyPiece(
        constraints=constraints,
        per_clause_config=[
            {site: skew * site for site in SITES} for _ in templates.clauses
        ],
        site_exprs=[clause.site_exprs for clause in templates.clauses],
        pinned={
            ObjT(name) for coeffs, op, _ in clauses if op == "=" for name in coeffs
        },
    )


def random_clause(rng):
    names = rng.sample(sorted(OBJECTS), rng.choice((1, 1, 2, 3)))
    coeffs = {name: rng.choice((-2, -1, 1, 1, 3)) for name in names}
    if rng.random() < 0.2:
        # equal pins must agree wherever they recur: a function of the vector
        return coeffs, "=", sum(coeffs.values())
    return coeffs, "<=", rng.randrange(-4, 12)


@pytest.mark.parametrize("seed", range(6))
def test_random_churn_matches_from_scratch(seed):
    rng = random.Random(seed)
    pool = [random_clause(rng) for _ in range(10)]
    assembly = TreatyAssembly(locate, SITES, "custom")
    instances = 8

    def draw():
        clauses = [rng.choice(pool) for _ in range(rng.randrange(0, 4))]
        if rng.random() < 0.3:
            clauses.append(random_clause(rng))
        return piece(clauses, skew=rng.choice((1, 3)))

    table = assembly.update({idx: draw() for idx in range(instances)}, 1)
    assembly.assert_matches_scratch(table)
    for round_number in range(2, 60):
        changed = {
            idx: draw() for idx in rng.sample(range(instances), rng.randrange(0, 4))
        }
        if rng.random() < 0.2 and changed:
            # a recomputation that reproduces the piece it replaces
            idx = next(iter(changed))
            changed[idx] = assembly.pieces[idx]
        previous = table
        table = assembly.update(changed, round_number)
        assembly.assert_matches_scratch(table)
        if not changed:
            assert table.locals == previous.locals
            assert all(table.locals[s] is previous.locals[s] for s in SITES)


def test_rebounding_one_clause_touches_nothing_else():
    shared = ({"a0[0]": 1, "a1[0]": 1}, "<=", 9)
    other = ({"a2[1]": 1}, "<=", 5)
    assembly = TreatyAssembly(locate, SITES, "custom")
    first = assembly.update(
        {0: piece([shared]), 1: piece([other]), 2: piece([shared])}, 1
    )
    second = assembly.update({0: piece([({"a0[0]": 1, "a1[0]": 1}, "<=", 7)])}, 2)
    assembly.assert_matches_scratch(second)
    assert second.global_treaty.constraints[0].bound == 7
    # the untouched clause, its template and site 2's whole local treaty
    assert second.global_treaty.constraints[1] is first.global_treaty.constraints[1]
    assert second.templates.clauses[1] is first.templates.clauses[1]
    assert second.locals[2] is first.locals[2]
    assert second.locals[0] is not first.locals[0]
    # dropping the tighter contribution falls back to the looser one
    third = assembly.update({0: piece([])}, 3)
    assembly.assert_matches_scratch(third)
    assert third.global_treaty.constraints[1].bound == 9
    assert [c.index for c in third.templates.clauses] == [0, 1]


def test_contradictory_pins_are_refused():
    assembly = TreatyAssembly(locate, SITES, "custom")
    with pytest.raises(ContradictoryPins):
        assembly.update(
            {0: piece([({"a0[0]": 1}, "=", 4)]), 1: piece([({"a0[0]": 1}, "=", 5)])}, 1
        )
