"""Tests for the local treaty's interpreted clause check.

``violations_after_writes`` is the validate-mode oracle every escrow
verdict is held to, and it evaluates only the clauses touching written
objects.  That restriction's contract -- equivalence to the full check
whenever the treaty held before the writes -- is property-tested here.
"""

import random

from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.terms import ObjT
from repro.treaty.table import LocalTreaty

OBJECTS = ["a", "b", "c", "d"]


def _random_treaty(rng: random.Random, db: dict[str, int]) -> LocalTreaty:
    """A treaty of random <=-clauses that hold on db."""
    constraints = []
    for _ in range(rng.randint(1, 5)):
        names = rng.sample(OBJECTS, rng.randint(1, 3))
        coeffs = {ObjT(n): rng.choice((-2, -1, 1, 2)) for n in names}
        value = sum(c * db.get(v.name, 0) for v, c in coeffs.items())
        slack = rng.randint(0, 6)
        constraints.append(
            LinearConstraint.make(LinearExpr.make(coeffs), "<=", value + slack)
        )
    return LocalTreaty(site=0, constraints=constraints)


class TestLocalTreaty:
    def test_holds_basic(self):
        treaty = LocalTreaty(
            site=0,
            constraints=[
                LinearConstraint.make(LinearExpr.variable(ObjT("a")), "<=", 5)
            ],
        )
        assert treaty.holds(lambda n: 5)
        assert not treaty.holds(lambda n: 6)

    def test_violated_clauses_reported(self):
        treaty = LocalTreaty(
            site=0,
            constraints=[
                LinearConstraint.make(LinearExpr.variable(ObjT("a")), "<=", 5),
                LinearConstraint.make(LinearExpr.variable(ObjT("b")), "<=", 99),
            ],
        )
        state = {"a": 9, "b": 0}
        violated = treaty.violations_after_writes(state.__getitem__, {"a", "b"})
        assert violated == {"a"}

    def test_per_object_index_is_built_once_over_the_clauses(self):
        """The index holds the treaty's own clause objects, in treaty
        order, and is built on the first lookup only."""
        ab = LinearConstraint.make(
            LinearExpr.make({ObjT("a"): 1, ObjT("b"): 1}), "<=", 5
        )
        b = LinearConstraint.make(LinearExpr.variable(ObjT("b")), "<=", 9)
        treaty = LocalTreaty(site=0, constraints=[ab, b])
        assert treaty.violations_after_writes(lambda n: 0, {"b"}) == set()
        index = treaty._by_object
        assert index is not None
        assert treaty.clauses_over("b") == [ab, b]
        assert treaty.clauses_over("a")[0] is ab
        assert treaty.clauses_over("z") == ()
        assert treaty._by_object is index

    def test_objects_enumeration(self):
        treaty = LocalTreaty(
            site=0,
            constraints=[
                LinearConstraint.make(
                    LinearExpr.make({ObjT("a"): 1, ObjT("b"): -1}), "<=", 3
                )
            ],
        )
        assert treaty.objects() == {"a", "b"}

    def test_fast_path_skips_untouched_clauses(self):
        """Writing an object outside the treaty cannot violate it."""
        treaty = LocalTreaty(
            site=0,
            constraints=[
                LinearConstraint.make(LinearExpr.variable(ObjT("a")), "<=", 0)
            ],
        )
        # Full check would fail on this state; the fast path correctly
        # trusts the induction hypothesis for clauses not written.
        assert not treaty.violations_after_writes(lambda n: 99, written={"z"})

    @settings(max_examples=examples(80))
    @given(seed=st.integers(0, 100_000))
    def test_fast_path_equivalence_property(self, seed):
        """PROPERTY: starting from a state where the treaty holds, after
        any set of writes the fast path agrees with the full check."""
        rng = random.Random(seed)
        db = {n: rng.randint(-5, 5) for n in OBJECTS}
        treaty = _random_treaty(rng, db)
        assert treaty.holds(lambda n: db.get(n, 0))  # precondition

        written = set(rng.sample(OBJECTS, rng.randint(0, len(OBJECTS))))
        new_db = dict(db)
        for name in written:
            new_db[name] = db[name] + rng.randint(-4, 4)

        lookup = lambda n: new_db.get(n, 0)  # noqa: E731
        violated = treaty.violations_after_writes(lookup, written)
        assert (not violated) == treaty.holds(lookup)
