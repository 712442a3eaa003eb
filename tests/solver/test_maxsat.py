"""Tests for Fu-Malik MaxSAT and the specialized budget solver."""

import random

import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.linear import LinearConstraint, LinearExpr
from repro.solver.cores import is_feasible, minimal_unsat_core
from repro.solver.fastmaxsat import (
    BudgetInstance,
    brute_force_budget,
    solve_budget_allocation,
)
from repro.solver.maxsat import fu_malik_maxsat


def le(coeffs, b):
    return LinearConstraint.make(LinearExpr.make(coeffs), "<=", b)


class TestCores:
    def test_satisfiable_returns_none(self):
        assert minimal_unsat_core([], [le({"x": 1}, 5)]) is None

    def test_minimal_core_found(self):
        hard = [le({"x": -1}, -10)]  # x >= 10
        soft = [le({"y": 1}, 3), le({"x": 1}, 5), le({"z": 1}, 0)]
        core = minimal_unsat_core(hard, soft)
        assert core == [1]  # only x <= 5 conflicts with x >= 10

    def test_core_is_minimal(self):
        hard = []
        soft = [le({"x": 1}, 0), le({"x": -1}, -5), le({"y": 1}, 1)]
        core = minimal_unsat_core(hard, soft)
        assert core is not None
        assert sorted(core) == [0, 1]
        # every proper subset is feasible
        for drop in core:
            remaining = [soft[i] for i in core if i != drop]
            assert is_feasible(remaining)


class TestFuMalik:
    def test_all_satisfiable_zero_cost(self):
        res = fu_malik_maxsat([], [le({"x": 1}, 5), le({"x": -1}, 0)])
        assert res.cost == 0
        assert res.num_satisfied == 2

    def test_paper_appendix_c2_example(self):
        """The worked example: hard cx + cy <= 20 with soft bounds
        {cy >= 12, cx >= 8}, {cy >= 13, cx >= 7}, {cy >= 12, cx >= 8}.
        The paper's optimum cy = 12, cx = 8 satisfies executions S1
        and S3 fully plus the cx half of S2: 5 of the 6 individual
        constraints, i.e. cost 1 (only cy >= 13 is sacrificed)."""
        hard = [le({"cx": 1, "cy": 1}, 20)]
        soft = [
            le({"cy": -1}, -12), le({"cx": -1}, -8),
            le({"cy": -1}, -13), le({"cx": -1}, -7),
            le({"cy": -1}, -12), le({"cx": -1}, -8),
        ]
        res = fu_malik_maxsat(hard, soft)
        assert res.num_satisfied == 5
        assert res.cost == 1
        # The model is (up to ties) the paper's configuration.
        assert res.assignment["cx"] + res.assignment["cy"] <= 20
        assert res.assignment["cy"] >= 12 and res.assignment["cx"] >= 8

    def test_infeasible_hard_raises(self):
        with pytest.raises(ValueError):
            fu_malik_maxsat([le({"x": 1}, 0), le({"x": -1}, -1)], [])

    def test_model_satisfies_hard(self):
        hard = [le({"x": 1, "y": 1}, 4)]
        soft = [le({"x": -1}, -3), le({"y": -1}, -3)]
        res = fu_malik_maxsat(hard, soft)
        assert hard[0].satisfied_by({v: res.assignment.get(v, 0) for v in ("x", "y")})
        assert res.cost == 1


class TestBudgetSolver:
    def test_simple_allocation(self):
        inst = BudgetInstance(
            sites=["a", "b"], required_total=20,
            soft_upper={"a": [8, 7, 8], "b": [12, 13, 12]},
        )
        sol = solve_budget_allocation(inst)
        assert sol.satisfied == brute_force_budget(inst).satisfied == 5

    def test_respects_hard_caps(self):
        inst = BudgetInstance(
            sites=["a", "b"], required_total=5,
            soft_upper={"a": [0], "b": [0]},
            hard_upper={"a": 4, "b": 4},
        )
        sol = solve_budget_allocation(inst)
        assert sol.assignment["a"] <= 4 and sol.assignment["b"] <= 4
        assert sol.assignment["a"] + sol.assignment["b"] >= 5

    def test_abstain_when_profitable(self):
        # Satisfying b's three tight bounds requires a to absorb.
        inst = BudgetInstance(
            sites=["a", "b"], required_total=10,
            soft_upper={"a": [9], "b": [0, 0, 0]},
        )
        sol = solve_budget_allocation(inst)
        assert sol.satisfied >= 3

    def test_slack_distribution_weighted(self):
        inst = BudgetInstance(
            sites=["a", "b"], required_total=0,
            soft_upper={"a": [50], "b": [50]},
            hard_upper={"a": 50, "b": 50},
            slack_weights={"a": 3, "b": 1},
        )
        sol = solve_budget_allocation(inst)
        # Budget slack of 100 should lean 3:1 toward lowering a.
        assert sol.assignment["a"] < sol.assignment["b"]
        assert sol.assignment["a"] + sol.assignment["b"] >= 0

    @settings(max_examples=examples(60), deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        sites = ["s0", "s1", "s2"][: rng.randint(2, 3)]
        inst = BudgetInstance(
            sites=list(sites),
            required_total=rng.randint(-5, 15),
            soft_upper={
                s: [rng.randint(-5, 12) for _ in range(rng.randint(0, 4))]
                for s in sites
            },
        )
        fast = solve_budget_allocation(inst)
        brute = brute_force_budget(inst)
        assert fast.satisfied == brute.satisfied
        assert sum(fast.assignment.values()) >= inst.required_total

    @settings(max_examples=examples(25), deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_fumalik(self, seed):
        """The two MaxSAT engines find the same optimum."""
        rng = random.Random(seed)
        sites = ["s0", "s1"]
        total = rng.randint(-5, 10)
        bounds = {
            s: [rng.randint(-4, 8) for _ in range(rng.randint(1, 3))] for s in sites
        }
        inst = BudgetInstance(sites=list(sites), required_total=total, soft_upper=bounds)
        fast = solve_budget_allocation(inst)

        hard = [le({s: -1 for s in sites}, -total)]
        soft = [le({s: 1}, u) for s in sites for u in bounds[s]]
        fm = fu_malik_maxsat(hard, soft)
        assert len(soft) - fm.cost == fast.satisfied
