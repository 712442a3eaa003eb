"""Exact specialized MaxSAT for treaty budget-allocation instances.

Treaty optimization (Algorithm 1, Appendix C.2) produces instances
with a very specific shape, one per global-treaty clause:

- one configuration variable ``c_k`` per site ``k``;
- a single hard constraint ``sum_k c_k >= C`` (the H1 requirement
  derived in Theorem 4.3's proof: local clauses imply the global
  clause iff the configuration variables absorb ``(K-1) * n``);
- a hard per-variable cap ``c_k <= cap_k`` (the H2 requirement: the
  local treaty must hold on the current database, i.e.
  ``c_k <= n - local_sum_k(D)``);
- soft constraints that are all *upper bounds* ``c_k <= u`` -- one per
  sampled future database state, obtained by plugging the state's
  local sums into the site template.

Maximizing the number of satisfied soft constraints subject to the
hard constraints is a resource-allocation problem solved exactly by a
Pareto-frontier dynamic program over sites: satisfying the ``n``
largest bounds of site ``k`` requires ``c_k <= v_k(n)`` (the n-th
largest bound), and taking ``c_k`` at exactly that value keeps the
sum as large as possible.  Feasibility is guaranteed whenever the
caps alone meet the budget -- which Theorem 4.3 proves for instances
derived from a treaty that holds on the current database.

The general Fu-Malik solver (:mod:`repro.solver.maxsat`) accepts the
same instances; the ablation benchmark cross-checks that both produce
the same optimum, and measures the (large) speed difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

#: Sentinel for "unbounded above" (no H2 cap supplied for the site).
_INF = None


@dataclass
class BudgetInstance:
    """One clause's optimization instance.

    ``required_total`` is C in ``sum_k c_k >= C``; ``soft_upper``
    lists the soft upper bounds per site; ``hard_upper`` the optional
    per-site caps.
    """

    sites: list[Hashable]
    required_total: int
    soft_upper: dict[Hashable, list[int]] = field(default_factory=dict)
    hard_upper: dict[Hashable, int] = field(default_factory=dict)
    #: optional slack-distribution weights (e.g. sampled per-site demand)
    slack_weights: dict[Hashable, int] = field(default_factory=dict)


@dataclass
class BudgetSolution:
    assignment: dict[Hashable, int]
    satisfied: int


class InfeasibleBudget(Exception):
    """Raised when the hard caps cannot meet the required total."""


def _site_frontier(
    bounds: list[int], cap: int | None
) -> list[tuple[int, int | None]]:
    """Pareto choices ``(satisfied_count, value)`` for one site.

    ``value`` is the variable's assignment achieving ``count``
    satisfied bounds with the largest possible value; ``None`` means
    unbounded (no cap and the site abstains).
    """
    # The maximal usable value is the cap (or unbounded).  Candidates
    # are the soft bounds clipped to the cap, plus the cap itself.
    candidates: set[int] = set()
    for u in bounds:
        candidates.add(u if cap is _INF else min(u, cap))
    frontier: list[tuple[int, int | None]] = []
    top_count = (
        0 if cap is _INF else sum(1 for u in bounds if u >= cap)
    )
    frontier.append((top_count, cap))
    for v in sorted(candidates, reverse=True):
        if cap is not _INF and v >= cap:
            continue  # already covered by the cap entry
        count = sum(1 for u in bounds if u >= v)
        frontier.append((count, v))
    return frontier


def solve_budget_allocation(instance: BudgetInstance) -> BudgetSolution:
    """Exactly maximize satisfied soft bounds subject to the budget."""
    sites = list(instance.sites)
    frontiers = [
        _site_frontier(
            instance.soft_upper.get(s, []), instance.hard_upper.get(s, _INF)
        )
        for s in sites
    ]

    # DP states: count -> (best_total, picks); total None = unbounded.
    best: dict[int, tuple[int | None, list[int | None]]] = {0: (0, [])}
    for frontier in frontiers:
        nxt: dict[int, tuple[int | None, list[int | None]]] = {}
        for count, (total, picks) in best.items():
            for add_count, value in frontier:
                new_count = count + add_count
                if total is _INF or value is _INF:
                    new_total: int | None = _INF
                else:
                    new_total = total + value
                incumbent = nxt.get(new_count)
                if incumbent is None or _total_gt(new_total, incumbent[0]):
                    nxt[new_count] = (new_total, picks + [value])
        best = nxt

    feasible = [
        (count, total, picks)
        for count, (total, picks) in best.items()
        if total is _INF or total >= instance.required_total
    ]
    if not feasible:
        raise InfeasibleBudget(
            f"caps cannot reach the required total {instance.required_total}"
        )
    count, total, picks = max(feasible, key=lambda t: t[0])

    assignment: dict[Hashable, int] = {}
    finite_sum = sum(v for v in picks if v is not _INF)
    absorbers = [s for s, v in zip(sites, picks) if v is _INF]
    for site, value in zip(sites, picks):
        if value is not _INF:
            assignment[site] = value
    if absorbers:
        residual = instance.required_total - finite_sum
        assignment[absorbers[0]] = max(residual, 0)
        for site in absorbers[1:]:
            assignment[site] = 0

    # Distribute leftover budget slack by *lowering* assignments.
    # Lowering a variable can never unsatisfy an upper-bound soft
    # constraint, and in treaty terms a lower configuration value
    # means more local headroom beyond the sampled horizon.  The
    # distribution follows ``slack_weights`` (sampled per-site demand)
    # when provided -- the tie-break that makes skewed workloads get
    # skewed headroom -- and is equal otherwise, which makes uniform
    # workloads converge to the equal-split optimum.
    slack = sum(assignment.values()) - instance.required_total
    if slack > 0:
        weights = [max(instance.slack_weights.get(s, 0), 0) for s in sites]
        if sum(weights) == 0:
            weights = [1] * len(sites)
        total_weight = sum(weights)
        given = 0
        for site, weight in zip(sites, weights):
            share = slack * weight // total_weight
            assignment[site] -= share
            given += share
        # Round-off remainder goes to the heaviest site.
        if given < slack:
            heaviest = max(zip(sites, weights), key=lambda sw: sw[1])[0]
            assignment[heaviest] -= slack - given

    # Report the count actually achieved (abstaining sites may satisfy
    # some bounds incidentally; slack lowering may satisfy more).
    achieved = 0
    for site in sites:
        for u in instance.soft_upper.get(site, []):
            if assignment[site] <= u:
                achieved += 1
    return BudgetSolution(assignment=assignment, satisfied=achieved)


def _total_gt(a: int | None, b: int | None) -> bool:
    """Compare totals where None means +infinity."""
    if a is _INF:
        return b is not _INF
    if b is _INF:
        return False
    return a > b


def brute_force_budget(
    instance: BudgetInstance, candidate_extra: Sequence[int] = (0,)
) -> BudgetSolution:
    """Reference exhaustive solver for tiny instances (tests only)."""
    import itertools

    sites = list(instance.sites)
    candidates: list[list[int]] = []
    big = (
        abs(instance.required_total)
        + sum(abs(u) for us in instance.soft_upper.values() for u in us)
        + max((abs(c) for c in candidate_extra), default=0)
        + 1
    )
    for s in sites:
        cands = set(instance.soft_upper.get(s, [])) | set(candidate_extra) | {big}
        cap = instance.hard_upper.get(s, _INF)
        if cap is not _INF:
            cands = {min(c, cap) for c in cands} | {cap}
        candidates.append(sorted(cands))
    best: BudgetSolution | None = None
    for combo in itertools.product(*candidates):
        if sum(combo) < instance.required_total:
            continue
        assignment = dict(zip(sites, combo))
        satisfied = sum(
            1
            for s in sites
            for u in instance.soft_upper.get(s, [])
            if assignment[s] <= u
        )
        if best is None or satisfied > best.satisfied:
            best = BudgetSolution(assignment=assignment, satisfied=satisfied)
    if best is None:
        raise InfeasibleBudget("no candidate combination meets the budget")
    return best
