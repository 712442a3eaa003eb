"""Treaty configurations: validity checks and closed-form strategies.

A *configuration* assigns an integer to every configuration variable
of the treaty templates.  A configuration is valid iff

- H1: the conjunction of the local treaties implies the global treaty
  for every database, and
- H2: every local treaty holds on the current database D.

Three closed-form strategies are provided:

- :func:`default_configuration` -- the Theorem 4.3 construction,
  which freezes each site's local contribution at its current value.
  Always valid; maximally conservative (any increasing local write
  violates).
- :func:`equal_split_configuration` -- the demarcation-protocol-style
  split used by the paper's OPT baseline (Section 6.1): the global
  slack ``n - psi(D)`` is divided equally among the sites.
- the workload-optimized configuration of Algorithm 1 lives in
  :mod:`repro.treaty.optimize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.logic.linear import LinearConstraint, LinearExpr
from repro.solver.ilp import ilp_feasible
from repro.treaty.templates import ConfigVar, TreatyTemplates


@dataclass
class Configuration:
    """An assignment of integers to configuration variables."""

    values: dict[ConfigVar, int] = field(default_factory=dict)
    strategy: str = "custom"

    def value(self, var: ConfigVar) -> int:
        return self.values[var]


def default_configuration(
    templates: TreatyTemplates, getobj: Callable[[str], int]
) -> Configuration:
    """Theorem 4.3: freeze local contributions at their current value.

    - equality clause: ``c_k = sum_{Loc(x) != k} d_j D(x_j)``
    - <= clause:       ``c_k = n - sum_{Loc(x) = k} d_i D(x_i)``
    """
    config = Configuration(strategy="default")
    for clause in templates.clauses:
        local_sums = {s: clause.local_sum_on(s, getobj) for s in clause.sites}
        total = sum(local_sums.values())
        for site in clause.sites:
            var = clause.config_var(site)
            if clause.op == "=":
                config.values[var] = total - local_sums[site]
            else:
                config.values[var] = clause.bound - local_sums[site]
    return config


def equal_split_configuration(
    templates: TreatyTemplates, getobj: Callable[[str], int]
) -> Configuration:
    """Demarcation-style OPT: share each <=-clause's slack equally.

    Site ``k`` receives headroom ``floor(slack / K)`` over its current
    local sum, where ``slack = n - psi(D) >= 0``.  Equality clauses
    fall back to the frozen default (they admit no slack).
    """
    config = Configuration(strategy="equal-split")
    for clause in templates.clauses:
        local_sums = {s: clause.local_sum_on(s, getobj) for s in clause.sites}
        total = sum(local_sums.values())
        if clause.op == "=":
            for site in clause.sites:
                config.values[clause.config_var(site)] = total - local_sums[site]
            continue
        slack = clause.bound - total
        if slack < 0:
            raise ValueError(
                f"clause {clause.index} does not hold on the current database"
            )
        share = slack // len(clause.sites)
        for site in clause.sites:
            config.values[clause.config_var(site)] = (
                clause.bound - local_sums[site] - share
            )
    return config


def local_treaties(
    templates: TreatyTemplates, config: Configuration
) -> dict[int, list[LinearConstraint]]:
    """Instantiate per-site local treaty constraint lists."""
    out: dict[int, list[LinearConstraint]] = {s: [] for s in templates.sites}
    for clause in templates.clauses:
        for site in clause.sites:
            value = config.value(clause.config_var(site))
            out[site].append(clause.local_constraint(site, value))
    return out


def check_h1_algebraic(templates: TreatyTemplates, config: Configuration) -> bool:
    """H1 via the Theorem 4.3 summing argument (sound and complete for
    the per-clause split used here)."""
    for clause in templates.clauses:
        total = sum(config.value(clause.config_var(s)) for s in clause.sites)
        rhs = (len(clause.sites) - 1) * clause.bound
        ok = total == rhs if clause.op == "=" else total >= rhs
        if not ok:
            return False
    return True


def check_h1_semantic(templates: TreatyTemplates, config: Configuration) -> bool:
    """H1 checked semantically with the integer solver.

    For each clause, ask whether *all local clauses hold but the
    global clause fails* is satisfiable; H1 holds iff every such query
    is infeasible.  Used in tests to validate the algebraic shortcut.
    """
    for clause in templates.clauses:
        locals_: list[LinearConstraint] = []
        for site in clause.sites:
            value = config.value(clause.config_var(site))
            locals_.append(clause.local_constraint(site, value))
        total_coeffs: dict = {}
        for site in clause.sites:
            expr = clause.site_exprs.get(site)
            if expr is None:
                continue
            for var, coeff in expr.coeffs:
                total_coeffs[var] = total_coeffs.get(var, 0) + coeff
        total = LinearExpr.make(total_coeffs)
        if clause.op == "<=":
            negations = [
                LinearConstraint.make(total.scaled(-1), "<=", -(clause.bound + 1))
            ]
        else:
            negations = [
                LinearConstraint.make(total.scaled(-1), "<=", -(clause.bound + 1)),
                LinearConstraint.make(total, "<=", clause.bound - 1),
            ]
        # '=' negates to a disjunction: check each disjunct separately.
        for negation in negations:
            if ilp_feasible(locals_ + [negation]).feasible:
                return False
    return True


def check_h2(
    templates: TreatyTemplates,
    config: Configuration,
    getobj: Callable[[str], int],
) -> bool:
    """H2: every local treaty holds on the current database."""
    for clause in templates.clauses:
        for site in clause.sites:
            local_sum = clause.local_sum_on(site, getobj)
            rhs = clause.bound - config.value(clause.config_var(site))
            ok = local_sum <= rhs if clause.op == "<=" else local_sum == rhs
            if not ok:
                return False
    return True
