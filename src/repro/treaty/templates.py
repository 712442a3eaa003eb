"""Local treaty templates (Section 4.2, step two).

Given the preprocessed global treaty -- a conjunction of linear
clauses ``sum_i d_i x_i OP n`` -- each site ``k`` receives, per
clause, the template

    sum_{Loc(x_i) = k} d_i x_i + c_k  OP  n

where ``c_k`` is a fresh *configuration variable*.  Any assignment of
integers to the configuration variables yields candidate local
treaties; H1 (locals imply the global clause) reduces, by the summing
argument in Theorem 4.3's proof, to one linear constraint per clause
over the configuration variables:

    <=-clauses:  sum_k c_k >= (K - 1) * n
    =-clauses :  sum_k c_k  = (K - 1) * n

(For ``K`` sites; each object lives on exactly one site, so summing
the K local clauses counts every object coefficient once and every
bound K times.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.linearize import LinearizedTreaty
from repro.logic.terms import ObjT


class ConfigVar(NamedTuple):
    """The fresh configuration variable ``c_{site}`` of one clause.

    A named tuple: a treaty round builds one per clause and site
    several times over, and a tuple is built and hashed in C."""

    site: int
    clause: int

    def __repr__(self) -> str:
        return f"c[s{self.site},cl{self.clause}]"


@dataclass
class ClauseTemplate:
    """Per-site split of one global clause."""

    index: int
    op: str  # '<=' or '='
    bound: int
    #: per site: the local sub-expression  sum_{Loc(x)=k} d_i x_i
    site_exprs: dict[int, LinearExpr]
    sites: tuple[int, ...]

    def config_var(self, site: int) -> ConfigVar:
        return ConfigVar(site, self.index)

    def local_constraint(self, site: int, config_value: int) -> LinearConstraint:
        """The site's local clause with the configuration folded in:
        ``sum_local d_i x_i <= n - c_k`` (resp. ``=``)."""
        expr = self.site_exprs.get(site, LinearExpr.constant(0))
        return LinearConstraint.make(expr, self.op, self.bound - config_value)

    def hard_constraint(self) -> LinearConstraint:
        """The H1 requirement over this clause's configuration variables."""
        total = LinearExpr.make({self.config_var(s): 1 for s in self.sites})
        rhs = (len(self.sites) - 1) * self.bound
        if self.op == "=":
            return LinearConstraint.make(total, "=", rhs)
        # sum c_k >= rhs   <=>   -sum c_k <= -rhs
        return LinearConstraint.make(total.scaled(-1), "<=", -rhs)

    def local_sum_on(self, site: int, getobj: Callable[[str], int]) -> int:
        expr = self.site_exprs.get(site)
        return 0 if expr is None else expr.value_on(getobj)

    def pretty(self) -> str:
        parts = []
        for site in self.sites:
            expr = self.site_exprs.get(site, LinearExpr.constant(0))
            parts.append(
                f"site {site}: {expr.pretty()} + {self.config_var(site)!r} "
                f"{self.op} {self.bound}"
            )
        return f"clause {self.index}: " + " | ".join(parts)


@dataclass
class TreatyTemplates:
    """All clause templates of one global treaty."""

    clauses: list[ClauseTemplate] = field(default_factory=list)
    sites: tuple[int, ...] = ()

    def rebound(self, constraints: Sequence[LinearConstraint]) -> "TreatyTemplates":
        """These templates over ``constraints`` that differ from the
        ones they were built from in bounds only: the per-site split
        follows the coefficients, so it is shared, not rebuilt."""
        return TreatyTemplates(
            clauses=[
                clause
                if clause.bound == con.bound
                else ClauseTemplate(
                    clause.index, clause.op, con.bound, clause.site_exprs, clause.sites
                )
                for clause, con in zip(self.clauses, constraints)
            ],
            sites=self.sites,
        )

    def pretty(self) -> str:
        return "\n".join(cl.pretty() for cl in self.clauses)


class TemplateError(Exception):
    """Raised when templates cannot be built from the treaty."""


def build_templates(
    treaty: LinearizedTreaty,
    locate: Callable[[str], int],
    sites: Sequence[int],
) -> TreatyTemplates:
    """Split every clause of the linearized treaty across sites.

    ``locate`` maps a ground object name to the site storing it (the
    ``Loc`` function of Section 3.1).
    """
    site_tuple = tuple(sites)
    site_set = set(site_tuple)
    templates = TreatyTemplates(sites=site_tuple)
    for idx, con in enumerate(treaty.constraints):
        per_site: dict[int, dict] = {}
        for var, coeff in con.expr.coeffs:
            if not isinstance(var, ObjT):
                raise TemplateError(f"non-object variable {var!r} in treaty clause")
            site = locate(var.name)
            if site not in site_set:
                raise TemplateError(
                    f"object {var.name!r} located on unknown site {site}"
                )
            per_site.setdefault(site, {})[var] = coeff
        templates.clauses.append(
            ClauseTemplate(
                index=idx,
                op=con.op,
                bound=con.bound,
                site_exprs={s: LinearExpr.make(c) for s, c in per_site.items()},
                sites=site_tuple,
            )
        )
    return templates
