"""The treaty table (Section 5.1).

"The protocol initializer sets up the treaty table -- a data structure
that at any given time contains the current global treaty and the
current local treaty configuration."  Each site keeps a copy; stored
procedures consult it on every commit, and the treaty negotiator
replaces it at each round boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Mapping, Sequence

from repro.logic.linear import LinearConstraint
from repro.logic.linearize import LinearizedTreaty
from repro.logic.terms import ObjT
from repro.treaty.config import Configuration, local_treaties
from repro.treaty.templates import TreatyTemplates


class InstallDivergence(AssertionError):
    """A delta-maintained treaty install (a site's patched check state,
    or the incrementally assembled treaty table) differs from the
    from-scratch derivation of the same state -- a bug in the delta
    bookkeeping, surfaced loudly by validate mode instead of silently
    enforcing the wrong clauses."""


@dataclass
class LocalTreaty:
    """The conjunction of local treaty clauses enforced at one site.

    A site enforces it through its escrow account
    (:mod:`repro.treaty.escrow`); the methods here evaluate the clauses
    on a store directly -- the H2 check and the validate-mode oracle
    the account's verdicts are held to.

    ``constraints`` must not be mutated after construction: the
    per-object clause index is built lazily from it and cached.
    Replacing a site's treaty means installing a *new* ``LocalTreaty``
    (which is what every install path does), never editing one in
    place.
    """

    site: int
    constraints: list[LinearConstraint] = field(default_factory=list)
    _by_object: dict[str, list[LinearConstraint]] | None = field(
        default=None, repr=False, compare=False
    )

    def holds(self, getobj: Callable[[str], int]) -> bool:
        return all(con.holds_on(getobj) for con in self.constraints)

    def clauses_over(self, name: str) -> Sequence[LinearConstraint]:
        """The clauses mentioning object ``name``, in treaty order (the
        per-object index, built on the first lookup)."""
        index = self._by_object
        if index is None:
            index = self._by_object = {}
            for con in self.constraints:
                for var in con.variables():
                    assert isinstance(var, ObjT)
                    index.setdefault(var.name, []).append(con)
        return index.get(name, ())

    def violations_after_writes(
        self, getobj: Callable[[str], int], written: set[str]
    ) -> set[str]:
        """Objects of every violated clause touching the written set
        (empty means the treaty still holds).

        Restricting the check to those clauses is sound because the
        treaty held before the transaction (H2 at round start,
        inductively per commit), and a clause's truth value can only
        change if one of its objects was written.  The object set seeds
        the cleanup phase's participant computation: the violated
        treaty factors name the sites whose state and treaty pieces the
        negotiation must involve.
        """
        seen: set[int] = set()
        violated: set[str] = set()
        for name in written:
            for con in self.clauses_over(name):
                if id(con) in seen:
                    continue
                seen.add(id(con))
                if not con.holds_on(getobj):
                    for var in con.variables():
                        assert isinstance(var, ObjT)
                        violated.add(var.name)
        return violated

    def objects(self) -> set[str]:
        names: set[str] = set()
        for con in self.constraints:
            for var in con.variables():
                assert isinstance(var, ObjT)
                names.add(var.name)
        return names

    def pretty(self) -> str:
        body = " and ".join(c.pretty() for c in self.constraints) or "true"
        return f"site {self.site}: {body}"


@dataclass
class TreatyTable:
    """Current global treaty plus its per-site local treaties."""

    global_treaty: LinearizedTreaty
    templates: TreatyTemplates
    configuration: Configuration
    locals: dict[int, LocalTreaty] = field(default_factory=dict)
    round_number: int = 0
    #: per-site factor index: object name -> sites whose local treaty
    #: enforces a clause mentioning it (handed over by the incremental
    #: assembly, else built on first use)
    _factor_sites: Mapping[str, AbstractSet[int]] | None = None

    @classmethod
    def assemble(
        cls,
        global_treaty: LinearizedTreaty,
        templates: TreatyTemplates,
        configuration: Configuration,
        round_number: int = 0,
    ) -> "TreatyTable":
        locals_ = {
            site: LocalTreaty(
                site=site,
                constraints=[c for c in constraints if not c.is_trivially_true()],
            )
            for site, constraints in local_treaties(templates, configuration).items()
        }
        return cls(
            global_treaty=global_treaty,
            templates=templates,
            configuration=configuration,
            locals=locals_,
            round_number=round_number,
        )

    def local_for(self, site: int) -> LocalTreaty:
        return self.locals[site]

    def sites_for_objects(self, names) -> set[int]:
        """Sites whose installed local treaty has a clause over any of
        the given objects (the per-site factor index).

        These are exactly the sites whose enforcement depends on the
        objects, so any negotiation that changes them must include
        these sites in its participant set.
        """
        if self._factor_sites is None:
            self._factor_sites = self.factor_index()
        out: set[int] = set()
        for name in names:
            out.update(self._factor_sites.get(name, ()))
        return out

    def factor_index(self) -> dict[str, set[int]]:
        """The factor index, derived from the local treaties."""
        index: dict[str, set[int]] = {}
        for site, local in self.locals.items():
            for name in local.objects():
                index.setdefault(name, set()).add(site)
        return index

    def pretty(self) -> str:
        lines = [f"treaty table (round {self.round_number})"]
        lines.append("  global: " + self.global_treaty.pretty())
        for site in sorted(self.locals):
            lines.append("  " + self.locals[site].pretty())
        return "\n".join(lines)
