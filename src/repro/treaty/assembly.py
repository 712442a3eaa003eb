"""Incremental assembly of the treaty table from per-instance pieces.

The global treaty is the conjunction of one *piece* per ground
instance (:class:`TreatyPiece`: the instance's linear clauses, their
per-site split and configuration).  Assembly merges the pieces --
identical coefficient vectors dedup, the tightest ``<=`` bound wins --
and derives, per merged clause, the :class:`ClauseTemplate`, the
configuration row and every site's local constraint.  Instances with
equal pieces merge to what the lowest-index one gives alone, so the
treaty generator hands over one piece per piece class, under that
member.

A negotiation changes the pieces of the instances in its closure and
nothing else, so :class:`TreatyAssembly` keeps the merged clause map
(clause key -> contributing instances) and everything derived from it
across rounds, and :meth:`TreatyAssembly.update` re-derives only the
clauses a changed piece contributes (or stopped contributing) to.  The
returned :class:`TreatyTable` shares every untouched clause, template
and :class:`LocalTreaty` with the previous one and equals, field for
field, what :meth:`TreatyAssembly.from_scratch` -- the original
whole-treaty assembly, kept as the validate-mode oracle -- builds from
the same pieces: clause order is first-contribution order, and a
clause's template index and configuration variables are its position
in that order, so a clause entering or leaving re-indexes (but does
not re-derive) the clauses after it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Mapping

from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.linearize import LinearizedTreaty
from repro.logic.terms import ObjT
from repro.treaty.config import Configuration
from repro.treaty.table import InstallDivergence, LocalTreaty, TreatyTable
from repro.treaty.templates import (
    ClauseTemplate,
    ConfigVar,
    TreatyTemplates,
    build_templates,
)

#: a merged clause's identity: its coefficient vector and operator
ClauseKey = tuple[tuple[tuple[Hashable, int], ...], str]


class ContradictoryPins(ValueError):
    """Two pieces pin the same expression to different values."""


@dataclass
class TreatyPiece:
    """One ground instance's share of the global treaty."""

    constraints: list[LinearConstraint]
    #: per constraint: site -> configuration value
    per_clause_config: list[dict[int, int]]
    #: per constraint: site -> the local sub-expression of its template
    site_exprs: list[dict[int, LinearExpr]]
    pinned: set[ObjT]


def _supersedes(held: LinearConstraint, con: LinearConstraint) -> bool:
    """Whether a later contribution ``con`` replaces ``held`` as the
    merged clause (same coefficient vector and operator): only a
    strictly tighter ``<=`` bound does; equalities must agree."""
    if con.op == "=" and held.bound != con.bound:
        raise ContradictoryPins(
            f"contradictory equality clauses: {held.pretty()} vs {con.pretty()}"
        )
    return con.op == "<=" and con.bound < held.bound


class _Clause:
    """One merged clause and everything derived from its winner."""

    __slots__ = ("key", "contributors", "first", "con", "config", "template", "locals")

    def __init__(self, key: ClauseKey) -> None:
        self.key = key
        #: instance index -> positions of this key in the instance's piece
        self.contributors: dict[int, list[int]] = {}
        #: (instance, position) of the earliest contribution: the sort key
        self.first: tuple[int, int] | None = None
        self.con: LinearConstraint | None = None
        self.config: dict[int, int] | None = None
        self.template: ClauseTemplate | None = None
        #: site -> local constraint (trivially true ones left out)
        self.locals: dict[int, LinearConstraint] = {}


_first = attrgetter("first")


class TreatyAssembly:
    """The merged treaty, maintained piece by piece."""

    def __init__(
        self,
        locate: Callable[[str], int],
        sites: Iterable[int],
        strategy: str,
    ) -> None:
        self.locate = locate
        self.sites = tuple(sites)
        self.strategy = strategy
        #: instance index -> its current piece
        self.pieces: dict[int, TreatyPiece] = {}
        self._by_key: dict[ClauseKey, _Clause] = {}
        #: merged clauses in first-contribution order ...
        self._order: list[_Clause] = []
        #: ... and, position for position, their winners and templates
        self._constraints: list[LinearConstraint] = []
        self._templates: list[ClauseTemplate] = []
        self._config: dict[ConfigVar, int] = {}
        self._pinned: dict[ObjT, int] = {}
        self._locals: dict[int, LocalTreaty] = {
            site: LocalTreaty(site=site) for site in self.sites
        }
        #: object -> number of local constraints mentioning it, and the
        #: table's factor index over the objects with any
        self._mentions: dict[str, int] = {}
        self._factor_sites: dict[str, frozenset[int]] = {}

    # -- the delta ---------------------------------------------------------------

    def update(
        self, changed: Mapping[int, TreatyPiece], round_number: int
    ) -> TreatyTable:
        """Swap in the changed pieces and return the resulting table."""
        touched: dict[ClauseKey, _Clause] = {}
        for idx in sorted(changed):
            piece = changed[idx]
            old = self.pieces.get(idx)
            if old is piece:
                continue
            if old is not None:
                self._count_pins(old.pinned, -1)
                for con in old.constraints:
                    clause = self._by_key[(con.expr.coeffs, con.op)]
                    clause.contributors.pop(idx, None)
                    touched[clause.key] = clause
            self._count_pins(piece.pinned, 1)
            for pos, con in enumerate(piece.constraints):
                key = (con.expr.coeffs, con.op)
                clause = self._by_key.get(key)
                if clause is None:
                    clause = self._by_key[key] = _Clause(key)
                clause.contributors.setdefault(idx, []).append(pos)
                touched[key] = clause
            self.pieces[idx] = piece

        order = self._order
        #: positions from here on hold a different clause than before
        shifted = len(order)
        rederived: list[_Clause] = []
        stale_sites: set[int] = set()
        for clause in touched.values():
            contributors = clause.contributors
            first = None
            if contributors:
                lead = min(contributors)
                first = (lead, contributors[lead][0])
            if first != clause.first:
                if clause.first is not None:
                    at = bisect_left(order, clause.first, key=_first)
                    while order[at] is not clause:
                        # a clause moved in ahead of one whose own move
                        # is still pending may share its old sort key
                        at += 1
                    del order[at]
                    shifted = min(shifted, at)
                    stale_sites.update(clause.locals)
                if first is None:
                    del self._by_key[clause.key]
                    self._relocalize(clause, {})
                    continue
                at = bisect_left(order, first, key=_first)
                order.insert(at, clause)
                shifted = min(shifted, at)
                stale_sites.update(clause.locals)
                clause.first = first
            if self._pick_winner(clause):
                rederived.append(clause)
                held, locals_ = clause.locals, self._localize(clause)
                for site in held.keys() | locals_.keys():
                    if held.get(site) == locals_.get(site):
                        locals_[site] = held[site]  # same clause, same object
                    else:
                        stale_sites.add(site)
                self._relocalize(clause, locals_)

        for clause in rederived:
            index = clause.template.index
            if 0 <= index < shifted:
                self._stamp(clause, index)
        self._restamp_from(shifted)
        for site in stale_sites:
            self._locals[site] = LocalTreaty(
                site=site,
                constraints=[c.locals[site] for c in order if site in c.locals],
            )
        return TreatyTable(
            global_treaty=LinearizedTreaty(
                constraints=list(self._constraints), pinned=set(self._pinned)
            ),
            templates=TreatyTemplates(clauses=list(self._templates), sites=self.sites),
            configuration=Configuration(
                values=dict(self._config), strategy=self.strategy
            ),
            locals=dict(self._locals),
            round_number=round_number,
            _factor_sites=dict(self._factor_sites),
        )

    def _count_pins(self, pinned: Iterable[ObjT], times: int) -> None:
        counts = self._pinned
        for obj in pinned:
            count = counts.get(obj, 0) + times
            if count:
                counts[obj] = count
            else:
                del counts[obj]

    def _pick_winner(self, clause: _Clause) -> bool:
        """Re-elect the clause's winning contribution; True if the
        clause (constraint or configuration row) changed."""
        winner: tuple[TreatyPiece, int] | None = None
        held: LinearConstraint | None = None
        for idx in sorted(clause.contributors):
            piece = self.pieces[idx]
            for pos in clause.contributors[idx]:
                con = piece.constraints[pos]
                if held is None or _supersedes(held, con):
                    held, winner = con, (piece, pos)
        assert winner is not None and held is not None
        piece, pos = winner
        config = piece.per_clause_config[pos]
        if held == clause.con and config == clause.config:
            return False  # a recomputed piece that says the same thing
        clause.con, clause.config = held, config
        clause.template = ClauseTemplate(
            index=clause.template.index if clause.template is not None else -1,
            op=held.op,
            bound=held.bound,
            site_exprs=piece.site_exprs[pos],
            sites=self.sites,
        )
        return True

    def _localize(self, clause: _Clause) -> dict[int, LinearConstraint]:
        template, config = clause.template, clause.config
        out = {}
        for site in self.sites:
            local = template.local_constraint(site, config[site])
            if not local.is_trivially_true():
                out[site] = local
        return out

    def _relocalize(
        self, clause: _Clause, locals_: dict[int, LinearConstraint]
    ) -> None:
        """Swap the clause's local constraints, keeping the factor
        index (object -> sites enforcing a clause over it) in step."""
        mentions, factor_sites = self._mentions, self._factor_sites
        for local in clause.locals.values():
            for var, _coeff in local.expr.coeffs:
                count = mentions[var.name] - 1
                if count:
                    mentions[var.name] = count
                else:
                    del mentions[var.name], factor_sites[var.name]
        for site, local in locals_.items():
            for var, _coeff in local.expr.coeffs:
                count = mentions.get(var.name, 0)
                mentions[var.name] = count + 1
                if not count:
                    # a site's local clause is over objects it stores
                    factor_sites[var.name] = frozenset((site,))
        clause.locals = locals_

    def _stamp(self, clause: _Clause, index: int) -> None:
        """Record the clause at its position: constraint, template and
        configuration variables (which carry the position)."""
        template = clause.template
        if template.index != index:
            template = clause.template = ClauseTemplate(
                index, template.op, template.bound, template.site_exprs, self.sites
            )
        self._constraints[index : index + 1] = [clause.con]
        self._templates[index : index + 1] = [template]
        for site in self.sites:
            self._config[ConfigVar(site=site, clause=index)] = clause.config[site]

    def _restamp_from(self, start: int) -> None:
        """Re-index every clause from position ``start`` on (a clause
        entered or left there); positions past the new end are dropped."""
        order = self._order
        for index in range(len(order), len(self._templates)):
            for site in self.sites:
                del self._config[ConfigVar(site=site, clause=index)]
        del self._constraints[start:], self._templates[start:]
        for index in range(start, len(order)):
            self._stamp(order[index], index)

    # -- the oracle --------------------------------------------------------------

    def assert_matches_scratch(
        self, table: TreatyTable, pieces: Mapping[int, TreatyPiece] | None = None
    ) -> None:
        """Validate mode, after every round: the table :meth:`update`
        returned equals whole-treaty assembly of the same pieces (or of
        ``pieces``, which must assemble to the same table)."""
        scratch = self.from_scratch(table.round_number, pieces)
        pairs = {
            "global treaty": (table.global_treaty, scratch.global_treaty),
            "templates": (table.templates, scratch.templates),
            "configuration": (table.configuration, scratch.configuration),
            "local treaties": (
                {site: local.constraints for site, local in table.locals.items()},
                {site: local.constraints for site, local in scratch.locals.items()},
            ),
            "factor index": (table._factor_sites, scratch.factor_index()),
        }
        for what, (have, expect) in pairs.items():
            if have != expect:
                raise InstallDivergence(
                    f"round {table.round_number}: incrementally assembled "
                    f"{what} differ from scratch: {have} vs {expect}"
                )

    def from_scratch(
        self, round_number: int, pieces: Mapping[int, TreatyPiece] | None = None
    ) -> TreatyTable:
        """Whole-treaty assembly from the current pieces (or from
        ``pieces``), sharing nothing with :meth:`update`'s state."""
        if pieces is None:
            pieces = self.pieces
        chosen: dict[ClauseKey, tuple[LinearConstraint, dict[int, int]]] = {}
        pinned: set[ObjT] = set()
        for idx in sorted(pieces):
            piece = pieces[idx]
            pinned |= piece.pinned
            for con, cfg in zip(piece.constraints, piece.per_clause_config):
                key = (con.expr.coeffs, con.op)
                incumbent = chosen.get(key)
                if incumbent is None or _supersedes(incumbent[0], con):
                    chosen[key] = (con, cfg)
        lin_all = LinearizedTreaty(
            constraints=[con for con, _cfg in chosen.values()], pinned=pinned
        )
        templates = build_templates(lin_all, self.locate, self.sites)
        config = Configuration(strategy=self.strategy)
        for clause, (_con, cfg) in zip(templates.clauses, chosen.values()):
            for site in clause.sites:
                config.values[clause.config_var(site)] = cfg[site]
        return TreatyTable.assemble(
            lin_all, templates, config, round_number=round_number
        )
