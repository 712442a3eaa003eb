"""The Appendix B transform: eliminating remote writes.

Replicated objects break Assumption 3.1 (all writes local).  The
transform restores it: for a replicated object ``x`` and each site
``i`` that writes it, introduce a fresh *delta* object ``dx_i`` local
to site ``i`` and initialized to 0, maintaining the invariant

    value(x) = x + sum_i dx_i .

Rewrites applied to a transaction bound for site ``i``:

    read(x)       ->  read(x) + sum_j read(dx_j)
    write(x = e)  ->  write(dx_i = e' - read(x) - sum_{j != i} read(dx_j))

where ``e'`` is ``e`` with its own reads rewritten.  Arrays transform
slot-wise: the delta of array base ``qty`` at site ``i`` is the array
base ``qty__d{i}`` with identical index structure, so parameterized
accesses stay parameterized.

After the transform, the linear-cancellation residual pass
(:mod:`repro.analysis.residual`) removes the reintroduced remote
reads wherever they cancel -- turning Figure 23b into Figure 23c --
and the treaty generator pins whatever remote reads remain.

Section B's closing remark on data types: the transform generalizes
to any Abelian-group merge; integers under addition are the instance
this system implements (matching the paper's formal model, where all
objects are integers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.lang.ast import (
    ABin,
    AExp,
    ANeg,
    ARead,
    ArrayRef,
    Assign,
    BAnd,
    BCmp,
    BExp,
    BNot,
    BOr,
    Com,
    ForEach,
    GroundRef,
    If,
    ObjRef,
    Print,
    Seq,
    Skip,
    Transaction,
    Write,
)
from repro.logic.terms import parse_ground_name


def delta_base(base: str, site: int) -> str:
    """The delta namespace of a replicated base at one site."""
    return f"{base}__d{site}"


@dataclass
class ReplicationSpec:
    """Which bases are replicated, and across which writer sites.

    ``bases`` maps a scalar object name or an array base to the tuple
    of sites holding write deltas.  ``home`` places the base copy
    (it never changes after initialization, since every write goes to
    a delta); a ``home`` entry for a base that is *not* replicated
    places that plain local array (TPC-C's per-site order counters).
    """

    bases: dict[str, tuple[int, ...]] = field(default_factory=dict)
    home: dict[str, int] = field(default_factory=dict)
    #: object name -> placed site (None: not placed by this spec), so
    #: each distinct name is resolved once; valid because ``bases`` and
    #: ``home`` are fixed once the workload is built
    _placed: dict[str, int | None] = field(
        default_factory=dict, repr=False, compare=False
    )

    def sites_for(self, base: str) -> tuple[int, ...] | None:
        return self.bases.get(base)

    def base_of(self, name: str) -> str:
        parsed = parse_ground_name(name)
        return parsed[0] if parsed else name

    def locate(self, name: str, fallback: int = 0) -> int:
        """Placement for both bases and deltas."""
        try:
            site = self._placed[name]
        except KeyError:
            site = self._placed[name] = self._place(name)
        return fallback if site is None else site

    def _place(self, name: str) -> int | None:
        base = self.base_of(name)
        if "__d" in base:
            origin, _sep, site = base.rpartition("__d")
            if origin in self.bases and site.isdigit():
                return int(site)
        if base in self.bases:
            return self.home.get(base, self.bases[base][0])
        return self.home.get(base)


def _delta_ref(ref: ObjRef, site: int) -> ObjRef:
    if isinstance(ref, GroundRef):
        parsed = parse_ground_name(ref.name)
        if parsed is not None:
            base, indices = parsed
            from repro.logic.terms import ground_name

            return GroundRef(ground_name(delta_base(base, site), indices))
        return GroundRef(delta_base(ref.name, site))
    return ArrayRef(delta_base(ref.base, site), ref.index)


def _ref_base(ref: ObjRef) -> str:
    if isinstance(ref, GroundRef):
        parsed = parse_ground_name(ref.name)
        return parsed[0] if parsed else ref.name
    return ref.base


class _Rewriter:
    def __init__(self, spec: ReplicationSpec, site: int) -> None:
        self.spec = spec
        self.site = site

    # -- expressions --------------------------------------------------------

    def read_sum(self, ref: ObjRef) -> AExp:
        """``read(x) + sum_j read(dx_j)`` for a replicated reference."""
        sites = self.spec.sites_for(_ref_base(ref))
        assert sites is not None
        expr: AExp = ARead(ref)
        for j in sites:
            expr = ABin("+", expr, ARead(_delta_ref(ref, j)))
        return expr

    def aexp(self, expr: AExp) -> AExp:
        if isinstance(expr, ARead):
            ref = self._rewrite_ref_indices(expr.ref)
            if self.spec.sites_for(_ref_base(ref)) is not None:
                return self.read_sum(ref)
            return ARead(ref)
        if isinstance(expr, ABin):
            return ABin(expr.op, self.aexp(expr.left), self.aexp(expr.right))
        if isinstance(expr, ANeg):
            return ANeg(self.aexp(expr.operand))
        return expr

    def _rewrite_ref_indices(self, ref: ObjRef) -> ObjRef:
        if isinstance(ref, ArrayRef):
            return ArrayRef(ref.base, tuple(self.aexp(ix) for ix in ref.index))
        return ref

    def bexp(self, expr: BExp) -> BExp:
        if isinstance(expr, BCmp):
            return BCmp(expr.op, self.aexp(expr.left), self.aexp(expr.right))
        if isinstance(expr, BAnd):
            return BAnd(self.bexp(expr.left), self.bexp(expr.right))
        if isinstance(expr, BOr):
            return BOr(self.bexp(expr.left), self.bexp(expr.right))
        if isinstance(expr, BNot):
            return BNot(self.bexp(expr.operand))
        return expr

    # -- commands -------------------------------------------------------------

    def com(self, node: Com) -> Com:
        if isinstance(node, Skip):
            return node
        if isinstance(node, Assign):
            return Assign(node.temp, self.aexp(node.expr))
        if isinstance(node, Seq):
            return Seq(self.com(node.first), self.com(node.second))
        if isinstance(node, If):
            return If(
                self.bexp(node.cond),
                self.com(node.then_branch),
                self.com(node.else_branch),
            )
        if isinstance(node, Print):
            return Print(self.aexp(node.expr))
        if isinstance(node, ForEach):
            return ForEach(node.var, node.array, self.com(node.body))
        if isinstance(node, Write):
            ref = self._rewrite_ref_indices(node.ref)
            value = self.aexp(node.expr)
            sites = self.spec.sites_for(_ref_base(ref))
            if sites is None:
                return Write(ref, value)
            if self.site not in sites:
                raise ValueError(
                    f"site {self.site} writes replicated base "
                    f"{_ref_base(ref)!r} but holds no delta for it"
                )
            # e' - read(x) - sum_{j != i} read(dx_j)
            adjusted: AExp = ABin("-", value, ARead(ref))
            for j in sites:
                if j != self.site:
                    adjusted = ABin("-", adjusted, ARead(_delta_ref(ref, j)))
            return Write(_delta_ref(ref, self.site), adjusted)
        raise TypeError(f"unknown command node {node!r}")


def transform_for_site(
    tx: Transaction, site: int, spec: ReplicationSpec, rename: bool = True
) -> Transaction:
    """Rewrite a transaction to run at ``site`` with only local writes."""
    body = _Rewriter(spec, site).com(tx.body)
    name = f"{tx.name}@s{site}" if rename else tx.name
    return Transaction(name, tx.params, body, tx.assume_distinct)


def replicate_workload(
    transactions: Iterable[Transaction],
    sites: Sequence[int],
    spec: ReplicationSpec,
) -> dict[str, Transaction]:
    """Per-site variants ``T@s{i}`` of every transaction."""
    out: dict[str, Transaction] = {}
    for tx in transactions:
        for site in sites:
            variant = transform_for_site(tx, site, spec)
            out[variant.name] = variant
    return out


def initial_replicated_db(
    values: Mapping[str, int], spec: ReplicationSpec, sites: Sequence[int]
) -> dict[str, int]:
    """Initial store: base copies carry the values, deltas start at 0.

    Deltas are materialized eagerly so finite-support snapshots list
    them explicitly (readers would default them to 0 anyway).
    """
    out = dict(values)
    from repro.logic.terms import ground_name

    for name, value in values.items():
        parsed = parse_ground_name(name)
        base = parsed[0] if parsed else name
        writer_sites = spec.sites_for(base)
        if writer_sites is None:
            continue
        for site in writer_sites:
            if parsed is not None:
                out[ground_name(delta_base(base, site), parsed[1])] = 0
            else:
                out[delta_base(name, site)] = 0
    return out
