"""Random L++ workloads with linear numeric invariants.

The fixed scenarios exercise the shapes their authors thought of; the
fuzzer's job is to exercise the shapes nobody did.  A
:class:`FuzzSpec` describes a small replicated database (one or two
arrays over two or three sites) and a handful of transaction
families, each drawn from the guard/write shapes the protocol stack
actually distinguishes:

- ``buy`` -- the Listing-1 guarded decrement: coordination rides the
  treaty headroom under the linear guard, and the else branch is
  either ``skip`` (the flash-sale shape) or an absolute refill write
  (the micro shape, whose matched row pins state and forces sync);
- ``transfer`` -- the two-slot guarded move with a ``distinct``
  constraint (the banking shape: a treaty-bearing debit plus a free
  credit in one transaction);
- ``pay`` -- the unconditional increment (TPC-C Payment's shape,
  coordination-free after the Appendix B transform);
- ``probe`` -- the read-only print probe.  Two contracts, selected by
  ``FuzzSpec.pinned_probes``: by default probes are excluded from
  treaty generation (the classifier-FREE class, like the fleet
  workloads' audits) and held to the *snapshot* contract; with
  ``pinned_probes=True`` their ground rows enter treaty generation, so
  the prints pin the replicated slots (Appendix C.3 demarcation) and
  the oracle demands strictly serial logs.

:func:`synthesize_source` turns a family spec into L++ source, so
every generated program goes through the real parser, the real
Appendix B replication transform, and the real treaty generator --
the fuzzer owns no second implementation of any of them.

Everything here is deterministic and dependency-free;
:mod:`repro.fuzz.strategies` layers Hypothesis on top, and
:func:`random_case` mirrors the same distribution on a plain
``random.Random`` for seed-corpus generation and the diversity audit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.symbolic import SymbolicTable
from repro.lang.ast import Transaction
from repro.lang.parser import parse_transaction
from repro.protocol.remote_writes import (
    ReplicationSpec,
    initial_replicated_db,
    replicate_workload,
)
from repro.treaty.optimize import SequenceWorkloadModel
from repro.workloads.common import (
    Grounding,
    ReplicatedWorkloadBase,
    WorkloadSpecError,
    require_nonempty,
    require_positive,
    require_sites,
)

#: guard/write shapes the generator draws from
FAMILY_KINDS = ("buy", "transfer", "pay", "probe")

#: treaty strategies the fuzzer exercises (static split vs the
#: demand-weighted reallocation; 'default' degenerates to distributed
#: locking and still must be serially equivalent)
FUZZ_STRATEGIES = ("equal-split", "demand", "default")

#: arbitration policies a case may attach: a policy name runs a
#: three-acceptor spec (F = 1), None the default spec (F = 0, the
#: coordinator as sole acceptor)
FUZZ_POLICIES = (None, "priority", "credit")


@dataclass(frozen=True)
class ArraySpec:
    """One replicated array: ``num_items`` slots starting at ``initial``."""

    name: str
    num_items: int
    initial: int


@dataclass(frozen=True)
class FamilySpec:
    """One transaction family over one array.

    ``floor`` and ``delta`` parameterize the linear guard: ``buy``
    guards ``t > floor`` and writes ``t - delta``; ``transfer``
    guards ``t >= amount`` with amounts in ``1..delta``; ``pay``
    adds amounts in ``1..delta`` unconditionally.  ``reset`` (buy
    only) selects the else branch: ``None`` is ``skip``, an integer
    is the absolute refill write.
    """

    name: str
    kind: str
    array: str
    floor: int = 0
    delta: int = 1
    reset: int | None = None


@dataclass(frozen=True)
class FuzzSpec:
    """A complete generated workload + protocol configuration."""

    num_sites: int
    arrays: tuple[ArraySpec, ...]
    families: tuple[FamilySpec, ...]
    strategy: str = "equal-split"
    adaptive: bool = False
    negotiation: str | None = None
    #: include probe ground rows in treaty generation, pinning the
    #: printed slots (demarcation: writers pay a sync per conflicting
    #: write, probes earn strictly serial prints)
    pinned_probes: bool = False


@dataclass(frozen=True)
class FuzzRequest:
    """One scheduled submission: family index, site, raw param draws.

    Params are stored as opaque non-negative draws and resolved
    against the family's domains at run time, so a shrunk request
    stays valid whatever the spec shrinks to.
    """

    family: int
    site: int
    draws: tuple[int, ...] = ()


@dataclass(frozen=True)
class FuzzCase:
    """A spec plus the schedule the oracle will replay against it."""

    spec: FuzzSpec
    schedule: tuple[FuzzRequest, ...]


def synthesize_source(family: FamilySpec) -> str:
    """The family as L++ source (parsed by the real parser)."""
    arr = family.array
    if family.kind == "buy":
        if family.reset is None:
            alt = "skip"
        else:
            alt = f"write({arr}(@item) = {family.reset})"
        return f"""
        transaction {family.name}(item) {{
          t := read({arr}(@item));
          if t > {family.floor} then {{ write({arr}(@item) = t - {family.delta}) }}
          else {{ {alt} }}
        }}"""
    if family.kind == "transfer":
        return f"""
        transaction {family.name}(src, dst, amount) distinct(src, dst) {{
          t := read({arr}(@src));
          if t >= @amount then {{
            write({arr}(@src) = t - @amount);
            u := read({arr}(@dst));
            write({arr}(@dst) = u + @amount)
          }} else {{ skip }}
        }}"""
    if family.kind == "pay":
        return f"""
        transaction {family.name}(item, amount) {{
          t := read({arr}(@item));
          write({arr}(@item) = t + @amount)
        }}"""
    if family.kind == "probe":
        return f"""
        transaction {family.name}(item) {{
          t := read({arr}(@item));
          print(t)
        }}"""
    raise WorkloadSpecError(f"unknown family kind {family.kind!r}")


@dataclass
class FuzzWorkload(ReplicatedWorkloadBase):
    """A :class:`FuzzSpec` built into the standard workload spine.

    The same ``build_homeostasis`` path as the
    hand-written workloads, so a fuzzed cluster is indistinguishable
    from a scenario cluster to the kernel.
    """

    fuzz: FuzzSpec = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        spec = self.fuzz
        if spec is None:
            raise WorkloadSpecError("FuzzWorkload requires a FuzzSpec")
        require_sites("num_sites", spec.num_sites, floor=2)
        require_nonempty("arrays", spec.arrays)
        require_nonempty("families", spec.families)
        arrays = {a.name: a for a in spec.arrays}
        if len(arrays) != len(spec.arrays):
            raise WorkloadSpecError("array names must be unique")
        for a in spec.arrays:
            require_positive(f"array {a.name} num_items", a.num_items)
            if a.initial < 0:
                raise WorkloadSpecError(
                    f"array {a.name} initial must be >= 0, got {a.initial!r}"
                )
        names = [f.name for f in spec.families]
        if len(set(names)) != len(names):
            raise WorkloadSpecError("family names must be unique")
        for f in spec.families:
            if f.kind not in FAMILY_KINDS:
                raise WorkloadSpecError(
                    f"family {f.name} kind must be one of {FAMILY_KINDS}, "
                    f"got {f.kind!r}"
                )
            if f.array not in arrays:
                raise WorkloadSpecError(
                    f"family {f.name} references unknown array {f.array!r}"
                )
            require_positive(f"family {f.name} delta", f.delta)
            if f.kind == "transfer" and arrays[f.array].num_items < 2:
                raise WorkloadSpecError(
                    f"family {f.name} transfers on array {f.array!r} "
                    f"with fewer than 2 items (distinct src/dst impossible)"
                )

        self.sites = tuple(range(spec.num_sites))
        self.spec = ReplicationSpec(
            bases={a.name: self.sites for a in spec.arrays},
            home={a.name: 0 for a in spec.arrays},
        )
        self.family_txs = {
            f.name: parse_transaction(synthesize_source(f))
            for f in spec.families
        }
        self.variants = replicate_workload(
            list(self.family_txs.values()), self.sites, self.spec
        )
        self.tx_home = {
            name: int(name.rsplit("@s", 1)[1]) for name in self.variants
        }
        self.initial_values = {
            f"{a.name}[{i}]": a.initial
            for a in spec.arrays
            for i in range(a.num_items)
        }
        self.initial_db = initial_replicated_db(
            self.initial_values, self.spec, self.sites
        )
        self._arrays = arrays
        self._by_name = {f.name: f for f in spec.families}

    # -- analysis products ---------------------------------------------------

    def _domains(self, family: FamilySpec) -> dict[str, list[int]]:
        items = list(range(self._arrays[family.array].num_items))
        if family.kind == "transfer":
            return {
                "src": items,
                "dst": items,
                "amount": list(range(1, family.delta + 1)),
            }
        if family.kind == "pay":
            return {"item": items, "amount": list(range(1, family.delta + 1))}
        return {"item": items}

    def ground_families(self, tables: Mapping[str, SymbolicTable]) -> list[Grounding]:
        out: list[Grounding] = []
        for name, tx in self.variants.items():
            base = name.rsplit("@s", 1)[0]
            family = self._by_name[base]
            if family.kind == "probe" and not self.fuzz.pinned_probes:
                # The classifier-FREE class: excluded from treaty
                # generation like every fleet probe, but present in
                # the schedule so the oracle checks its print log
                # against the snapshot contract.  With pinned_probes
                # the row stays in: its print pins the slot and the
                # oracle demands strictly serial logs.
                continue
            domains = self._domains(family)
            out.append((tx, {p: domains[p] for p in tx.params}, self.tx_home[name]))
        return out

    def workload_model(self) -> SequenceWorkloadModel:
        def sample_params(rng: random.Random, name: str) -> dict[str, int]:
            family = self._by_name[name.rsplit("@s", 1)[0]]
            domains = self._domains(family)
            params = {p: rng.choice(vals) for p, vals in domains.items()}
            if family.kind == "transfer" and params["src"] == params["dst"]:
                items = domains["src"]
                params["dst"] = items[(items.index(params["src"]) + 1) % len(items)]
            return params

        mix = {name: 1.0 for name in self.variants}
        return SequenceWorkloadModel(mix=mix, param_sampler=sample_params)

    def baseline_transactions(self) -> dict[str, Transaction]:
        out: dict[str, Transaction] = {}
        for s in self.sites:
            for name, tx in self.family_txs.items():
                out[f"{name}@s{s}"] = tx
        return out

    # -- schedule resolution -------------------------------------------------

    def resolve(self, request: FuzzRequest) -> tuple[str, dict[str, int]]:
        """A :class:`FuzzRequest`'s concrete transaction + params.

        Draws index into the family's domains modulo their size, so
        any tuple of non-negative integers resolves to a valid
        submission (shrinking the draws toward zero stays in-domain).
        """
        families = self.fuzz.families
        family = families[request.family % len(families)]
        site = request.site % self.fuzz.num_sites
        domains = self._domains(family)
        params: dict[str, int] = {}
        for i, (p, vals) in enumerate(sorted(domains.items())):
            draw = request.draws[i] if i < len(request.draws) else 0
            params[p] = vals[draw % len(vals)]
        if family.kind == "transfer" and params["src"] == params["dst"]:
            items = domains["src"]
            params["dst"] = items[(items.index(params["src"]) + 1) % len(items)]
        return f"{family.name}@s{site}", params


def random_case(rng: random.Random) -> FuzzCase:
    """One case from a plain RNG, mirroring the Hypothesis strategy.

    Used to mint the committed seed corpus and by the diversity audit
    (distinct fingerprints over a seed sweep); the Hypothesis strategy
    in :mod:`repro.fuzz.strategies` draws from the same space with
    shrinking on top.
    """
    num_sites = rng.randint(2, 3)
    arrays = tuple(
        ArraySpec(
            name=f"a{i}",
            num_items=rng.randint(2, 4),
            initial=rng.randint(4, 16),
        )
        for i in range(rng.randint(1, 2))
    )
    families = []
    for i in range(rng.randint(1, 3)):
        kind = rng.choice(FAMILY_KINDS)
        array = rng.choice(arrays)
        floor = rng.randint(0, 3)
        delta = rng.randint(1, 2)
        reset = None
        if kind == "buy" and rng.random() < 0.5:
            reset = floor + delta + rng.randint(0, 6)
        families.append(
            FamilySpec(
                name=f"T{i}",
                kind=kind,
                array=array.name,
                floor=floor,
                delta=delta,
                reset=reset,
            )
        )
    spec = FuzzSpec(
        num_sites=num_sites,
        arrays=arrays,
        families=tuple(families),
        strategy=rng.choice(FUZZ_STRATEGIES),
        adaptive=rng.random() < 0.3,
        negotiation=rng.choice(FUZZ_POLICIES),
        pinned_probes=rng.random() < 0.25,
    )
    schedule = tuple(
        FuzzRequest(
            family=rng.randrange(len(families)),
            site=rng.randrange(num_sites),
            draws=tuple(rng.randrange(8) for _ in range(3)),
        )
        for _ in range(rng.randint(30, 80))
    )
    return FuzzCase(spec=spec, schedule=schedule)
