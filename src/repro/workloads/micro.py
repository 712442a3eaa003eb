"""The Section 6.1 microbenchmark.

Listing 1 of the paper, over a replicated ``Stock(itemid INT, qty
INT)`` table:

    SELECT qty FROM stock WHERE itemid=@itemid;
    if (qty > 1) then new_qty = qty - 1 else new_qty = REFILL - 1
    UPDATE stock SET qty=new_qty WHERE itemid=@itemid;

In L++ the quantity column is the parameterized array ``qty`` and the
transaction is ``Buy(item)``.  The workload is replicated across
``Nr`` sites via the Appendix B transform, after which the decrement
path writes only the local delta (never synchronizes until its treaty
budget is exhausted) and the refill path performs remote reads (its
matched row pins state, forcing synchronization -- as the demarcation
comparison in Section 6.1 expects).

``MultiBuy`` is the Appendix F.1 variant ordering ``m`` distinct
items per transaction (Figure 27).
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
    WorkloadRequest,
    WorkloadSpecError,
    require_fraction,
    require_positive,
    require_sites,
)


def buy_source(refill: int) -> str:
    """L++ source of the Listing 1 transaction."""
    return f"""
    transaction Buy(item) {{
      q := read(qty(@item));
      if q > 1 then {{ write(qty(@item) = q - 1) }}
      else {{ write(qty(@item) = {refill} - 1) }}
    }}"""


def audit_source() -> str:
    """L++ source of a read-only stock probe.

    Reads one item's (replicated) quantity and reports it: the
    coordination-freedom classifier proves every path of it FREE, so
    it rides the mixed-OLTP micro scenario as the class of traffic
    that should never pay a treaty check."""
    return """
    transaction Audit(item) {
      q := read(qty(@item));
      print(q)
    }"""


def multibuy_source(refill: int, m: int) -> str:
    """L++ source of the m-item variant (Appendix F.1 / Figure 27)."""
    params = ", ".join(f"item{k}" for k in range(m))
    body = "\n".join(
        f"""
      q{k} := read(qty(@item{k}));
      if q{k} > 1 then {{ write(qty(@item{k}) = q{k} - 1) }}
      else {{ write(qty(@item{k}) = {refill} - 1) }}"""
        for k in range(m)
    )
    distinct = f" distinct({params})" if m > 1 else ""
    return f"transaction MultiBuy({params}){distinct} {{{body}\n}}"


@dataclass
class MicroWorkload(ReplicatedWorkloadBase):
    """Builder for the microbenchmark across execution modes."""

    default_strategy = "optimized"

    num_items: int = 100
    refill: int = 100
    num_sites: int = 2
    items_per_txn: int = 1
    #: relative request weight per site (uniform by default)
    site_weights: dict[int, float] = field(default_factory=dict)
    #: 'refill' starts every item full; 'random' draws uniform stock
    #: levels so measurements start at steady state
    initial_qty: str = "refill"
    init_seed: int = 1
    #: fraction of requests that are read-only ``Audit`` probes (the
    #: classifier-FREE traffic class); 0 keeps the pure Listing 1 mix
    #: and registers no Audit procedures at all
    audit_fraction: float = 0.0

    def __post_init__(self) -> None:
        require_sites("num_sites", self.num_sites, floor=2)
        require_positive("num_items", self.num_items)
        require_positive("refill", self.refill)
        require_positive("items_per_txn", self.items_per_txn)
        require_fraction("audit_fraction", self.audit_fraction)
        if self.items_per_txn > self.num_items:
            raise WorkloadSpecError(
                f"items_per_txn={self.items_per_txn!r} cannot exceed "
                f"num_items={self.num_items!r} (MultiBuy orders distinct items)"
            )
        if self.initial_qty not in ("refill", "random"):
            raise WorkloadSpecError(
                f"initial_qty must be 'refill' or 'random', got "
                f"{self.initial_qty!r}"
            )
        self.sites = tuple(range(self.num_sites))
        if not self.site_weights:
            self.site_weights = {s: 1.0 for s in self.sites}
        elif set(self.site_weights) != set(self.sites):
            raise WorkloadSpecError(
                f"site_weights keys {sorted(self.site_weights)} must match "
                f"sites {list(self.sites)}"
            )
        if self.items_per_txn == 1:
            self.family = parse_transaction(buy_source(self.refill))
        else:
            self.family = parse_transaction(
                multibuy_source(self.refill, self.items_per_txn)
            )
        self.audit_family: Transaction | None = None
        families = [self.family]
        if self.audit_fraction > 0.0:
            self.audit_family = parse_transaction(audit_source())
            families.append(self.audit_family)
        self.spec = ReplicationSpec(bases={"qty": self.sites}, home={"qty": 0})
        self.variants = replicate_workload(families, self.sites, self.spec)
        self.tx_home = {
            name: int(name.rsplit("@s", 1)[1]) for name in self.variants
        }
        if self.initial_qty == "random":
            init_rng = random.Random(self.init_seed)
            self.initial_values = {
                f"qty[{i}]": init_rng.randint(2, self.refill)
                for i in range(self.num_items)
            }
        else:
            self.initial_values = {
                f"qty[{i}]": self.refill for i in range(self.num_items)
            }
        self.initial_db = initial_replicated_db(
            self.initial_values, self.spec, self.sites
        )

    # -- analysis products ----------------------------------------------------

    def ground_families(self, tables: Mapping[str, SymbolicTable]) -> list[Grounding]:
        """The Buy family of every site, over the item domain.

        For the multi-item variant the ground basis is the *per-item
        projection*: a ``MultiBuy(i1..im)`` instance with distinct
        items touches each item exactly like a single-item ``Buy``
        does, and its joint guard is the conjunction of the per-item
        guards, so grounding the single-item family over the item
        domain yields the identical treaty at cost ``O(items)``
        instead of ``O(items^m)``.
        """
        basis_family = (
            self.family
            if self.items_per_txn == 1
            else parse_transaction(buy_source(self.refill))
        )
        basis_variants = (
            self.variants
            if self.items_per_txn == 1
            else replicate_workload([basis_family], self.sites, self.spec)
        )
        domains = {"item": list(range(self.num_items))}
        # Audit is left out: its single true-guard row would only
        # contribute Appendix C.3 print pins on every quantity --
        # exactly the coordination the classifier proves it does not
        # need.
        return [
            (tx, domains, int(name.rsplit("@s", 1)[1]))
            for name, tx in basis_variants.items()
            if not name.startswith("Audit@")
        ]

    # -- cluster builders ---------------------------------------------------------

    def workload_model(self) -> SequenceWorkloadModel:
        def sample_params(rng: random.Random, name: str) -> dict[str, int]:
            if self.items_per_txn == 1 or name.startswith("Audit@"):
                return {"item": rng.randrange(self.num_items)}
            items = rng.sample(range(self.num_items), self.items_per_txn)
            return {f"item{k}": it for k, it in enumerate(items)}

        mix: dict[str, float] = {}
        for name in self.variants:
            weight = self.site_weights[self.tx_home[name]]
            if self.audit_family is not None:
                share = (
                    self.audit_fraction
                    if name.startswith("Audit@")
                    else 1.0 - self.audit_fraction
                )
                weight *= share
            mix[name] = weight
        return SequenceWorkloadModel(mix=mix, param_sampler=sample_params)

    def baseline_transactions(self) -> dict[str, Transaction]:
        family_name = "Buy" if self.items_per_txn == 1 else "MultiBuy"
        out = {f"{family_name}@s{s}": self.family for s in self.sites}
        if self.audit_family is not None:
            out.update({f"Audit@s{s}": self.audit_family for s in self.sites})
        return out

    # -- request generation -----------------------------------------------------------

    def next_request(
        self, rng: random.Random, site: int | None = None
    ) -> WorkloadRequest:
        if site is None:
            weights = [self.site_weights[s] for s in self.sites]
            site = rng.choices(self.sites, weights=weights, k=1)[0]
        if self.audit_family is not None and rng.random() < self.audit_fraction:
            item = rng.randrange(self.num_items)
            return WorkloadRequest(
                f"Audit@s{site}", "Audit", {"item": item}, site, (item,)
            )
        if self.items_per_txn == 1:
            item = rng.randrange(self.num_items)
            return WorkloadRequest(
                f"Buy@s{site}", "Buy", {"item": item}, site, (item,)
            )
        items = tuple(rng.sample(range(self.num_items), self.items_per_txn))
        params = {f"item{k}": it for k, it in enumerate(items)}
        return WorkloadRequest(f"MultiBuy@s{site}", "MultiBuy", params, site, items)
