"""Flash-sale / ticketing: one hot SKU, a stock treaty near zero.

The paper's sweet spot is high-skew contention on a numeric
invariant, and nothing produces it like a flash sale: one SKU takes
almost all of the traffic, the non-oversell invariant ``stock >= 0``
is the treaty, and as the sale drains the stock the treaty's slack --
the quantity the protocol splits between sites -- collapses toward
zero.  Every site's split rounds down to almost nothing, violations
come on every other checkout, and the demand-driven reallocation of
PR 4 either shines (slack follows the hot site) or breaks (rebalance
rounds thrash).  Bailis et al. (VLDB'15) make the same regime the
stress case for invariant-confluent coordination avoidance.

Three transaction families over a replicated ``stock`` array:

- ``Checkout(item)`` -- the guarded decrement.  Sold out means
  ``skip``: the sale never oversells, so ``stock >= 0`` is exactly
  the H2 region the treaty maintains.
- ``Restock(item, amount)`` -- an unconditional increment (the
  merchant drip-feeds inventory to keep the sale alive).  After the
  Appendix B transform it is a pure local delta: coordination-free,
  like TPC-C's Payment.
- ``Peek(item)`` -- a read-only stock probe (the classifier-FREE
  traffic class; excluded from treaty generation exactly like the
  micro workload's ``Audit``).

``hot_fraction`` of checkouts hit SKU 0; the remainder spread
uniformly over the cold catalog.
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

#: restock amounts the merchant drip-feeds (kept small so the treaty
#: slack never balloons away from the near-zero regime)
RESTOCK_AMOUNTS = (1, 2, 3, 4)

CHECKOUT_SRC = """
transaction Checkout(item) {
  s := read(stock(@item));
  if s > 0 then { write(stock(@item) = s - 1) } else { skip }
}
"""

RESTOCK_SRC = """
transaction Restock(item, amount) {
  s := read(stock(@item));
  write(stock(@item) = s + @amount)
}
"""

PEEK_SRC = """
transaction Peek(item) {
  s := read(stock(@item));
  print(s)
}
"""


@dataclass
class FlashSaleWorkload(ReplicatedWorkloadBase):
    """Builder for the flash-sale workload across execution modes."""

    num_skus: int = 8
    #: opening stock of the hot SKU (the sale's whole inventory)
    hot_stock: int = 40
    #: opening stock of every cold SKU
    cold_stock: int = 50
    num_sites: int = 2
    #: fraction of checkouts aimed at SKU 0
    hot_fraction: float = 0.9
    #: fraction of all requests that are merchant restocks
    restock_fraction: float = 0.05
    #: fraction of all requests that are read-only Peek probes
    peek_fraction: float = 0.0
    #: relative request weight per site (uniform by default)
    site_weights: dict[int, float] = field(default_factory=dict)
    init_seed: int = 1

    def __post_init__(self) -> None:
        require_sites("num_sites", self.num_sites, floor=2)
        require_positive("num_skus", self.num_skus)
        require_positive("hot_stock", self.hot_stock)
        if self.cold_stock < 0:
            raise WorkloadSpecError(
                f"cold_stock must be >= 0, got {self.cold_stock!r}"
            )
        require_fraction("hot_fraction", self.hot_fraction)
        require_fraction("restock_fraction", self.restock_fraction)
        require_fraction("peek_fraction", self.peek_fraction)
        if self.restock_fraction + self.peek_fraction > 1.0:
            raise WorkloadSpecError(
                "restock_fraction + peek_fraction must leave room for "
                f"checkouts, got {self.restock_fraction + self.peek_fraction!r}"
            )
        self.sites = tuple(range(self.num_sites))
        if not self.site_weights:
            self.site_weights = {s: 1.0 for s in self.sites}
        elif set(self.site_weights) != set(self.sites):
            raise WorkloadSpecError(
                f"site_weights keys {sorted(self.site_weights)} must match "
                f"sites {list(self.sites)}"
            )

        self.checkout = parse_transaction(CHECKOUT_SRC)
        self.restock = parse_transaction(RESTOCK_SRC)
        self.peek = parse_transaction(PEEK_SRC)
        families = [self.checkout, self.restock]
        if self.peek_fraction > 0.0:
            families.append(self.peek)
        self.spec = ReplicationSpec(
            bases={"stock": self.sites}, home={"stock": 0}
        )
        self.variants = replicate_workload(families, self.sites, self.spec)
        self.tx_home = {
            name: int(name.rsplit("@s", 1)[1]) for name in self.variants
        }
        self.initial_values = {
            f"stock[{i}]": self.hot_stock if i == 0 else self.cold_stock
            for i in range(self.num_skus)
        }
        self.initial_db = initial_replicated_db(
            self.initial_values, self.spec, self.sites
        )

    # -- analysis products ---------------------------------------------------

    def ground_families(self, tables: Mapping[str, SymbolicTable]) -> list[Grounding]:
        domains = {
            "item": list(range(self.num_skus)),
            "amount": list(RESTOCK_AMOUNTS),
        }
        # Peek is left out: a read-only probe whose grounding would
        # only contribute print pins on every stock slot -- the
        # coordination the classifier proves it does not need.
        return [
            (tx, {p: domains[p] for p in tx.params}, self.tx_home[name])
            for name, tx in self.variants.items()
            if not name.startswith("Peek@")
        ]

    def workload_model(self) -> SequenceWorkloadModel:
        def sample_params(rng: random.Random, name: str) -> dict[str, int]:
            item = self._sample_sku(rng)
            if name.startswith("Restock@"):
                return {"item": item, "amount": rng.choice(RESTOCK_AMOUNTS)}
            return {"item": item}

        mix: dict[str, float] = {}
        checkout_share = 1.0 - self.restock_fraction - self.peek_fraction
        for name in self.variants:
            weight = self.site_weights[self.tx_home[name]]
            if name.startswith("Restock@"):
                weight *= self.restock_fraction
            elif name.startswith("Peek@"):
                weight *= self.peek_fraction
            else:
                weight *= checkout_share
            mix[name] = weight
        return SequenceWorkloadModel(mix=mix, param_sampler=sample_params)

    # -- request generation --------------------------------------------------

    def _sample_sku(self, rng: random.Random) -> int:
        if self.num_skus == 1 or rng.random() < self.hot_fraction:
            return 0
        return rng.randrange(1, self.num_skus)

    def next_request(
        self, rng: random.Random, site: int | None = None
    ) -> WorkloadRequest:
        if site is None:
            weights = [self.site_weights[s] for s in self.sites]
            site = rng.choices(self.sites, weights=weights, k=1)[0]
        draw = rng.random()
        if draw < self.restock_fraction:
            item = self._sample_sku(rng)
            amount = rng.choice(RESTOCK_AMOUNTS)
            return WorkloadRequest(
                f"Restock@s{site}",
                "Restock",
                {"item": item, "amount": amount},
                site,
                (item,),
            )
        if draw < self.restock_fraction + self.peek_fraction:
            item = self._sample_sku(rng)
            return WorkloadRequest(
                f"Peek@s{site}", "Peek", {"item": item}, site, (item,)
            )
        item = self._sample_sku(rng)
        return WorkloadRequest(
            f"Checkout@s{site}", "Checkout", {"item": item}, site, (item,)
        )

    # -- baselines -----------------------------------------------------------

    def baseline_transactions(self) -> dict[str, Transaction]:
        out: dict[str, Transaction] = {}
        for s in self.sites:
            out[f"Checkout@s{s}"] = self.checkout
            out[f"Restock@s{s}"] = self.restock
            if self.peek_fraction > 0.0:
                out[f"Peek@s{s}"] = self.peek
        return out

    # -- audits --------------------------------------------------------------

    def stock_levels(self, state: dict[str, int]) -> dict[int, int]:
        """Logical per-SKU stock from a cluster's global state (base
        copy plus every site's delta)."""
        from repro.protocol.remote_writes import delta_base

        out: dict[int, int] = {}
        for i in range(self.num_skus):
            total = state.get(f"stock[{i}]", 0)
            for s in self.sites:
                total += state.get(f"{delta_base('stock', s)}[{i}]", 0)
            out[i] = total
        return out
