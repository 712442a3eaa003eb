"""Multi-tenant API rate limiter: many small independent treaties.

Where the flash sale concentrates all contention on one slot, the
quota workload shatters it: every tenant owns a private ``used``
counter with a private invariant ``used <= limit``, so the treaty
table holds one small treaty per tenant and each site's escrow account
one counter row per tenant clause.  Scaling the tenant count is
therefore a direct stress test of the treaty *table* and the escrow
*index* -- the per-commit metadata path -- rather than of headroom
arithmetic on a single hot counter.

One family does the work, in the same two-path shape as the micro
workload's Listing-1 ``Buy``:

- ``Hit(tenant)`` -- under the limit, count the request (a guarded
  increment riding treaty headroom, coordination-free until the
  tenant's split is spent); at the limit, roll the window over by
  resetting the counter to zero (an absolute write whose matched row
  pins state and synchronizes -- the demarcation comparison's sync
  class).
- ``Usage(tenant)`` -- a read-only usage probe (classifier-FREE,
  excluded from treaty generation like the other fleet probes).

``overruns`` is the correctness audit: no interleaving may push any
tenant's logical counter past its limit.
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
    delta_base,
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


def hit_source(limit: int) -> str:
    """L++ source of the rate-limit transaction for a window ``limit``."""
    return f"""
    transaction Hit(tenant) {{
      u := read(used(@tenant));
      if u < {limit} then {{ write(used(@tenant) = u + 1) }}
      else {{ write(used(@tenant) = 0) }}
    }}"""


USAGE_SRC = """
transaction Usage(tenant) {
  u := read(used(@tenant));
  print(u)
}
"""


@dataclass
class QuotaWorkload(ReplicatedWorkloadBase):
    """Builder for the rate-limiter workload across execution modes."""

    num_tenants: int = 12
    num_sites: int = 2
    #: per-window request budget of every tenant
    limit: int = 10
    #: fraction of all requests that are read-only usage probes
    usage_fraction: float = 0.0
    #: Zipf-ish skew: fraction of hits aimed at tenant 0
    hot_fraction: float = 0.0
    site_weights: dict[int, float] = field(default_factory=dict)
    init_seed: int = 1

    def __post_init__(self) -> None:
        require_sites("num_sites", self.num_sites, floor=2)
        require_positive("num_tenants", self.num_tenants)
        require_positive("limit", self.limit)
        require_fraction("usage_fraction", self.usage_fraction)
        require_fraction("hot_fraction", self.hot_fraction)
        if self.usage_fraction >= 1.0:
            raise WorkloadSpecError(
                "usage_fraction must leave room for Hit traffic, "
                f"got {self.usage_fraction!r}"
            )
        self.sites = tuple(range(self.num_sites))
        if not self.site_weights:
            self.site_weights = {s: 1.0 for s in self.sites}
        elif set(self.site_weights) != set(self.sites):
            raise WorkloadSpecError(
                f"site_weights keys {sorted(self.site_weights)} must match "
                f"sites {list(self.sites)}"
            )

        self.hit = parse_transaction(hit_source(self.limit))
        self.usage = parse_transaction(USAGE_SRC)
        families = [self.hit]
        if self.usage_fraction > 0.0:
            families.append(self.usage)
        self.spec = ReplicationSpec(
            bases={"used": self.sites}, home={"used": 0}
        )
        self.variants = replicate_workload(families, self.sites, self.spec)
        self.tx_home = {
            name: int(name.rsplit("@s", 1)[1]) for name in self.variants
        }
        self.initial_values = {
            f"used[{t}]": 0 for t in range(self.num_tenants)
        }
        self.initial_db = initial_replicated_db(
            self.initial_values, self.spec, self.sites
        )

    # -- analysis products ---------------------------------------------------

    def ground_families(self, tables: Mapping[str, SymbolicTable]) -> list[Grounding]:
        domains = {"tenant": list(range(self.num_tenants))}
        # Usage is left out: a read-only probe excluded from treaty
        # generation so its print pins never force coordination the
        # classifier proves unnecessary.
        return [
            (tx, {p: domains[p] for p in tx.params}, self.tx_home[name])
            for name, tx in self.variants.items()
            if not name.startswith("Usage@")
        ]

    def workload_model(self) -> SequenceWorkloadModel:
        def sample_params(rng: random.Random, name: str) -> dict[str, int]:
            return {"tenant": self._sample_tenant(rng)}

        mix: dict[str, float] = {}
        hit_share = 1.0 - self.usage_fraction
        for name in self.variants:
            weight = self.site_weights[self.tx_home[name]]
            if name.startswith("Usage@"):
                weight *= self.usage_fraction
            else:
                weight *= hit_share
            mix[name] = weight
        return SequenceWorkloadModel(mix=mix, param_sampler=sample_params)

    # -- request generation --------------------------------------------------

    def _sample_tenant(self, rng: random.Random) -> int:
        if self.num_tenants == 1:
            return 0
        if self.hot_fraction > 0.0 and rng.random() < self.hot_fraction:
            return 0
        return rng.randrange(self.num_tenants)

    def next_request(
        self, rng: random.Random, site: int | None = None
    ) -> WorkloadRequest:
        if site is None:
            weights = [self.site_weights[s] for s in self.sites]
            site = rng.choices(self.sites, weights=weights, k=1)[0]
        tenant = self._sample_tenant(rng)
        if rng.random() < self.usage_fraction:
            return WorkloadRequest(
                f"Usage@s{site}", "Usage", {"tenant": tenant}, site, (tenant,)
            )
        return WorkloadRequest(
            f"Hit@s{site}", "Hit", {"tenant": tenant}, site, (tenant,)
        )

    # -- baselines -----------------------------------------------------------

    def baseline_transactions(self) -> dict[str, Transaction]:
        out: dict[str, Transaction] = {}
        for s in self.sites:
            out[f"Hit@s{s}"] = self.hit
            if self.usage_fraction > 0.0:
                out[f"Usage@s{s}"] = self.usage
        return out

    # -- audits --------------------------------------------------------------

    def usage_levels(self, state: dict[str, int]) -> dict[int, int]:
        """Logical per-tenant counter from a cluster's global state
        (base copy plus every site's delta)."""
        out: dict[int, int] = {}
        for t in range(self.num_tenants):
            total = state.get(f"used[{t}]", 0)
            for s in self.sites:
                total += state.get(f"{delta_base('used', s)}[{t}]", 0)
            out[t] = total
        return out

    def overruns(self, state: dict[str, int]) -> list[str]:
        """The rate-limit audit: no tenant counter may escape
        ``0 <= used <= limit`` under any interleaving."""
        problems: list[str] = []
        for tenant, used in self.usage_levels(state).items():
            if not 0 <= used <= self.limit:
                problems.append(
                    f"used[{tenant}] = {used} outside [0, {self.limit}]"
                )
        return problems
