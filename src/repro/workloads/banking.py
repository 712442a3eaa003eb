"""Banking: cross-site transfers under non-negative balances.

The canonical coordination-avoidance case study (Soethout et al.'s
ING account transfers; Bailis et al.'s invariant-confluent balance
checks): money moves between accounts whose replicas live on
different sites, and the one invariant that must survive replication
is ``balance >= 0`` on every account.

A transfer is the interesting shape: *two* array slots touched in one
transaction, a guarded decrement on the source and an unconditional
credit to the destination.  After the Appendix B transform the debit
is the treaty-bearing write (the guard ``b >= amount`` becomes the
headroom the protocol splits across sites) while the credit is a free
local delta -- one transaction straddling both halves of the
classifier's verdict space.

Families over a replicated ``balance`` array:

- ``Transfer(src, dst, amount) distinct(src, dst)`` -- guarded move;
  insufficient funds means ``skip`` (the transfer bounces, the
  invariant holds).
- ``Deposit(acct, amount)`` -- unconditional credit
  (coordination-free after the transform, like TPC-C's Payment).
- ``Audit(acct)`` -- read-only balance probe (classifier-FREE;
  excluded from treaty generation like the micro workload's Audit).

``conservation(state, deposited)`` is the money-supply audit: no
execution mode may mint or burn money beyond the committed deposits.
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

#: transfer / deposit amounts (small, so treaty headroom stays tight)
AMOUNTS = (1, 2, 3)

TRANSFER_SRC = """
transaction Transfer(src, dst, amount) distinct(src, dst) {
  b := read(balance(@src));
  if b >= @amount then {
    write(balance(@src) = b - @amount);
    d := read(balance(@dst));
    write(balance(@dst) = d + @amount)
  } else { skip }
}
"""

DEPOSIT_SRC = """
transaction Deposit(acct, amount) {
  b := read(balance(@acct));
  write(balance(@acct) = b + @amount)
}
"""

AUDIT_SRC = """
transaction Audit(acct) {
  b := read(balance(@acct));
  print(b)
}
"""


@dataclass
class BankingWorkload(ReplicatedWorkloadBase):
    """Builder for the banking workload across execution modes."""

    num_accounts: int = 6
    num_sites: int = 2
    #: opening balance of every account
    initial_balance: int = 20
    #: fraction of all requests that are deposits
    deposit_fraction: float = 0.1
    #: fraction of all requests that are read-only audits
    audit_fraction: float = 0.0
    #: Zipf-ish skew: fraction of transfers debiting account 0
    hot_fraction: float = 0.0
    site_weights: dict[int, float] = field(default_factory=dict)
    init_seed: int = 1

    def __post_init__(self) -> None:
        require_sites("num_sites", self.num_sites, floor=2)
        if self.num_accounts < 2:
            raise WorkloadSpecError(
                "num_accounts must be >= 2 (a transfer needs distinct "
                f"src/dst), got {self.num_accounts!r}"
            )
        require_positive("initial_balance", self.initial_balance)
        require_fraction("deposit_fraction", self.deposit_fraction)
        require_fraction("audit_fraction", self.audit_fraction)
        require_fraction("hot_fraction", self.hot_fraction)
        if self.deposit_fraction + self.audit_fraction > 1.0:
            raise WorkloadSpecError(
                "deposit_fraction + audit_fraction must leave room for "
                f"transfers, got {self.deposit_fraction + self.audit_fraction!r}"
            )
        self.sites = tuple(range(self.num_sites))
        if not self.site_weights:
            self.site_weights = {s: 1.0 for s in self.sites}
        elif set(self.site_weights) != set(self.sites):
            raise WorkloadSpecError(
                f"site_weights keys {sorted(self.site_weights)} must match "
                f"sites {list(self.sites)}"
            )

        self.transfer = parse_transaction(TRANSFER_SRC)
        self.deposit = parse_transaction(DEPOSIT_SRC)
        self.audit = parse_transaction(AUDIT_SRC)
        families = [self.transfer, self.deposit]
        if self.audit_fraction > 0.0:
            families.append(self.audit)
        self.spec = ReplicationSpec(
            bases={"balance": self.sites}, home={"balance": 0}
        )
        self.variants = replicate_workload(families, self.sites, self.spec)
        self.tx_home = {
            name: int(name.rsplit("@s", 1)[1]) for name in self.variants
        }
        self.initial_values = {
            f"balance[{a}]": self.initial_balance
            for a in range(self.num_accounts)
        }
        self.initial_db = initial_replicated_db(
            self.initial_values, self.spec, self.sites
        )

    # -- analysis products ---------------------------------------------------

    def ground_families(self, tables: Mapping[str, SymbolicTable]) -> list[Grounding]:
        domains = {
            "src": list(range(self.num_accounts)),
            "dst": list(range(self.num_accounts)),
            "acct": list(range(self.num_accounts)),
            "amount": list(AMOUNTS),
        }
        # Audit is left out: a read-only probe whose print pins every
        # balance slot, which is exactly the coordination the
        # classifier proves it does not need.  Same exclusion as
        # micro's Audit.
        return [
            (tx, {p: domains[p] for p in tx.params}, self.tx_home[name])
            for name, tx in self.variants.items()
            if not name.startswith("Audit@")
        ]

    def workload_model(self) -> SequenceWorkloadModel:
        def sample_params(rng: random.Random, name: str) -> dict[str, int]:
            if name.startswith("Transfer@"):
                src, dst = self._sample_pair(rng)
                return {"src": src, "dst": dst, "amount": rng.choice(AMOUNTS)}
            if name.startswith("Deposit@"):
                return {
                    "acct": rng.randrange(self.num_accounts),
                    "amount": rng.choice(AMOUNTS),
                }
            return {"acct": rng.randrange(self.num_accounts)}

        mix: dict[str, float] = {}
        transfer_share = 1.0 - self.deposit_fraction - self.audit_fraction
        for name in self.variants:
            weight = self.site_weights[self.tx_home[name]]
            if name.startswith("Deposit@"):
                weight *= self.deposit_fraction
            elif name.startswith("Audit@"):
                weight *= self.audit_fraction
            else:
                weight *= transfer_share
            mix[name] = weight
        return SequenceWorkloadModel(mix=mix, param_sampler=sample_params)

    # -- request generation --------------------------------------------------

    def _sample_pair(self, rng: random.Random) -> tuple[int, int]:
        if self.hot_fraction > 0.0 and rng.random() < self.hot_fraction:
            src = 0
        else:
            src = rng.randrange(self.num_accounts)
        dst = rng.randrange(self.num_accounts - 1)
        if dst >= src:
            dst += 1
        return src, dst

    def next_request(
        self, rng: random.Random, site: int | None = None
    ) -> WorkloadRequest:
        if site is None:
            weights = [self.site_weights[s] for s in self.sites]
            site = rng.choices(self.sites, weights=weights, k=1)[0]
        draw = rng.random()
        if draw < self.deposit_fraction:
            acct = rng.randrange(self.num_accounts)
            amount = rng.choice(AMOUNTS)
            return WorkloadRequest(
                f"Deposit@s{site}",
                "Deposit",
                {"acct": acct, "amount": amount},
                site,
                (acct,),
            )
        if draw < self.deposit_fraction + self.audit_fraction:
            acct = rng.randrange(self.num_accounts)
            return WorkloadRequest(
                f"Audit@s{site}", "Audit", {"acct": acct}, site, (acct,)
            )
        src, dst = self._sample_pair(rng)
        amount = rng.choice(AMOUNTS)
        return WorkloadRequest(
            f"Transfer@s{site}",
            "Transfer",
            {"src": src, "dst": dst, "amount": amount},
            site,
            (src, dst),
        )

    # -- baselines -----------------------------------------------------------

    def baseline_transactions(self) -> dict[str, Transaction]:
        out: dict[str, Transaction] = {}
        for s in self.sites:
            out[f"Transfer@s{s}"] = self.transfer
            out[f"Deposit@s{s}"] = self.deposit
            if self.audit_fraction > 0.0:
                out[f"Audit@s{s}"] = self.audit
        return out

    # -- audits --------------------------------------------------------------

    def balances(self, state: dict[str, int]) -> dict[int, int]:
        """Logical per-account balance from a cluster's global state
        (base copy plus every site's delta)."""
        out: dict[int, int] = {}
        for a in range(self.num_accounts):
            total = state.get(f"balance[{a}]", 0)
            for s in self.sites:
                total += state.get(f"{delta_base('balance', s)}[{a}]", 0)
            out[a] = total
        return out

    def total_money(self, state: dict[str, int]) -> int:
        return sum(self.balances(state).values())

    def conservation_violations(
        self, state: dict[str, int], deposited: int
    ) -> list[str]:
        """The money-supply audit.  ``deposited`` is the sum of all
        committed Deposit amounts; transfers must conserve the total
        and no account may go negative."""
        problems: list[str] = []
        expected = self.num_accounts * self.initial_balance + deposited
        total = self.total_money(state)
        if total != expected:
            problems.append(
                f"money supply {total} != expected {expected} "
                f"(initial {self.num_accounts * self.initial_balance} "
                f"+ deposits {deposited})"
            )
        for acct, bal in self.balances(state).items():
            if bal < 0:
                problems.append(f"balance[{acct}] = {bal} < 0")
        return problems
