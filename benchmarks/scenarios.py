"""The scenario table: what every gated scenario *is*, typed once.

One entry per committed ``BENCH_<name>.json``: the literal points the
scenario runs, how its record is built, and its gates as data rows.
Everything else reads this module:

- ``harness.py`` runs the table and writes the records;
- ``compare_bench.py`` evaluates every row against the committed
  baselines (the CI gate);
- the ``bench_*`` scenario sweeps derive their wider, smaller points
  from the ones here (``BANKING.run("2pc", max_txns=1_000)``,
  ``FLASHSALE.but(hot_fraction=0.5)`` -- a stated override, not a
  second literal) and hold their gated blocks to the same rows
  through :func:`assert_gates`.

A point (:class:`Point`) holds two of the three axes the paper's
Section 6 defines an experiment by, a workload and a network; the
third, the mode, is the argument of :meth:`Point.run`.

A new scenario is one ``SCENARIOS`` entry; a new gate is one row.

Every simulated quantity is deterministic under the fixed seeds, so
rows comparing two fields of the *current* record (adaptive < static,
credit < priority) and the audits are stable across machines.  Only
``wall_time_s`` and the ``check`` record's rates are host time: they
are reported, never gated, except through the escrow speedup *ratio*,
whose floor sits far below the recorded value because the gate's job
is to catch the escrow account collapsing to ~1x, not to relitigate
the margin on a noisy shared runner.
"""

from __future__ import annotations

import json
import operator
import random
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # script mode: no install needed

from repro.logic.compile import lower_to_escrow  # noqa: E402
from repro.protocol.kernel import HomeostasisCluster  # noqa: E402
from repro.protocol.paxos_commit import NegotiationSpec  # noqa: E402
from repro.sim import experiments  # noqa: E402
from repro.sim.experiments import (  # noqa: E402
    run_winner_crash,
    skewed_client_counts,
    zipf_weights,
)
from repro.sim.metrics import SimResult  # noqa: E402
from repro.sim.network import rtt_matrix_for  # noqa: E402
from repro.sim.runner import crash_schedule  # noqa: E402
from repro.treaty.escrow import EscrowAccount  # noqa: E402
from repro.workloads.banking import BankingWorkload  # noqa: E402
from repro.workloads.common import ReplicatedWorkloadBase  # noqa: E402
from repro.workloads.flashsale import FlashSaleWorkload  # noqa: E402
from repro.workloads.geo import GeoMicroWorkload  # noqa: E402
from repro.workloads.micro import MicroWorkload  # noqa: E402
from repro.workloads.quota import QuotaWorkload  # noqa: E402
from repro.workloads.tpcc import TpccWorkload  # noqa: E402

SCHEMA_VERSION = 6

# -- gate rows -------------------------------------------------------------------


@dataclass(frozen=True)
class Baseline:
    """Held against the committed baseline's same field, loosened by a
    relative margin ``rel`` plus an absolute one ``eps`` (both zero:
    the field must not move the wrong way at all)."""

    rel: float = 0.0
    eps: float = 0.0


@dataclass(frozen=True)
class Field:
    """Held against another field of the same block of the same
    (current) record."""

    path: str


_RELATIONS: dict[str, Callable[[Any, Any], bool]] = {
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
    "==": operator.eq,
}


def dig(record: dict, path: str) -> Any:
    """The value at a dotted path (``fault_gate.winner_crash.committed``);
    empty components are skipped, so ``""`` is the record itself."""
    value: Any = record
    for key in filter(None, path.split(".")):
        value = value[key]
    return value


def _show(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class Gate:
    """One gate: ``field relation against``, and what a failure means.
    ``field`` is a dotted path inside the block the row is listed under."""

    field: str
    relation: str
    #: a :class:`Baseline`, a :class:`Field`, or a constant
    against: Any
    why: str

    def limit(self, block: str, baseline: dict, current: dict) -> tuple[Any, str]:
        """What the field is held against, and where that came from."""
        against = self.against
        if isinstance(against, Baseline):
            base = dig(baseline, f"{block}.{self.field}")
            sign = 1 if self.relation.startswith("<") else -1
            limit = base * (1 + sign * against.rel) + sign * against.eps
            return limit, f" [baseline {_show(base)}]"
        if isinstance(against, Field):
            return dig(current, f"{block}.{against.path}"), f" [{against.path}]"
        return against, ""

    def check(self, block: str, baseline: dict, current: dict) -> tuple[bool, str]:
        """(holds?, the row rendered with the values it compared)."""
        label = f"{block}.{self.field}".lstrip(".")
        try:
            value = dig(current, label)
            limit, origin = self.limit(block, baseline, current)
        except (KeyError, TypeError):
            return False, f"{label} is missing from the record"
        ok = _RELATIONS[self.relation](value, limit)
        text = (
            f"{label} {_show(value)} {'' if ok else 'not '}{self.relation} "
            f"{_show(limit)}{origin}"
        )
        return ok, text if ok else f"{text} -- {self.why}"


@dataclass(frozen=True)
class Scenario:
    #: zero-argument runner returning the record's body
    run: Callable[[], dict]
    #: block of the record (``""``: its top level) -> the rows over it
    gates: dict[str, tuple[Gate, ...]]

    def rows(self) -> Iterator[tuple[str, Gate]]:
        for block, rows in self.gates.items():
            for row in rows:
                yield block, row


#: relative slack of the three baseline-relative regression rows
THRESHOLD = 0.20

#: every simulated scenario's headline must not regress
REGRESSION = (
    Gate("throughput_txn_per_s", ">=", Baseline(rel=THRESHOLD), "throughput regressed"),
    # SYNC_RATIO_EPSILON, the absolute slack: a 0.001 -> 0.002 move is
    # within seed-level noise, not a 100% regression
    Gate(
        "sync_ratio", "<=", Baseline(rel=THRESHOLD, eps=0.005), "sync ratio regressed"
    ),
    Gate("p99_ms", "<=", Baseline(rel=THRESHOLD), "p99 latency regressed"),
)

def sim_record(result: SimResult, **blocks: dict) -> dict:
    """The body every simulated scenario records, plus its gate blocks."""
    stats = result.latency_stats()
    return {
        "mode": result.mode,
        "txns": result.committed,
        "negotiations": result.negotiations,
        "rebalances": result.rebalances,  # proactive adaptive refreshes
        "throughput_txn_per_s": round(result.total_throughput(), 3),
        "sync_ratio": round(result.sync_ratio, 5),
        "p50_ms": round(stats.p50, 3),
        "p99_ms": round(stats.p99, 3),
        # run-level escrow fast-path counters from the kernel
        "escrow": dict(result.escrow),
        # static-tier counters: check bypasses / treaty executions,
        # mean treaty clauses in scope per commit
        "classifier": dict(result.classifier),
        "free_ratio": result.classifier.get("free_ratio", 0.0),
        "checks_per_commit": result.classifier.get("checks_per_commit", 0.0),
        **blocks,
    }


# -- points ----------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """One simulated point, as the paper's Section 6 defines it: a
    workload spec (its class and literal fields) and :func:`run`'s
    keywords -- the network, the clients, the run length.  Every point
    here runs seed 0, whose workload draw is the specs' default
    ``init_seed=1``.  Sweeps derive theirs with :meth:`but` (spec
    fields) and :meth:`run`'s keywords."""

    workload: Callable[..., ReplicatedWorkloadBase]
    spec: dict
    config: dict

    def but(self, **spec) -> Point:
        return replace(self, spec={**self.spec, **spec})

    def run(self, mode: str, **config) -> SimResult:
        return experiments.run(
            mode, self.workload(**self.spec), **{**self.config, **config}
        )


def skewed_clients(skew: float) -> tuple[int, ...]:
    """32 closed-loop clients over four replicas by Zipf(``skew``)
    weights: where clients live is how a point skews *site* load."""
    return skewed_client_counts(32, zipf_weights(4, skew))


# -- micro, geo_pricing ----------------------------------------------------------

# A quarter of the mix is read-only Audit probes: the traffic class
# the coordination-freedom classifier proves FREE, so the scenario
# exercises (and its baseline gates) the static tier.
MICRO = Point(
    MicroWorkload,
    dict(num_items=150, audit_fraction=0.25, initial_qty="random"),
    dict(max_txns=2_000),
)

_MICRO_GATES = {
    "": REGRESSION
    + (Gate("free_ratio", ">=", Baseline(), "Audit probes no longer proved FREE"),)
}

#: items in replication groups (site subsets) on Table 1 RTTs, so each
#: negotiation is priced from the slowest edge inside its group
GEO = Point(
    GeoMicroWorkload,
    dict(
        groups=((0, 1), (2, 3), (0, 4)),
        num_sites=5,
        items_per_group=30,
        refill=50,
        initial_qty="random",
    ),
    dict(rtt_matrix=rtt_matrix_for(5), clients_per_replica=8, max_txns=1_500),
)

# -- contention_races ------------------------------------------------------------

#: the uniform-load racing-violator run (the scenario's headline):
#: 10 ms arrival windows through the kernel's vote phase
CONTENTION = Point(
    MicroWorkload,
    dict(num_items=20, refill=40, initial_qty="random"),
    dict(clients_per_replica=8, window_ms=10.0, max_txns=800),
)

#: the tie-dominated arbitration point: Zipf(2.0)-skewed clients over
#: four replicas, hot items, and an arbitration clock so coarse that
#: every within-window race carries equal vote timestamps -- elections
#: are decided purely by the tie-break chain (credit, then site id),
#: the regime where the policies separate
FAIRNESS_SKEW = 2.0
FAIRNESS = Point(
    MicroWorkload,
    dict(num_items=12, refill=40, num_sites=4, initial_qty="random"),
    dict(
        clients_per_replica=skewed_clients(FAIRNESS_SKEW),
        window_ms=10.0,
        max_txns=1_200,
        clock_quantum_ms=1e6,
    ),
)


def _fairness_block(result: SimResult) -> dict:
    """One arbitration policy's credit-ledger summary."""
    fairness = result.fairness
    per_site = fairness["per_site"]
    return {
        "elections": fairness["elections"],  # contested elections
        "max_consecutive_losses": fairness["max_consecutive_losses"],
        "worst_site_p99_wait": max(
            (d["wait_p99"] for d in per_site.values()), default=0.0
        ),
        "per_site_max_losses": {
            str(site): d["max_consecutive_losses"]
            for site, d in sorted(per_site.items())
        },
    }


def _contention_races() -> dict:
    headline = CONTENTION.run("homeo")
    gate: dict = {
        "skew": FAIRNESS_SKEW,
        "clock_quantum_ms": FAIRNESS.config["clock_quantum_ms"],
    }
    for policy in ("priority", "credit"):
        gate[policy] = _fairness_block(
            FAIRNESS.run("homeo", negotiation=NegotiationSpec(policy=policy))
        )
    return sim_record(headline, fairness_gate=gate)


_CONTENTION_GATES = {
    "": REGRESSION,
    "fairness_gate": (
        # CREDIT_MAX_LOSSES: the recorded streak sits at 2 and the
        # budgeted credit bounds it by construction, so 3 is headroom
        # for workload-mix drift, not for a starvation regression.
        Gate("credit.max_consecutive_losses", "<=", 3, "starvation no longer bounded"),
        Gate(
            "credit.max_consecutive_losses",
            "<",
            Field("priority.max_consecutive_losses"),
            "the arbitration policies stopped separating under ties",
        ),
        Gate("credit.elections", ">", 0, "the tie-dominated point stopped racing"),
    ),
}

# -- adaptive_skew ---------------------------------------------------------------

#: the high-skew point of the adaptive-reallocation experiment, per
#: workload, under the adaptive / static modes
ADAPTIVE_SKEW = 2.0
ADAPTIVE_POINTS = {
    "micro": Point(
        MicroWorkload,
        dict(num_items=60, refill=80, num_sites=4, initial_qty="random"),
        dict(clients_per_replica=skewed_clients(ADAPTIVE_SKEW), max_txns=2_000),
    ),
    # Scarce TPC-C stock makes allocation the binding constraint: with
    # the default of 100 the per-site splits are so generous that even
    # a frozen equal split never violates at this scale, and there is
    # nothing to reallocate.  The run is long enough past the
    # estimator's learning phase that the honest-total comparison is
    # meaningful.
    "tpcc": Point(
        TpccWorkload,
        dict(items_per_district=30, num_sites=4, initial_stock=35),
        dict(
            rtt_matrix=rtt_matrix_for(4),
            cores_per_replica=16,  # c3.4xlarge
            clients_per_replica=skewed_clients(ADAPTIVE_SKEW),
            max_txns=1_000,
            duration_ms=30_000.0,
        ),
    ),
}


def adaptive_block(adaptive: SimResult, static: SimResult) -> dict:
    """One workload's adaptive-vs-static comparison.  Rebalance ratios
    ride along so the win is auditable as coordination avoided, not
    violations relabelled as refreshes."""
    return {
        "adaptive_sync_ratio": round(adaptive.sync_ratio, 5),
        "static_sync_ratio": round(static.sync_ratio, 5),
        "adaptive_rebalance_ratio": round(adaptive.rebalance_ratio, 5),
        "adaptive_rebalances": adaptive.rebalances,
        "free_ratio": adaptive.classifier.get("free_ratio", 0.0),
        "checks_per_commit": adaptive.classifier.get("checks_per_commit", 0.0),
    }


def _adaptive_skew() -> dict:
    """Headline: the adaptive micro run."""
    runs = {
        workload: {mode: point.run(mode) for mode in ("adaptive", "static")}
        for workload, point in ADAPTIVE_POINTS.items()
    }
    gate: dict = {"skew": ADAPTIVE_SKEW}
    for workload, pair in runs.items():
        gate[workload] = adaptive_block(pair["adaptive"], pair["static"])
    return sim_record(runs["micro"]["adaptive"], adaptive_gate=gate)


#: the headline claim of adaptive reallocation, at the hot point
ADAPTIVE_WINS = Gate(
    "adaptive_sync_ratio", "<", Field("static_sync_ratio"), "adaptive lost to static"
)

_ADAPTIVE_GATES = {
    "": REGRESSION,
    "adaptive_gate.micro": (ADAPTIVE_WINS,),
    "adaptive_gate.tpcc": (
        ADAPTIVE_WINS,
        # TPC-C is where free paths (Payment, one Delivery path) shrink
        # the scope; micro's two-path Buy has nothing to shrink.
        Gate(
            "checks_per_commit", "<=", Baseline(), "free paths widened to full checks"
        ),
    ),
}

# -- faults ----------------------------------------------------------------------

#: the deterministic crash schedule (site 1 is down for half of the
#: 1.5s..4.5s window of a 6s run)
CRASH_AT_MS = 1_500.0
OUTAGE_MS = 3_000.0

# Gray & Lamport's blocking argument made measurable: under "2pc"
# every commit needs every replica, so availability collapses to ~0
# for the whole outage -- clients cycle through SYNC_TIMEOUT_MS
# discovery stalls.  Under "homeo" the surviving sites keep committing
# on their local treaties; only transactions homed at the crashed
# site, or whose violation closure includes it, fail.  The run is
# duration-bounded, so the outage is a fixed fraction of every mode's
# run and availabilities compare apples to apples; the crashed site
# loses its volatile treaty state (its database and treaty WAL are
# durable) and recovers by WAL replay plus a rejoin round.
FAULTS = Point(
    MicroWorkload,
    dict(num_items=120, num_sites=3, initial_qty="random"),
    dict(
        strategy="equal-split",
        clients_per_replica=4,
        duration_ms=6_000.0,
        max_txns=100_000,
        fault_events=crash_schedule(1, CRASH_AT_MS, OUTAGE_MS),
    ),
)


def availability_block(
    homeo: SimResult, twopc: SimResult, crash_at_ms: float, outage_ms: float
) -> dict:
    """Both modes' availability over the whole run and over the outage
    window ``crash_at_ms .. crash_at_ms + outage_ms`` specifically."""
    window = (crash_at_ms, crash_at_ms + outage_ms)
    return {
        "crash_at_ms": crash_at_ms,
        "outage_ms": outage_ms,
        "homeo_availability": round(homeo.availability, 5),
        "homeo_outage_availability": round(homeo.availability_between(*window), 5),
        "twopc_availability": round(twopc.availability, 5),
        "twopc_outage_availability": round(twopc.availability_between(*window), 5),
        "homeo_recoveries": homeo.recoveries,  # WAL replay + rejoin rounds
        "homeo_timeouts": homeo.timeouts,  # unavailability failures
    }


def _faults() -> dict:
    """Headline: the homeostasis run, validate mode on (every install
    asserts H1/H2; recovery asserts the WAL-replayed treaty is the
    cluster's).  ``winner_crash``: the origin of a violating round
    crash-stops after the first Phase2b ack and a survivor completes
    the round from the acceptors' WAL state."""
    homeo = FAULTS.run("homeo", validate=True)
    twopc = FAULTS.run("2pc")
    gate = availability_block(homeo, twopc, CRASH_AT_MS, OUTAGE_MS)
    gate["winner_crash"] = run_winner_crash(seed=0)
    return sim_record(homeo, fault_gate=gate)


_SURVIVOR_BROKE = "survivor completion of the crashed origin's round broke"

_FAULT_GATES = {
    "": REGRESSION,
    "fault_gate": (
        # FAULT_HOMEO_FLOOR: the surviving sites keep committing on
        # their local treaties through the outage window...
        Gate("homeo_outage_availability", ">=", 0.5, "survivors stopped committing"),
        # FAULT_TWOPC_CEILING: ...while 2PC blocks (its only commits
        # race the crash boundary)
        Gate("twopc_outage_availability", "<=", 0.05, "2PC committed during an outage"),
    ),
    "fault_gate.winner_crash": tuple(
        Gate(flag, "==", True, _SURVIVOR_BROKE)
        for flag in (
            "committed",
            "origin_down_at_completion",
            "origin_excluded",
            "recovered_clean",
            "post_recovery_committed",
        )
    )
    + (Gate("complete_messages", ">=", 1, "the survivor never announced Complete"),),
}

# -- flashsale, banking, quota ---------------------------------------------------

#: the flash-sale stress point: 90% of checkouts on one SKU, treaty
#: headroom collapsing toward zero -- the regime adaptive rebalancing
#: was built for.  Unlike the adaptive-skew points, which skew *site*
#: load through client placement, the flash sale skews *object* load:
#: every site hammers SKU 0, so the hot treaty's headroom collapses
#: while the cold catalog idles.
FLASHSALE = Point(
    FlashSaleWorkload,
    dict(
        num_skus=8,
        hot_stock=150,
        cold_stock=60,
        hot_fraction=0.9,
        restock_fraction=0.05,
        peek_fraction=0.1,
    ),
    dict(clients_per_replica=8, max_txns=2_500),
)

BANKING = Point(
    BankingWorkload,
    dict(num_accounts=8, initial_balance=30, deposit_fraction=0.1, audit_fraction=0.05),
    dict(clients_per_replica=8, max_txns=2_000),
)

#: 150 independent small treaties: where a treaty-table or
#: escrow-index regression shows up as clause-scope bloat
QUOTA = Point(
    QuotaWorkload,
    dict(num_tenants=150, limit=12, usage_fraction=0.05),
    dict(clients_per_replica=8, max_txns=2_500),
)

# The three exact-invariant audits, each driving a deterministic stream
# through its own small validate-mode cluster (H1/H2 oracles on every
# install) and auditing the final state.


def _audited(
    workload: ReplicatedWorkloadBase, stream: Iterable[tuple[str, dict[str, int]]]
) -> HomeostasisCluster:
    cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
    for tx_name, params in stream:
        cluster.submit(tx_name, params)
    return cluster


def sellout_audit() -> dict:
    """3x the hot stock in checkouts must end exactly at zero.

    Round-robin over two sites, the guarded decrement must sell
    *exactly* the hot stock -- the treaty may defer coordination but
    never mint inventory -- and the tail of the sale, where every
    site's split has rounded down to nothing, must still terminate
    with the logical stock at exactly zero."""
    workload = FlashSaleWorkload(
        num_skus=2, hot_stock=60, cold_stock=10, restock_fraction=0.0
    )
    cluster = _audited(
        workload, ((f"Checkout@s{i % 2}", {"item": 0}) for i in range(3 * 60))
    )
    levels = workload.stock_levels(cluster.global_state())
    return {
        "hot_stock": 60,
        "hot_remaining": levels[0],
        "sold_out": levels[0] == 0,
        "oversold_units": sum(-v for v in levels.values() if v < 0),
        "min_stock": min(levels.values()),
        "sync_ratio": round(cluster.stats.sync_ratio, 5),
    }


def conservation_audit() -> dict:
    """Money in equals money out across three sites; nobody overdrawn.

    After a mixed stream (transfers, deposits, read-only audits) the
    logical money supply must equal the opening supply plus every
    committed deposit -- the protocol may defer writes into per-site
    deltas but may not mint or burn a unit."""
    workload = BankingWorkload(
        num_accounts=6, num_sites=3, deposit_fraction=0.15, audit_fraction=0.05
    )
    rng = random.Random(0)
    stream = [workload.next_request(rng) for _ in range(600)]
    cluster = _audited(workload, ((r.tx_name, r.params) for r in stream))
    state = cluster.global_state()
    deposited = sum(r.params["amount"] for r in stream if r.family == "Deposit")
    problems = workload.conservation_violations(state, deposited)
    return {
        "accounts": 6,
        "requests": 600,
        "deposited": deposited,
        "expected_total": 6 * workload.initial_balance + deposited,
        "final_total": workload.total_money(state),
        "min_balance": min(workload.balances(state).values()),
        "money_conserved": not problems,
        "conservation_problems": problems,
        "sync_ratio": round(cluster.stats.sync_ratio, 5),
    }


def saturation_audit() -> dict:
    """A hammered tenant reaches its limit exactly and never passes it.

    90% of 600 hits aim at tenant 0 -- far more than one window's
    budget, so the counter cycles through the rollover path
    repeatedly -- and every tenant's logical counter must end inside
    ``[0, limit]``."""
    workload = QuotaWorkload(num_tenants=30, limit=8, hot_fraction=0.9)
    rng = random.Random(0)
    stream = (workload.next_request(rng) for _ in range(600))
    cluster = _audited(workload, ((r.tx_name, r.params) for r in stream))
    state = cluster.global_state()
    levels = workload.usage_levels(state)
    overruns = workload.overruns(state)
    return {
        "tenants": 30,
        "limit": 8,
        "requests": 600,
        "max_used": max(levels.values()),
        "min_used": min(levels.values()),
        "overrun_violations": len(overruns),
        "within_limits": not overruns,
        "sync_ratio": round(cluster.stats.sync_ratio, 5),
    }


def _flashsale() -> dict:
    """Headline: the adaptive run."""
    adaptive = FLASHSALE.run("adaptive")
    static = FLASHSALE.run("static")
    gate = {
        "hot_fraction": FLASHSALE.spec["hot_fraction"],
        "flashsale": adaptive_block(adaptive, static),
    }
    return sim_record(adaptive, adaptive_gate=gate, flashsale_gate=sellout_audit())


_FLASHSALE_GATES = {
    "": REGRESSION,
    "adaptive_gate.flashsale": (ADAPTIVE_WINS,),
    "flashsale_gate": (
        Gate("sold_out", "==", True, "hot stock left after 3x demand"),
        Gate("oversold_units", "==", 0, "the treaty admitted a decrement below zero"),
        Gate("min_stock", ">=", 0, "negative stock on final state"),
    ),
}

_BANKING_GATES = {
    "": REGRESSION,
    "banking_gate": (
        Gate("money_conserved", "==", True, "money not conserved"),
        Gate("final_total", "==", Field("expected_total"), "money minted or destroyed"),
        Gate("min_balance", ">=", 0, "an account ended overdrawn"),
    ),
}

_QUOTA_GATES = {
    "": REGRESSION
    + (Gate("checks_per_commit", "<=", Baseline(), "clause scope per commit bloated"),),
    "quota_gate": (
        Gate("overrun_violations", "==", 0, "the treaty admitted excess hits"),
        Gate("within_limits", "==", True, "a tenant is past its limit"),
        Gate("max_used", "==", Field("limit"), "the audit never reached the ceiling"),
        Gate("min_used", ">=", 0, "negative usage on final state"),
    ),
}

# -- check -----------------------------------------------------------------------


def _check_microbench() -> dict:
    """Interpreted vs escrow throughput of one real treaty.

    The treaty comes from an actual protocol cluster (50 items at the
    checked site).  The interpreted leg times
    :meth:`~repro.treaty.table.LocalTreaty.holds` -- every clause
    evaluated on the store, the validate-mode oracle's semantics --
    reading object values through a snapshot lookup.

    The escrow leg times :meth:`EscrowAccount.commit` on the same
    treaty's lowered program, fed alternating +1/-1 single-object
    deltas (refill first, so nothing ever violates) against synthetic
    healthy headroom -- honest because an admitted commit's cost is
    independent of the slack values.
    """
    workload = MicroWorkload(
        num_items=50, refill=100, num_sites=2, initial_qty="random", init_seed=1
    )
    cluster = workload.build_homeostasis(
        strategy="equal-split", lookahead=20, cost_factor=3, seed=0
    )
    treaty = cluster.sites[0].local_treaty
    constraints = treaty.constraints
    getobj = cluster.sites[0].engine.store.snapshot().__getitem__
    if not treaty.holds(getobj):
        raise AssertionError("the installed treaty must hold on its own site")
    iterations = 20_000  # per implementation

    def best_rate(check) -> float:
        # Best of three timed repeats: transient host noise only ever
        # slows a repeat down, so the max rate is the stablest estimate.
        best = 0.0
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(iterations):
                check()
            best = max(best, iterations / (time.perf_counter() - t0))
        return best

    interpreted_rate = best_rate(lambda: treaty.holds(getobj))

    program = lower_to_escrow(constraints)
    account = EscrowAccount(program, [1000] * len(program.rows))
    commit = account.commit
    obj = program.rows[0].expr.coeffs[0][0].name
    up, down = {obj: 1}, {obj: -1}
    if commit(up) is not None or commit(down) is not None:
        raise AssertionError("escrow microbench deltas must never violate")
    escrow_rate = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(0, iterations, 2):
            commit(up)
            commit(down)
        escrow_rate = max(escrow_rate, iterations / (time.perf_counter() - t0))
    return {
        "clauses": len(constraints),
        "iterations": iterations,
        "interpreted_checks_per_s": round(interpreted_rate, 1),
        "escrow_checks_per_s": round(escrow_rate, 1),
        "escrow_speedup": round(escrow_rate / interpreted_rate, 3),
    }


# The recorded escrow speedup over the interpreted check sits far above
# this floor (tens of x).
_CHECK_GATES = {
    "": (Gate("escrow_speedup", ">=", 5.0, "the escrow-counter check collapsed"),)
}

# -- the table -------------------------------------------------------------------

SCENARIOS: dict[str, Scenario] = {
    "micro": Scenario(lambda: sim_record(MICRO.run("homeo")), _MICRO_GATES),
    "geo_pricing": Scenario(lambda: sim_record(GEO.run("homeo")), {"": REGRESSION}),
    "contention_races": Scenario(_contention_races, _CONTENTION_GATES),
    "adaptive_skew": Scenario(_adaptive_skew, _ADAPTIVE_GATES),
    "faults": Scenario(_faults, _FAULT_GATES),
    "flashsale": Scenario(_flashsale, _FLASHSALE_GATES),
    "banking": Scenario(
        lambda: sim_record(BANKING.run("homeo"), banking_gate=conservation_audit()),
        _BANKING_GATES,
    ),
    "quota": Scenario(
        lambda: sim_record(QUOTA.run("homeo"), quota_gate=saturation_audit()),
        _QUOTA_GATES,
    ),
    # the one host-time record: the same installed treaty checked two ways
    "check": Scenario(_check_microbench, _CHECK_GATES),
}

# -- records on disk -------------------------------------------------------------


def bench_path(directory: Path, name: str) -> Path:
    return directory / f"BENCH_{name}.json"


def run_scenario(name: str) -> dict:
    """Run one scenario end to end and return its record."""
    t0 = time.perf_counter()
    body = SCENARIOS[name].run()
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": name,
        "wall_time_s": round(time.perf_counter() - t0, 3),  # host time, not gated
        **body,
    }


def load(directory: Path, name: str) -> dict:
    """Read one scenario's record; ``ValueError`` if it cannot be judged."""
    path = bench_path(directory, name)
    if not path.exists():
        raise ValueError(f"{name}: missing {path}")
    record = json.loads(path.read_text())
    if record.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{name}: {path} has schema_version {record.get('schema_version')!r}, "
            f"need {SCHEMA_VERSION}"
        )
    return record


def assert_gates(name: str, block: str, measured: dict) -> None:
    """Hold a sweep's freshly measured gate block to the scenario's rows
    over it (baseline-relative rows read the committed baseline)."""
    record = measured
    for key in reversed(block.split(".")):
        record = {key: record}
    baseline = load(ROOT, name)
    for row in SCENARIOS[name].gates[block]:
        ok, text = row.check(block, baseline, record)
        assert ok, f"{name}: {text}"
