"""The single-site serial oracle for fuzzed workloads.

Theorem 3.8 is the contract the fuzzer holds every generated case to:
a protocol execution must be observationally indistinguishable from a
serial execution of the same transactions on one consistent database.
:func:`run_case` replays a case's schedule through a validate-mode
homeostasis cluster -- so every treaty install additionally asserts
the H1 sum partition and the per-site H2 regions, the escrow
differential cross-checks the counters against the interpreted clause
check, and the path-sensitive check oracles run -- then compares
against plain-interpreter evaluation on three levels:

- **Final state, strictly serial.**  The cluster's merged global
  state must equal the serial replay's, key by key, deltas included.
  No configuration weakens this check.
- **Every synchronization broadcast, strictly serial.**  A post-sync
  hook records each round's participant set and update map; every
  broadcast value must equal the serial replay's value for that
  object (at the committed prefix for cleanup rounds, which run
  before the violating transaction re-executes; after the commit for
  proactive rebalance rounds).  A sync that ships a fabricated value
  is caught at the round that ships it, not at the end of the run.
- **Logs (the print channel), against the probe contract the case
  selected.**  With ``pinned_probes=True`` the probes' ground rows
  enter treaty generation, their prints pin the replicated slots
  (Appendix C.3), every conflicting write pays the demarcation sync
  -- and the oracle demands *strictly serial* logs.  With the default
  ``pinned_probes=False`` probes ride the classifier-FREE bypass and
  the guarantee is **snapshot consistency**: each site observes the
  serial prefix as of its last synchronization, plus its own local
  commits since.  The oracle maintains one view per site, evolved by
  the same transformed-transaction evaluation the engine performs:
  participant-scoped rounds refresh exactly the broadcast objects of
  exactly the participants (non-participants legitimately lag, as the
  kernel's own H2 validation documents), and a cleanup round's
  re-executed transaction applies at *every* live participant, the
  way ``_cleanup_execute`` runs T'.  This is the contract the fleet
  workloads' ``Audit`` / ``Peek`` / ``Usage`` probes actually get --
  the fuzzer made it explicit after finding that an unpinned probe's
  print can trail the serial value (see docs/FUZZING.md).

A divergence raises :class:`FuzzDivergence` carrying the case, ready
to be persisted by :mod:`repro.fuzz.corpus`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.interp import evaluate
from repro.protocol.homeostasis import AdaptiveSettings
from repro.protocol.paxos_commit import DEFAULT_NEGOTIATION, NegotiationSpec
from repro.fuzz.generators import FuzzCase, FuzzWorkload


@dataclass
class FuzzOutcome:
    """Accounting from one clean oracle run (for reporting only)."""

    submitted: int
    negotiations: int
    sync_ratio: float
    treaty_clauses: int


class FuzzDivergence(AssertionError):
    """Protocol execution disagreed with the serial oracle."""

    def __init__(self, case: FuzzCase, detail: str):
        super().__init__(detail)
        self.case = case
        self.detail = detail


def build_cluster(workload: FuzzWorkload):
    """The case's protocol cluster, validate-mode oracles armed."""
    spec = workload.fuzz
    negotiation = (
        NegotiationSpec(policy=spec.negotiation)
        if spec.negotiation
        else DEFAULT_NEGOTIATION
    )
    adaptive = AdaptiveSettings() if spec.adaptive else None
    return workload.build_homeostasis(
        strategy=spec.strategy,
        adaptive=adaptive,
        negotiation=negotiation,
        validate=True,
    )


def run_case(case: FuzzCase) -> FuzzOutcome:
    """Replay one case against the serial oracle; raise on divergence."""
    workload = FuzzWorkload(fuzz=case.spec)
    cluster = build_cluster(workload)
    resolved = [workload.resolve(req) for req in case.schedule]
    strict_logs = case.spec.pinned_probes

    sync_events = []
    cluster.post_sync_hooks.append(
        lambda c: sync_events.append(c.last_sync)
    )

    serial_state = dict(workload.initial_db)
    views = {s: dict(workload.initial_db) for s in workload.sites}
    cursor = 0

    def apply_sync(event, reference, i, when):
        """Refresh participants' views from one recorded round, holding
        every broadcast value to the serial reference state."""
        for key, value in sorted(event.updates.items()):
            if value != reference.get(key, 0):
                raise FuzzDivergence(
                    case,
                    f"sync divergence at request {i} ({when} round): "
                    f"broadcast {key}={value} != serial "
                    f"{reference.get(key, 0)}",
                )
            for p in event.participants:
                views[p][key] = value

    for i, (tx_name, params) in enumerate(resolved):
        site = workload.tx_home[tx_name]
        result = cluster.submit(tx_name, params)
        fresh = sync_events[cursor:]
        cursor = len(sync_events)
        # A violating submission runs exactly one cleanup round before
        # the transaction re-executes; proactive rebalances run after a
        # local commit.  Classify the recorded rounds accordingly.
        pre = fresh[:1] if result.synced else []
        post = fresh[len(pre):]

        tx = workload.reference_transaction(tx_name)
        serial = evaluate(tx, serial_state, params=params)

        for event in pre:
            apply_sync(event, serial_state, i, "cleanup")
        if result.synced:
            # T' re-executes at every live participant, so the commit
            # lands in each participant's view (their refreshed inputs
            # agree, so their evaluations do too).
            expected = None
            for p in result.participants:
                out = evaluate(tx, views[p], params=params)
                views[p] = out.db
                if p == site:
                    expected = out
            if expected is None:  # origin outside the live set: no faults here
                raise FuzzDivergence(
                    case,
                    f"synced request {i} ({tx_name}) excluded its origin "
                    f"{site} from participants {result.participants!r}",
                )
        else:
            expected = evaluate(tx, views[site], params=params)
            views[site] = expected.db
        serial_state = serial.db
        for event in post:
            apply_sync(event, serial_state, i, "rebalance")

        want = serial.log if strict_logs else expected.log
        contract = "serial" if strict_logs else "snapshot"
        if result.log != want:
            raise FuzzDivergence(
                case,
                f"log divergence at request {i} ({tx_name} {params}): "
                f"protocol {result.log!r} != {contract} {want!r}",
            )

    final = cluster.global_state()
    for key in sorted(set(serial_state) | set(final)):
        if serial_state.get(key, 0) != final.get(key, 0):
            raise FuzzDivergence(
                case,
                f"final-state divergence on {key}: protocol "
                f"{final.get(key, 0)} != serial {serial_state.get(key, 0)}",
            )

    table = cluster.treaty_table
    clauses = 0
    if table is not None:
        clauses = sum(
            len(table.local_for(site).constraints) for site in workload.sites
        )
    return FuzzOutcome(
        submitted=cluster.stats.submitted,
        negotiations=cluster.stats.negotiations,
        sync_ratio=cluster.stats.sync_ratio,
        treaty_clauses=clauses,
    )
