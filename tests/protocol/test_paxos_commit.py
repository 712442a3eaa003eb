"""Paxos Commit decision phase and starvation-free arbitration.

Covers the acceptance criteria of the non-blocking negotiation layer:

- a NegotiationSpec is frozen and validates its policy, acceptor-set
  size (2F+1), timeout, and credit budget at construction;
- the credit ledger accrues on losses (capped), spends on wins, counts
  only contested elections, and reports per-site fairness numbers;
- acceptor state (promises, accepted verdict vectors) is WAL-logged
  before any ack leaves the site and survives crash + replay, and
  stale ballots are refused;
- the driver's decision reaches a quorum at ballot 0, and a survivor
  finishes a crashed coordinator's round from the acceptors' logged
  state at ballot 1 -- or proves it never became durable and aborts;
- a coordinator crash at *every* message boundary of the decision
  (before any Phase2a, after each Phase2b, during survivor
  completion) either commits through a survivor or aborts cleanly,
  with the validate-mode oracle on throughout;
- credit arbitration changes who wins ties, never which outcomes
  commit (Hypothesis property over the concurrent kernel);
- the acceptor set puts the coordinator first, so the default spec
  (F = 0) is two-phase commit: the same messages as a coordinator
  that decides alone, plus one logged accept at the origin per round;
- acceptor state is held only for open rounds (the WAL keeps the
  rest for replay).
"""

import functools
import hashlib
import random

import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.faults import FaultPlan
from repro.protocol.homeostasis import Unavailable
from repro.protocol.messages import Complete, Phase2a, Phase2b
from repro.protocol.paxos_commit import (
    DEFAULT_NEGOTIATION,
    CreditLedger,
    NegotiationSpec,
    QuorumUnreachable,
)
from repro.sim.experiments import run_winner_crash
from repro.workloads.micro import MicroWorkload


def _negotiated_cluster(
    num_sites=3,
    validate=True,
    negotiation=None,
    num_items=18,
    refill=12,
):
    workload = MicroWorkload(
        num_items=num_items,
        refill=refill,
        num_sites=num_sites,
        initial_qty="refill",
    )
    cluster = workload.build_homeostasis(
        strategy="equal-split",
        validate=validate,
        negotiation=negotiation or NegotiationSpec(),
    )
    return workload, cluster


def _drive_to_violation(real, num_sites=3, seed=1, tries=600):
    """Find a request that negotiates over the *full* site set, using
    a fault-free twin driven through the identical sequence; every
    other request is replayed on ``real`` so both clusters reach the
    violation with equal state.  Returns the request and the twin's
    result (its participant closure sizes the crash arithmetic: a
    3-site closure hosts the whole 2F+1 acceptor set, so a quorum
    survives any single crash)."""
    twin_workload, twin = _negotiated_cluster(num_sites=num_sites, validate=False)
    rng = random.Random(seed)
    for _ in range(tries):
        req = twin_workload.next_request(rng, site=rng.randrange(num_sites))
        result = twin.submit(req.tx_name, req.params)
        if result.synced and len(result.participants) == num_sites:
            return req, result
        real.submit(req.tx_name, req.params)
    raise AssertionError("no full-closure violating request found")


class TestNegotiationSpec:
    def test_defaults_are_valid_and_frozen(self):
        spec = NegotiationSpec()
        assert spec.policy == "priority"
        assert spec.acceptors == 3
        with pytest.raises(AttributeError):
            spec.policy = "credit"  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "roulette"},
            {"acceptors": 4},  # even: not 2F+1
            {"acceptors": -3},  # odd but not positive
            {"credit_unit": 0},
            {"credit_unit": 3, "credit_cap": 2},
        ],
    )
    def test_invalid_specs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NegotiationSpec(**kwargs)


class TestCreditLedger:
    def test_priority_policy_never_bids_credit(self):
        ledger = CreditLedger(NegotiationSpec(policy="priority"))
        for _ in range(5):
            ledger.record_election(0, [1, 2])
        # Streaks and losses are still metered (the fairness report
        # must be comparable across policies) but nothing is bid.
        assert ledger.bid_credit(1) == 0
        assert ledger.max_consecutive_losses() == 5

    def test_losses_accrue_capped_and_wins_spend(self):
        spec = NegotiationSpec(policy="credit", credit_unit=2, credit_cap=5)
        ledger = CreditLedger(spec)
        ledger.record_election(0, [1, 2])
        assert ledger.bid_credit(1) == 2 and ledger.bid_credit(2) == 2
        assert ledger.bid_credit(0) == 0  # the winner holds nothing
        for _ in range(4):
            ledger.record_election(0, [1])
        assert ledger.bid_credit(1) == 5  # capped at credit_cap
        ledger.record_election(1, [0])
        assert ledger.bid_credit(1) == 0  # winning spends the balance

    def test_only_contested_elections_count(self):
        ledger = CreditLedger(NegotiationSpec(policy="credit"))
        ledger.record_election(0, [])  # unopposed: not an election
        assert ledger.elections == 0
        ledger.record_election(0, [1])
        assert ledger.elections == 1

    def test_stats_report_per_site_fairness(self):
        ledger = CreditLedger(NegotiationSpec(policy="credit"))
        for _ in range(3):
            ledger.record_election(0, [1])
        ledger.record_election(1, [0])
        stats = ledger.stats()
        assert stats["policy"] == "credit"
        assert stats["elections"] == 4
        assert stats["max_consecutive_losses"] == 3
        site1 = stats["per_site"][1]
        assert site1["wins"] == 1 and site1["losses"] == 3
        assert site1["max_consecutive_losses"] == 3
        assert site1["credit"] == 0  # spent on the win
        # Site 1 waited 3 losses before its win: that is the sample
        # behind both percentiles.
        assert site1["wait_p50"] == 3.0 and site1["wait_p99"] == 3.0


class TestAcceptorState:
    def test_accept_is_wal_logged_before_ack_and_replays(self):
        _, cluster = _negotiated_cluster(validate=False)
        site = cluster.sites[1]
        verdicts = ((0, True), (1, True), (2, True))
        assert site.paxos_accept(7, 0, verdicts)
        assert site.paxos_promise(9, 3) is None  # nothing accepted yet
        # Crash: the volatile dicts are lost; replay rebuilds them from
        # the records appended before the acks left the site.
        site.paxos_promised.clear()
        site.paxos_accepted.clear()
        site._replay_paxos_state()
        assert site.paxos_accepted[7] == (0, verdicts)
        assert site.paxos_promised[7] == 0
        assert site.paxos_promised[9] == 3
        # A round still in flight at the crash: its decision is durable,
        # the kernel has not ended it, and replay hands the accepted
        # verdicts back for a survivor to complete the round with.
        trace = cluster.transport.begin("cleanup", 0)
        assert trace.index not in (7, 9)
        cluster._paxos.decide(0, trace.index, [0, 1, 2])
        site.paxos_promised.clear()
        site.paxos_accepted.clear()
        site._replay_paxos_state()
        assert site.paxos_accepted[trace.index] == (0, verdicts)
        cluster.transport.crash(0)
        assert cluster._paxos.complete_as_survivor(1, trace.index, 0, [0, 1, 2])
        assert site.paxos_accepted[trace.index] == (1, verdicts)
        cluster.transport.abort(trace)

    def test_stale_ballots_are_refused(self):
        _, cluster = _negotiated_cluster(validate=False)
        site = cluster.sites[2]
        assert site.paxos_promise(4, 3) is None
        assert not site.paxos_accept(4, 1, ((0, True),))  # below promise
        assert site.paxos_promise(4, 2) is None  # stale re-promise
        assert 4 not in site.paxos_accepted
        assert site.paxos_accept(4, 3, ((0, True),))
        # The promise at the accepted ballot reports the verdicts.
        assert site.paxos_promise(4, 3) == ((0, True),)


class TestDriver:
    def test_decide_reaches_quorum_and_logs_everywhere(self):
        _, cluster = _negotiated_cluster(validate=False)
        trace = cluster.transport.begin("cleanup", 0)
        acks = cluster._paxos.decide(0, trace.index, [0, 1, 2])
        cluster.transport.end(trace)
        assert acks == 3
        verdicts = ((0, True), (1, True), (2, True))
        for sid in (0, 1, 2):
            assert cluster.sites[sid].paxos_accepted[trace.index] == (0, verdicts)

    def test_survivor_completes_from_logged_state(self):
        _, cluster = _negotiated_cluster(validate=False)
        trace = cluster.transport.begin("cleanup", 0)
        cluster._paxos.decide(0, trace.index, [0, 1, 2])
        cluster.transport.crash(0)
        committed = cluster._paxos.complete_as_survivor(
            1, trace.index, 0, [0, 1, 2], tx_name="buy"
        )
        assert committed is True
        # The survivor re-drove the accepts at ballot 1 and announced.
        assert cluster.sites[2].paxos_accepted[trace.index][0] == 1
        completes = [m for m in cluster.transport.trace if isinstance(m, Complete)]
        assert [(m.src, m.dst) for m in completes] == [(1, 2)]
        cluster.transport.abort(trace)

    def test_survivor_aborts_when_nothing_was_logged(self):
        _, cluster = _negotiated_cluster(validate=False)
        trace = cluster.transport.begin("cleanup", 0)
        cluster.transport.crash(0)
        # No acceptor ever logged an accept for this round: with the
        # ballot-1 promises in hand, ballot 0 can never complete behind
        # the survivor's back, so declaring it undecided is safe.
        with pytest.raises(QuorumUnreachable):
            cluster._paxos.complete_as_survivor(1, trace.index, 0, [0, 1, 2])
        cluster.transport.abort(trace)


class TestWinnerCrashBoundaries:
    """Crash the negotiation's winner at every decision-phase message
    boundary.  The arithmetic: during the violating round's sync the
    origin handles one ack per peer (``p - 1`` messages with ``p``
    participants), then one Phase2b per remote acceptor ack -- so
    ``crash_after = handled + (p - 1) + k`` kills it right after the
    k-th Phase2b (k=0: before the decision phase ever starts)."""

    def _crash_origin_at(self, k, seed=1):
        workload, cluster = _negotiated_cluster(validate=True)
        violating, twin_result = _drive_to_violation(cluster, seed=seed)
        participants = twin_result.participants
        origin = violating.site
        handled = cluster.transport._handled.get(origin, 0)
        cluster.transport.faults = FaultPlan(
            crash_after={origin: handled + (len(participants) - 1) + k}
        )
        return workload, cluster, violating, origin

    def test_crash_before_decision_aborts_cleanly(self):
        _, cluster, violating, origin = self._crash_origin_at(k=0)
        before = {
            sid: {c.pretty() for c in server.local_treaty.constraints}
            for sid, server in cluster.sites.items()
        }
        with pytest.raises(Unavailable):
            cluster.submit(violating.tx_name, violating.params)
        assert cluster.transport.is_down(origin)
        # Nothing was decided: no survivor treaty changed, nothing to
        # catch up at recovery, and the retry commits.
        for sid, server in cluster.sites.items():
            if sid != origin:
                assert {
                    c.pretty() for c in server.local_treaty.constraints
                } == before[sid]
        assert not cluster._missed_runs
        cluster.transport.faults = None
        cluster.recover_site(origin)
        assert cluster.submit(violating.tx_name, violating.params).synced

    @pytest.mark.parametrize("k", [1, 2])
    def test_crash_mid_quorum_completes_via_survivor(self, k):
        _, cluster, violating, origin = self._crash_origin_at(k=k)
        result = cluster.submit(violating.tx_name, violating.params)
        # The round committed without its coordinator: a survivor
        # finished the decision from the acceptors' logged state and
        # the install ran over the live participants (the validate
        # oracle checked H1/H2 and treaty agreement along the way).
        assert result.synced
        assert cluster.transport.is_down(origin)
        assert origin not in result.participants
        assert len(result.participants) >= 1
        assert any(isinstance(m, Complete) for m in cluster.transport.trace)
        # The crashed coordinator re-runs T' deterministically at
        # recovery and rejoins with the treaty-table treaty (asserted
        # by validate mode inside recover_site).
        assert origin in cluster._missed_runs
        cluster.transport.faults = None
        cluster.recover_site(origin)
        assert not cluster._missed_runs

    def test_acceptor_crash_after_logging_still_commits(self):
        """An *acceptor* (not the coordinator) dying right after it
        logged its accept: the quorum forms from the rest, the round
        commits over the live participants, and the dead acceptor
        catches up at recovery."""
        workload, cluster = _negotiated_cluster(validate=True)
        violating, twin_result = _drive_to_violation(cluster, seed=1)
        origin = violating.site
        acceptor = next(
            s for s in sorted(twin_result.participants)[:3] if s != origin
        )
        # A fault-free negotiated probe driven through the identical
        # sequence measures when the acceptor handles its Phase2a.
        _, probe = _negotiated_cluster(validate=False)
        _drive_to_violation(probe, seed=1)
        start = len(probe.transport.trace)
        probe.submit(violating.tx_name, violating.params)
        inbound = [
            m for m in probe.transport.trace[start:] if m.dst == acceptor
        ]
        fatal = next(
            i for i, m in enumerate(inbound) if isinstance(m, Phase2a)
        ) + 1
        handled = cluster.transport._handled.get(acceptor, 0)
        cluster.transport.faults = FaultPlan(
            crash_after={acceptor: handled + fatal}
        )
        result = cluster.submit(violating.tx_name, violating.params)
        assert result.synced
        assert cluster.transport.is_down(acceptor)
        assert acceptor not in result.participants
        # Its accept is durable even though the ack never arrived.
        assert cluster.sites[acceptor].paxos_accepted
        assert acceptor in cluster._missed_runs
        cluster.transport.faults = None
        cluster.recover_site(acceptor)
        assert not cluster._missed_runs
        req = workload.next_request(random.Random(9), site=acceptor)
        assert cluster.submit(req.tx_name, req.params) is not None

    def test_double_crash_aborts_cleanly_or_commits(self):
        """Coordinator crashes mid-quorum, then the first completing
        survivor crashes mid-completion: the next candidate either
        finishes from the same durable state or proves it cannot reach
        a quorum and aborts cleanly -- never a divergent install."""
        _, cluster = _negotiated_cluster(validate=True)
        violating, twin_result = _drive_to_violation(cluster, seed=1)
        participants = twin_result.participants
        origin = violating.site
        survivor = min(s for s in participants if s != origin)
        # The first survivor handles exactly one completion message
        # (the ballot-1 Phase2b); everything before that -- announce,
        # sync, its own ballot-0 Phase2a -- it handles identically in
        # the fault-free flow, which a probe cluster measures.
        _, probe = _negotiated_cluster(validate=False)
        _drive_to_violation(probe, seed=1)
        start = len(probe.transport.trace)
        probe.submit(violating.tx_name, violating.params)
        inbound = [
            m for m in probe.transport.trace[start:] if m.dst == survivor
        ]
        upto_accept = next(
            i for i, m in enumerate(inbound) if isinstance(m, Phase2a)
        ) + 1
        cluster.transport.faults = FaultPlan(
            crash_after={
                origin: cluster.transport._handled.get(origin, 0)
                + (len(participants) - 1)
                + 1,
                survivor: cluster.transport._handled.get(survivor, 0)
                + upto_accept
                + 1,
            }
        )
        before = {
            sid: {c.pretty() for c in server.local_treaty.constraints}
            for sid, server in cluster.sites.items()
        }
        try:
            result = cluster.submit(violating.tx_name, violating.params)
        except Unavailable:
            # Only one site is left: no quorum of the 3-acceptor set
            # remains, so the round aborts with every treaty intact.
            live = set(cluster.site_ids) - cluster.transport.down
            for sid in live:
                assert {
                    c.pretty()
                    for c in cluster.sites[sid].local_treaty.constraints
                } == before[sid]
        else:
            assert result.synced
        assert cluster.transport.is_down(origin)
        # Recovery brings everyone back and the workload continues.
        cluster.transport.faults = None
        for sid in sorted(cluster.transport.down):
            cluster.recover_site(sid)
        assert not cluster._missed_runs
        assert cluster.submit(violating.tx_name, violating.params) is not None


class TestConcurrentWinnerCrash:
    def test_window_winner_crash_completes_via_survivor(self):
        """The concurrent kernel's version of the survivable window: a
        single-entry window whose winner crashes after the first
        Phase2b ack still commits through a survivor."""
        _, cluster = _negotiated_cluster(validate=True)
        twin_workload, twin = _negotiated_cluster(validate=False)
        rng = random.Random(1)
        violating = None
        for _ in range(600):
            req = twin_workload.next_request(rng, site=rng.randrange(3))
            outcome = twin.submit_window([(req.tx_name, req.params)]).outcomes[0]
            if outcome.synced:
                violating = req
                participants = outcome.participants
                break
            cluster.submit_window([(req.tx_name, req.params)])
        assert violating is not None
        origin = violating.site
        handled = cluster.transport._handled.get(origin, 0)
        cluster.transport.faults = FaultPlan(
            crash_after={origin: handled + (len(participants) - 1) + 1}
        )
        result = cluster.submit_window([(violating.tx_name, violating.params)])
        outcome = result.outcomes[0]
        assert not outcome.failed and outcome.synced
        assert cluster.transport.is_down(origin)
        assert origin not in outcome.participants
        cluster.transport.faults = None
        cluster.recover_site(origin)
        assert not cluster._missed_runs


class TestCreditNeutrality:
    @given(seed=st.integers(0, 2**16), sizes=st.lists(
        st.integers(min_value=2, max_value=6), min_size=1, max_size=3
    ))
    @settings(max_examples=examples(10), deadline=None)
    def test_credit_never_changes_which_outcomes_commit(self, seed, sizes):
        """Arbitration policy moves ties between contenders; it must
        never move a transaction between commit and abort.  Both
        clusters run validate-mode, so the oracle also checks each
        kernel stayed internally consistent while disagreeing on
        winners."""
        clusters = {
            policy: _negotiated_cluster(
                negotiation=NegotiationSpec(policy=policy),
            )[1]
            for policy in ("priority", "credit")
        }
        workload = MicroWorkload(
            num_items=18, refill=12, num_sites=3, initial_qty="refill"
        )
        rng = random.Random(seed)
        for size in sizes:
            window = [
                (req.tx_name, req.params)
                for req in (
                    workload.next_request(rng, site=rng.randrange(3))
                    for _ in range(size)
                )
            ]
            # Default timestamps tie the whole window: the regime
            # where the policies actually pick different winners.
            results = {
                policy: cluster.submit_window(window)
                for policy, cluster in clusters.items()
            }
            assert [o.failed for o in results["priority"].outcomes] == [
                o.failed for o in results["credit"].outcomes
            ]


class TestWinnerCrashExperiment:
    def test_end_to_end_report(self):
        report = run_winner_crash(seed=0)
        for flag in (
            "committed",
            "origin_down_at_completion",
            "origin_excluded",
            "recovered_clean",
            "post_recovery_committed",
        ):
            assert report[flag], f"winner-crash flag {flag} not set: {report}"
        assert report["survivors"] >= 1
        assert report["complete_messages"] >= 1


class TestFairnessFacade:
    def test_fairness_stats_surface_contested_elections(self):
        workload, cluster = _negotiated_cluster(
            negotiation=NegotiationSpec(policy="credit"),
            num_items=6,
            refill=8,
        )
        rng = random.Random(3)
        for _ in range(40):
            window = [
                (req.tx_name, req.params)
                for req in (
                    workload.next_request(rng, site=rng.randrange(3))
                    for _ in range(6)
                )
            ]
            cluster.submit_window(window)
            if cluster.fairness_stats()["elections"] > 0:
                break
        stats = cluster.fairness_stats()
        assert stats["policy"] == "credit"
        assert stats["elections"] > 0, "windows never contested an election"
        assert set(stats["per_site"]) <= set(cluster.site_ids)
        for row in stats["per_site"].values():
            assert {"wins", "losses", "max_consecutive_losses"} <= set(row)


@functools.lru_cache(maxsize=None)
def _micro_run(num_sites, negotiation=None):
    """3,000 seeded requests through a ``micro`` cluster (shared by the
    placement tests below; clusters are not mutated after the run).
    ``negotiation=None`` names no spec at all."""
    workload = MicroWorkload(
        num_items=18, refill=12, num_sites=num_sites, initial_qty="refill"
    )
    options = {} if negotiation is None else {"negotiation": negotiation}
    cluster = workload.build_homeostasis(strategy="equal-split", **options)
    rng = random.Random(1)
    rounds = []
    for _ in range(3000):
        req = workload.next_request(rng, site=rng.randrange(num_sites))
        result = cluster.submit(req.tx_name, req.params)
        if result.synced:
            rounds.append((result.site, result.participants))
    return cluster, tuple(rounds)


class TestCoordinatorFirstPlacement:
    @given(
        origin=st.integers(0, 6),
        others=st.sets(st.integers(0, 6), max_size=6),
        acceptors=st.sampled_from([1, 3, 5]),
    )
    def test_acceptor_set_always_contains_the_origin(self, origin, others, acceptors):
        participants = others | {origin}
        chosen = NegotiationSpec(acceptors=acceptors).acceptors_for(
            origin, participants
        )
        assert chosen[0] == origin
        assert len(chosen) == min(acceptors, len(participants))
        # The rest are the lowest other participants.
        assert list(chosen[1:]) == sorted(participants - {origin})[: len(chosen) - 1]

    @pytest.mark.parametrize(
        "num_sites, rounds, messages, digest",
        [(2, 798, 3192, "c769702d271351d6"), (4, 1324, 23832, "3ad26581243e2603")],
    )
    def test_default_spec_is_two_phase_commit(
        self, num_sites, rounds, messages, digest
    ):
        """F = 0 puts the decision at the coordinator: a cluster that
        names no spec and an explicit one-acceptor spec send the same
        messages, none of them Phase2a/Phase2b -- the trace of a
        coordinator deciding alone, pinned by its digest -- and the
        only trace of the decision is one logged accept at each
        round's origin."""
        default, cleanups = _micro_run(num_sites)
        explicit, _ = _micro_run(num_sites, NegotiationSpec(acceptors=1))
        assert default.negotiation == DEFAULT_NEGOTIATION
        assert default.transport.trace == explicit.transport.trace
        assert len(default.transport.trace) == messages
        text = "\n".join(
            f"{type(m).__name__} {m.src} {m.dst}" for m in default.transport.trace
        )
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
        assert not any(
            isinstance(m, (Phase2a, Phase2b)) for m in default.transport.trace
        )
        assert len(cleanups) == default.stats.negotiations == rounds
        for sid, server in default.sites.items():
            accepts = [
                r for r in server.wal.records() if r["kind"] == "paxos_accept"
            ]
            assert len(accepts) == sum(origin == sid for origin, _ in cleanups)

    def test_three_acceptors_on_four_sites_ask_fewer_remote_acceptors(self):
        """The coordinator's own accept is local, so counting it into
        the acceptor set saves a Phase2a in every round whose origin
        lowest-first placement would have left out."""
        cluster, cleanups = _micro_run(4, NegotiationSpec())
        sent = sum(isinstance(m, Phase2a) for m in cluster.transport.trace)
        lowest_first = sum(
            len([a for a in sorted(participants)[:3] if a != origin])
            for origin, participants in cleanups
        )
        assert lowest_first == 2994
        assert sent == 2648 < lowest_first


class TestBoundedAcceptorState:
    def test_acceptor_state_holds_only_open_rounds(self):
        workload, cluster = _negotiated_cluster(validate=False)
        transport = cluster.transport
        held = []
        end = transport.end

        def end_and_measure(trace):
            held.append(max(len(s.paxos_accepted) for s in cluster.sites.values()))
            end(trace)

        transport.end = end_and_measure
        rng = random.Random(1)
        while cluster.stats.negotiations < 200:
            req = workload.next_request(rng, site=rng.randrange(3))
            cluster.submit(req.tx_name, req.params)
            open_rounds = len(transport._open)
            for server in cluster.sites.values():
                assert len(server.paxos_accepted) <= open_rounds
                assert len(server.paxos_promised) <= open_rounds
        # Not vacuous: every decided round held its entry until it ended.
        assert max(held) == 1
        # The WAL keeps every accept, and replay still rebuilds them all.
        server = cluster.sites[0]
        logged = {
            r["round"] for r in server.wal.records() if r["kind"] == "paxos_accept"
        }
        assert logged
        server._replay_paxos_state()
        assert set(server.paxos_accepted) == logged
