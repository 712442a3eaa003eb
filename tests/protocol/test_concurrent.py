"""The concurrent cleanup runtime: racing violators and a real vote.

Covers the acceptance criteria of the concurrent kernel:

- two or more transactions violate treaties over overlapping objects
  in the same window; exactly one wins the election, with real
  ``Vote``/``VoteReply`` messages in the transport trace;
- losers abort and re-run after the winner's negotiation installs new
  treaties, and the final ``global_state()`` equals a serial
  reference execution in window commit order;
- negotiations over disjoint participant closures proceed in
  parallel: their transport rounds' open/close intervals overlap
  instead of serializing.
"""

import random

import pytest

from repro.lang.interp import evaluate
from repro.protocol.homeostasis import ProtocolError
from repro.protocol.messages import SyncBroadcast, Vote, VoteReply
from repro.protocol.transport import Transport, TransportError
from repro.workloads.geo import GeoMicroWorkload
from repro.workloads.micro import MicroWorkload


def _race_window(num_per_site=3):
    """A window guaranteed to make both sites violate on item 0: with
    refill=4 and equal-split treaties each site's budget for the item
    is ~1 decrement, and the window issues three from each site."""
    workload = MicroWorkload(num_items=2, refill=4, num_sites=2)
    cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
    window = [
        (f"Buy@s{s}", {"item": 0})
        for _ in range(num_per_site)
        for s in (0, 1)
    ]
    return workload, cluster, window


def _serial_replay(workload, window, result):
    state = dict(workload.initial_db)
    logs = {}
    for idx in result.commit_order:
        name, params = window[idx]
        out = evaluate(workload.reference_transaction(name), state, params=params)
        state = out.db
        logs[idx] = out.log
    return state, logs


class TestRacingViolators:
    def test_racing_violators_elect_one_winner(self):
        workload, cluster, window = _race_window()
        result = cluster.submit_window(window)
        assert result.contended
        first_wave = result.waves[0]
        assert len(first_wave) == 1
        group = first_wave[0]
        # At least two violators raced over item 0, from both sites.
        assert len(group.members) >= 2
        assert group.contender_sites == (0, 1)
        # Exactly one winner per group, chosen by the lowest
        # (timestamp, site, txn_seq) tuple: the first site-0 violator.
        assert group.winner == min(group.members)
        winner_out = result.outcomes[group.winner]
        assert winner_out.synced and winner_out.lost_votes == 0

    def test_vote_and_arbitration_messages_on_the_wire(self):
        _workload, cluster, window = _race_window()
        result = cluster.submit_window(window)
        group = result.waves[0][0]
        trace = next(
            n for n in cluster.transport.negotiations
            if n.index == group.negotiation_index
        )
        votes = [m for m in trace.messages if isinstance(m, Vote)]
        replies = [m for m in trace.messages if isinstance(m, VoteReply)]
        # Cross-site contenders exchanged priority claims both ways...
        assert {(m.src, m.dst) for m in votes} == {(0, 1), (1, 0)}
        for vote in votes:
            assert vote.txn_seq >= 0
        # ...and every cross-site loser conceded to the winner.
        assert replies
        winner_site = result.outcomes[group.winner].site
        for reply in replies:
            assert reply.dst == winner_site
            assert reply.winner_site == winner_site

    def test_losers_rerun_after_treaty_install(self):
        _workload, cluster, window = _race_window()
        result = cluster.submit_window(window)
        group = result.waves[0][0]
        winner_out = result.outcomes[group.winner]
        for loser in group.losers:
            out = result.outcomes[loser]
            assert out.lost_votes >= 1
            # The loser's effect lands after the winner's negotiation.
            assert out.commit_seq > winner_out.commit_seq
        # Everything in the window eventually committed.
        assert sorted(result.commit_order) == list(range(len(window)))
        assert all(o.commit_seq >= 0 for o in result.outcomes)

    def test_final_state_matches_serial_reference(self):
        workload, cluster, window = _race_window()
        result = cluster.submit_window(window)
        assert result.contended
        state, logs = _serial_replay(workload, window, result)
        for idx, out in enumerate(result.outcomes):
            assert out.log == logs[idx], f"log diverged for request {idx}"
        final = cluster.global_state()
        for key in set(state) | set(final):
            assert state.get(key, 0) == final.get(key, 0), key

    def test_timestamp_outranks_site(self):
        """A later-arriving site-0 violator loses to an earlier site-1
        one when the caller supplies real arrival stamps."""
        workload = MicroWorkload(num_items=2, refill=4, num_sites=2)
        cluster = workload.build_homeostasis(strategy="equal-split")
        window = [(f"Buy@s{s}", {"item": 0}) for _ in range(3) for s in (1, 0)]
        result = cluster.submit_window(window, timestamps=list(range(len(window))))
        group = result.waves[0][0]
        # Site 1 issued the first (lowest-stamp) violating attempt.
        assert result.outcomes[group.winner].site == 1

    def test_window_determinism(self):
        runs = []
        for _ in range(2):
            workload, cluster, window = _race_window()
            result = cluster.submit_window(window)
            runs.append(
                (
                    [(o.index, o.log, o.synced, o.lost_votes, o.commit_seq)
                     for o in result.outcomes],
                    result.commit_order,
                    [type(m).__name__ for m in cluster.transport.trace],
                    cluster.global_state(),
                )
            )
        assert runs[0] == runs[1]

    def test_randomized_windows_stay_serial_equivalent(self):
        """Many windows of random interleaved submissions: every
        window's logs match the serial replay in commit order."""
        workload = MicroWorkload(num_items=4, refill=8, num_sites=2)
        cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
        rng = random.Random(13)
        state = dict(workload.initial_db)
        contested = 0
        for _ in range(60):
            window = []
            for _ in range(4):
                req = workload.next_request(rng)
                window.append((req.tx_name, req.params))
            result = cluster.submit_window(window)
            contested += result.contended
            for idx in result.commit_order:
                name, params = window[idx]
                out = evaluate(
                    workload.reference_transaction(name), state, params=params
                )
                state = out.db
                assert out.log == result.outcomes[idx].log
        assert contested > 0, "expected at least one real race"
        final = cluster.global_state()
        for key in set(state) | set(final):
            assert state.get(key, 0) == final.get(key, 0), key

    def test_single_submissions_still_work(self):
        """The inherited per-transaction path is unchanged."""
        workload = MicroWorkload(num_items=3, refill=6, num_sites=2)
        cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
        rng = random.Random(3)
        for _ in range(80):
            req = workload.next_request(rng)
            out = cluster.submit(req.tx_name, req.params)
            assert out.log is not None
        assert cluster.stats.negotiations > 0

    def test_unknown_transaction_rejected(self):
        workload = MicroWorkload(num_items=2, refill=4, num_sites=2)
        cluster = workload.build_homeostasis(strategy="equal-split")
        with pytest.raises(ProtocolError):
            cluster.submit_window([("NoSuchTx", {})])

    def test_timestamps_must_match_requests(self):
        workload = MicroWorkload(num_items=2, refill=4, num_sites=2)
        cluster = workload.build_homeostasis(strategy="equal-split")
        with pytest.raises(ProtocolError):
            cluster.submit_window([("Buy@s0", {"item": 0})], timestamps=[0, 1])


class TestParallelNegotiations:
    def _geo(self):
        workload = GeoMicroWorkload(
            groups=((0, 1), (2, 3)), num_sites=4, items_per_group=2, refill=4
        )
        cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
        window = [(f"Buy0@s{s}", {"item": 0}) for s in (0, 1, 0, 1)]
        window += [(f"Buy1@s{s}", {"item": 0}) for s in (2, 3, 2, 3)]
        return workload, cluster, window

    def test_disjoint_closures_do_not_serialize(self):
        _workload, cluster, window = self._geo()
        result = cluster.submit_window(window)
        first_wave = result.waves[0]
        assert len(first_wave) == 2, "expected two disjoint conflict groups"
        scopes = [set(g.scope) for g in first_wave]
        assert scopes[0] & scopes[1] == set()
        negs = {n.index: n for n in cluster.transport.negotiations}
        a = negs[first_wave[0].negotiation_index]
        b = negs[first_wave[1].negotiation_index]
        # Both rounds were open at once: interleaved, not serialized.
        assert a.overlaps(b)
        assert a.wave == b.wave == 0
        # Each round's messages stayed inside its own scope.
        for trace, group in zip((a, b), first_wave):
            assert set(trace.participants) <= set(group.scope)
            assert trace.sync_message_count == len(group.participants) * (
                len(group.participants) - 1
            )

    def test_parallel_wave_stays_serial_equivalent(self):
        workload, cluster, window = self._geo()
        result = cluster.submit_window(window)
        state, logs = _serial_replay(workload, window, result)
        for idx, out in enumerate(result.outcomes):
            assert out.log == logs[idx]
        final = cluster.global_state()
        for key in set(state) | set(final):
            assert state.get(key, 0) == final.get(key, 0), key

    def test_non_participants_untouched_by_wave(self):
        """Sites outside both groups' closures hear nothing."""
        workload = GeoMicroWorkload(
            groups=((0, 1), (2, 3)), num_sites=5, items_per_group=2, refill=4
        )
        cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
        window = [(f"Buy0@s{s}", {"item": 0}) for s in (0, 1, 0, 1)]
        result = cluster.submit_window(window)
        assert result.contended
        for trace in cluster.transport.negotiations:
            for msg in trace.messages:
                assert msg.src != 4 and msg.dst != 4


class TestConcurrentTransportContexts:
    def test_overlapping_scopes_rejected(self):
        transport = Transport()
        transport.begin("cleanup", 0, scope=frozenset({0, 1}))
        with pytest.raises(TransportError):
            transport.begin("cleanup", 1, scope=frozenset({1, 2}))

    def test_scoped_inside_exclusive_rejected(self):
        transport = Transport()
        with transport.negotiation("cleanup", 0):
            with pytest.raises(TransportError):
                transport.begin("cleanup", 1, scope=frozenset({2, 3}))

    def test_messages_attributed_by_scope(self):
        class _Ack:
            def handle(self, msg):
                return True

        transport = Transport()
        for sid in range(4):
            transport.register(sid, _Ack())
        a = transport.begin("cleanup", 0, scope=frozenset({0, 1}))
        b = transport.begin("cleanup", 2, scope=frozenset({2, 3}))
        transport.send(SyncBroadcast(src=0, dst=1))
        transport.send(SyncBroadcast(src=2, dst=3))
        transport.send(SyncBroadcast(src=1, dst=0))
        transport.end(b)
        transport.end(a)
        assert [m.src for m in a.messages] == [0, 1]
        assert [m.src for m in b.messages] == [2]
        assert a.overlaps(b) and b.overlaps(a)

    def test_unattributable_message_rejected(self):
        class _Ack:
            def handle(self, msg):
                return True

        transport = Transport()
        for sid in range(5):
            transport.register(sid, _Ack())
        transport.begin("cleanup", 0, scope=frozenset({0, 1}))
        transport.begin("cleanup", 2, scope=frozenset({2, 3}))
        with pytest.raises(TransportError):
            transport.send(SyncBroadcast(src=4, dst=0))

    def test_ending_unopened_round_rejected(self):
        transport = Transport()
        trace = transport.begin("cleanup", 0)
        transport.end(trace)
        with pytest.raises(TransportError):
            transport.end(trace)

    def test_sequential_rounds_do_not_overlap(self):
        transport = Transport()
        with transport.negotiation("cleanup", 0) as a:
            pass
        with transport.negotiation("cleanup", 1) as b:
            pass
        assert not a.overlaps(b)
