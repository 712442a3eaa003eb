"""The typed transport layer and participant-scoped negotiation.

Covers the acceptance criteria of the message-passing runtime:

- ``MessageStats`` is a derived view over the transport trace;
- cleanup rounds are scoped to the participant closure of the
  violation, with sync message counts proportional to the participant
  set rather than the cluster size;
- the simulator prices a negotiation from the RTT edges actually
  used (a UE<->UW violation on the Table 1 matrix costs ~128 ms, not
  the 744 ms cluster diameter);
- protocol execution stays observationally equivalent to serial
  execution under partial-overlap (geo-partitioned) deployments.
"""

import random

import pytest

from repro.lang.interp import evaluate
from repro.protocol.messages import (
    MessageStats,
    Prepare,
    SyncBroadcast,
    Vote,
)
from repro.protocol.transport import Transport, TransportError
from repro.sim.network import rtt_matrix_for
from repro.sim.runner import SimConfig, SimRequest, simulate
from repro.workloads.geo import GeoMicroWorkload
from repro.workloads.micro import MicroWorkload


class _Recorder:
    def __init__(self):
        self.received = []

    def handle(self, msg):
        self.received.append(msg)
        return ("ack", msg.dst)


class TestTransport:
    def test_send_delivers_and_traces(self):
        transport = Transport()
        a, b = _Recorder(), _Recorder()
        transport.register(0, a)
        transport.register(1, b)
        reply = transport.send(Vote(src=0, dst=1, tx_name="T"))
        assert reply == ("ack", 1)
        assert b.received and isinstance(b.received[0], Vote)
        assert transport.trace == b.received

    def test_unknown_destination_rejected(self):
        transport = Transport()
        transport.register(0, _Recorder())
        with pytest.raises(TransportError):
            transport.send(Vote(src=0, dst=7))

    def test_duplicate_registration_rejected(self):
        transport = Transport()
        transport.register(0, _Recorder())
        with pytest.raises(TransportError):
            transport.register(0, _Recorder())

    def test_negotiation_groups_messages(self):
        transport = Transport()
        for sid in range(3):
            transport.register(sid, _Recorder())
        with transport.negotiation("cleanup", origin=0) as neg:
            transport.send(Vote(src=0, dst=2))
            transport.send(SyncBroadcast(src=2, dst=0))
        transport.send(Vote(src=0, dst=1))  # outside the round
        assert neg.participants == (0, 2)
        assert neg.edges == ((0, 2),)
        assert neg.sync_message_count == 1
        assert len(transport.trace) == 3

    def test_negotiations_do_not_nest(self):
        transport = Transport()
        with pytest.raises(TransportError):
            with transport.negotiation("cleanup", origin=0):
                with transport.negotiation("cleanup", origin=0):
                    pass

    def test_message_stats_derived_from_trace(self):
        transport = Transport()
        for sid in range(3):
            transport.register(sid, _Recorder())
        with transport.negotiation("cleanup", origin=0):
            transport.send(Vote(src=0, dst=1))
            transport.send(SyncBroadcast(src=0, dst=1))
            transport.send(SyncBroadcast(src=1, dst=0))
        transport.send(Prepare(src=0, dst=2))
        stats = transport.message_stats()
        assert stats.sync_broadcasts == 2
        assert stats.vote_messages == 1
        assert stats.prepare_messages == 1
        assert stats.negotiations == 1
        assert stats.total() == 4


GROUPS = ((0, 1), (2, 3), (0, 4))


def _geo_workload(**kw):
    defaults = dict(
        groups=GROUPS, num_sites=5, items_per_group=4, refill=30,
        initial_qty="random", init_seed=3,
    )
    defaults.update(kw)
    return GeoMicroWorkload(**defaults)


def _drive_until_sync(cluster, workload, rng, group=None, limit=4000):
    """Submit requests until one triggers a negotiation (optionally of
    a specific replication group); returns the ClusterResult."""
    for _ in range(limit):
        req = workload.next_request(rng)
        if group is not None and req.family != f"Buy{group}":
            continue
        out = cluster.submit(req.tx_name, req.params)
        if out.synced:
            return out
    raise AssertionError("no negotiation occurred")


class TestParticipantScoping:
    def test_cleanup_round_scoped_to_group(self):
        workload = _geo_workload()
        cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
        rng = random.Random(0)
        out = _drive_until_sync(cluster, workload, rng, group=1)
        # Group 1 lives on sites (2, 3); nothing else may be involved.
        assert set(out.participants) == {2, 3}
        neg = cluster.transport.last_negotiation()
        assert neg.kind == "cleanup"
        assert set(neg.participants) == {2, 3}
        # Sync messages scale with the participant set, not the
        # 5-site cluster: p*(p-1) = 2, not 20.
        assert neg.sync_message_count == 2
        assert neg.edges == ((2, 3),)

    def test_sync_messages_proportional_to_participants(self):
        workload = _geo_workload()
        cluster = workload.build_homeostasis(strategy="equal-split")
        rng = random.Random(1)
        for _ in range(500):
            req = workload.next_request(rng)
            cluster.submit(req.tx_name, req.params)
        k = len(cluster.site_ids)
        negotiated = [
            n for n in cluster.transport.negotiations if n.kind == "cleanup"
        ]
        assert negotiated
        for neg in negotiated:
            p = len(neg.participants)
            assert p < k  # no group spans the full cluster
            assert neg.sync_message_count == p * (p - 1)

    def test_non_participants_untouched(self):
        workload = _geo_workload()
        cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
        rng = random.Random(2)
        before = {
            sid: cluster.sites[sid].engine.store.snapshot()
            for sid in cluster.site_ids
        }
        out = _drive_until_sync(cluster, workload, rng, group=1)
        assert set(out.participants) == {2, 3}
        # Sites 0, 1, 4 heard nothing: snapshots identical up to their
        # own local commits (none of group 1's objects changed there).
        for sid in (0, 1, 4):
            after = cluster.sites[sid].engine.store.snapshot()
            for name in before[sid]:
                if name.startswith("qty1"):
                    assert after.get(name) == before[sid][name]

    def test_stats_messages_match_trace(self):
        workload = _geo_workload()
        cluster = workload.build_homeostasis(strategy="equal-split")
        rng = random.Random(3)
        for _ in range(300):
            req = workload.next_request(rng)
            cluster.submit(req.tx_name, req.params)
        stats = cluster.stats.messages
        trace = cluster.transport.trace
        assert stats.sync_broadcasts == sum(
            isinstance(m, SyncBroadcast) for m in trace
        )
        assert stats.vote_messages == sum(isinstance(m, Vote) for m in trace)
        assert stats.total() == len(trace)
        assert isinstance(stats, MessageStats)

    def test_geo_equivalence_with_scoped_rounds(self):
        """Theorem 3.8 holds under partial-overlap deployments: scoped
        rounds leave non-participants stale but never observably so."""
        workload = _geo_workload(items_per_group=3, refill=20, init_seed=7)
        cluster = workload.build_homeostasis(strategy="equal-split", validate=True)
        rng = random.Random(7)
        schedule = [workload.next_request(rng) for _ in range(350)]
        logs = [cluster.submit(r.tx_name, r.params).log for r in schedule]
        state = dict(workload.initial_db)
        serial_logs = []
        for r in schedule:
            out = evaluate(
                workload.reference_transaction(r.tx_name), state, params=r.params
            )
            state = out.db
            serial_logs.append(out.log)
        assert logs == serial_logs
        final = cluster.global_state()
        for key in set(state) | set(final):
            assert state.get(key, 0) == final.get(key, 0), key
        # The forced global barrier converges every site afterwards.
        cluster.force_synchronize()

    def test_full_replication_still_involves_everyone(self):
        """The micro workload replicates across all sites, so scoping
        degenerates to the seed behaviour: K*(K-1) sync messages."""
        workload = MicroWorkload(num_items=4, refill=8, num_sites=3)
        cluster = workload.build_homeostasis(strategy="equal-split")
        rng = random.Random(4)
        for _ in range(120):
            req = workload.next_request(rng)
            out = cluster.submit(req.tx_name, req.params)
            if out.synced:
                assert out.participants == (0, 1, 2)
        stats = cluster.stats
        assert stats.messages.sync_broadcasts == stats.negotiations * 6


class TestEdgePricing:
    """A violation involving only sites A and B is priced from the
    A<->B edge of the Table 1 matrix."""

    def test_ue_uw_violation_costs_128_not_744(self):
        workload = GeoMicroWorkload(
            groups=((0, 1),), num_sites=5, items_per_group=10, refill=30,
            initial_qty="random", init_seed=1,
        )
        cluster = workload.build_homeostasis(strategy="equal-split")

        def request_fn(rng, replica):
            req = workload.next_request(rng, site=replica)
            return SimRequest(req.tx_name, req.params, req.lock_keys, family="Buy")

        config = SimConfig(
            mode="homeo",
            num_replicas=5,
            clients_per_replica=4,
            rtt_matrix=rtt_matrix_for(5),  # asymmetric Table 1 matrix
            solver_ms=0.0,
            max_txns=800,
            seed=0,
        )
        res = simulate(config, cluster, request_fn)
        synced = [r for r in res.records if r.kind == "sync"]
        assert synced, "expected negotiations"
        for r in synced:
            assert r.participants == (0, 1)
            assert r.comm_ms == pytest.approx(2 * 64.0)  # UE<->UW edge
            assert r.comm_ms != pytest.approx(2 * 372.0)  # not SG<->BR
        assert res.participant_histogram() == {2: len(
            [r for r in synced if r.start_ms >= res.measured_from_ms]
        )}
