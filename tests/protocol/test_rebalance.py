"""The adaptive reallocation runtime: watermark refreshes and their
arbitration.

Covers the rebalance subsystem's acceptance criteria:

- a commit that burns past the low-watermark triggers a proactive,
  participant-scoped refresh with a real ``RebalanceRequest`` on the
  wire, *before* any violation occurs, and the refresh shifts slack
  toward the hot site (validate mode asserts H1/H2 and untouched
  non-participants at every install, so the global treaty is never
  weakened);
- in a contended window a rebalance desire arbitrates like any other
  negotiation: it loses the election to a higher-priority violator,
  concedes with a wire-level ``VoteReply``, and retries in the next
  wave;
- windows with refreshes interleaved stay serially equivalent.
"""

from repro.lang.interp import evaluate
from repro.protocol.homeostasis import AdaptiveSettings
from repro.protocol.messages import RebalanceRequest, VoteReply
from repro.workloads.micro import MicroWorkload


def _sequential_cluster(**adaptive_kwargs):
    workload = MicroWorkload(
        num_items=2, refill=40, num_sites=2, initial_qty="refill"
    )
    cluster = workload.build_homeostasis(
        strategy="demand",
        validate=True,
        adaptive=AdaptiveSettings(**adaptive_kwargs),
    )
    return workload, cluster


def _drain_until_rebalance(cluster, item=0, limit=60):
    """Alternate single-site purchases until a refresh fires."""
    for i in range(limit):
        outcome = cluster.submit("Buy@s0", {"item": item})
        if outcome.rebalanced:
            return i, outcome
    raise AssertionError(f"no rebalance within {limit} submissions")


class TestWatermarkRefresh:
    def test_refresh_fires_before_any_violation(self):
        _workload, cluster = _sequential_cluster(watermark=0.5)
        _i, outcome = _drain_until_rebalance(cluster)
        # The triggering transaction itself committed locally...
        assert not outcome.synced
        assert outcome.rebalanced == (0, 1)
        # ...the refresh ran as its own negotiation round...
        assert cluster.stats.rebalances == 1
        rounds = [n for n in cluster.transport.negotiations if n.kind == "rebalance"]
        assert len(rounds) == 1
        assert rounds[0].participants == (0, 1)
        # ...and no violation was involved.
        assert cluster.stats.negotiations == 0

    def test_windowed_refresh_is_a_rebalance_round_too(self):
        """The same refresh through ``submit_window`` opens its round
        as kind ``rebalance`` -- it must not be counted with the
        violation cleanups (``Transport.cleanup_rounds``)."""
        _workload, cluster = _sequential_cluster(watermark=0.5)
        for _ in range(60):
            result = cluster.submit_window([("Buy@s0", {"item": 0})])
            if result.outcomes[0].rebalances:
                break
        else:
            raise AssertionError("no rebalance within 60 windows")
        (group,) = result.waves[0]
        assert group.rebalance and group.participants == (0, 1)
        (trace,) = cluster.transport.negotiations
        assert trace.index == group.negotiation_index
        assert trace.kind == "rebalance"
        assert cluster.stats.rebalances == 1 and cluster.stats.negotiations == 0
        assert cluster.transport.cleanup_rounds() == []

    def test_rebalance_request_on_the_wire(self):
        cluster = _sequential_cluster(watermark=0.5)[1]
        _drain_until_rebalance(cluster)
        requests = [
            m for m in cluster.transport.trace if isinstance(m, RebalanceRequest)
        ]
        assert requests, "refresh must announce itself"
        assert requests[0].src == 0 and requests[0].dst == 1
        assert any("qty" in obj for obj in requests[0].objects)

    def test_refresh_shifts_slack_to_the_hot_site(self):
        cluster = _sequential_cluster(watermark=0.5)[1]
        site = cluster.sites[0]
        before = dict(site.install_headroom)
        _drain_until_rebalance(cluster)
        after = site.install_headroom
        # All purchases came from site 0, so the demand-weighted
        # refresh must grant site 0 more headroom than the zero-demand
        # initial split did.
        assert sum(after.values()) > 0
        assert max(after.values()) >= max(before.values())

    def test_message_stats_count_rebalance_traffic(self):
        cluster = _sequential_cluster(watermark=0.5)[1]
        _drain_until_rebalance(cluster)
        stats = cluster.stats.messages
        assert stats.rebalance_requests >= 1
        # A rebalance is a negotiation round in the trace-derived view.
        assert stats.negotiations == cluster.stats.rebalances


class TestContendedRebalance:
    def _contended_window(self):
        """One window where site 1's violation outranks site 0's
        refresh desire: tight budgets make site-1 buys violate while a
        site-0 commit breaches its watermark in the same wave.  The
        violators carry earlier arrival stamps, so the election goes
        to the cleanup and the refresh must concede."""
        workload = MicroWorkload(num_items=1, refill=8, num_sites=2)
        cluster = workload.build_homeostasis(
            strategy="demand",
            validate=True,
            adaptive=AdaptiveSettings(watermark=0.9, min_headroom=1),
        )
        window = [("Buy@s0", {"item": 0})] + [("Buy@s1", {"item": 0})] * 4
        timestamps = [5, 0, 0, 0, 0]
        return workload, cluster, window, timestamps

    def test_losing_rebalance_concedes_and_retries(self):
        _workload, cluster, window, timestamps = self._contended_window()
        result = cluster.submit_window(window, timestamps=timestamps)
        lost = [
            g
            for wave in result.waves
            for g in wave
            if g.rebalance_losers and not g.rebalance
        ]
        assert lost, "expected a refresh to lose an election to a violator"
        group = lost[0]
        winner_site = result.outcomes[group.winner].site
        # Co-located desires arbitrate site-locally for free; the
        # cross-site one must concede on the wire with a VoteReply
        # naming the winning violator.
        cross = [
            idx
            for idx in group.rebalance_losers
            if result.outcomes[idx].site != winner_site
        ]
        assert cross, "expected a cross-site refresh loser"
        loser_site = result.outcomes[cross[0]].site
        replies = [
            m
            for m in cluster.transport.trace
            if isinstance(m, VoteReply)
            and m.src == loser_site
            and m.dst == winner_site
        ]
        assert replies and replies[0].winner_site == winner_site
        # The desire was re-examined after the winner's install: either
        # a later wave ran the refresh, or the winner's demand-weighted
        # install already cleared the breach.  Both outcomes leave no
        # carried desire behind (the window quiesced).
        later = [
            g for wave in result.waves for g in wave if g.rebalance
        ]
        assert cluster.stats.rebalances == len(later)

    def test_window_with_refreshes_stays_serially_equivalent(self):
        workload, cluster, window, timestamps = self._contended_window()
        result = cluster.submit_window(window, timestamps=timestamps)
        state = dict(workload.initial_db)
        logs = {}
        for idx in result.commit_order:
            name, params = window[idx]
            out = evaluate(
                workload.reference_transaction(name), state, params=params
            )
            state = out.db
            logs[idx] = out.log
        for idx, outcome in enumerate(result.outcomes):
            assert outcome.log == logs[idx], f"log diverged for request {idx}"
        final = cluster.global_state()
        for key in set(state) | set(final):
            assert state.get(key, 0) == final.get(key, 0), key

    def test_windowed_refresh_determinism(self):
        runs = []
        for _ in range(2):
            _workload, cluster, window, timestamps = self._contended_window()
            trace = []
            for _ in range(6):
                result = cluster.submit_window(window, timestamps=timestamps)
                trace.append(
                    (
                        tuple(result.commit_order),
                        tuple(
                            (g.winner, g.rebalance, g.rebalance_losers)
                            for wave in result.waves
                            for g in wave
                        ),
                        cluster.stats.rebalances,
                    )
                )
            runs.append(trace)
        assert runs[0] == runs[1]
