"""One negotiation engine behind two entry points.

``submit`` hands a violation (or a watermark breach) to the wave
engine as a wave of one contender; ``submit_window`` hands it a whole
window.  The acceptance criteria:

- the same request stream through ``submit`` and through size-one
  ``submit_window`` calls is observationally identical -- logs, final
  state, round counters, installed treaties, message accounting;
- under a crash, ``submit`` raises ``Unavailable`` with the ``sites``
  and ``status`` the size-one window reports as its ``Outcome``;
- a window naming an unknown transaction is rejected whole, before
  anything is counted.
"""

import random

import pytest

from repro.protocol.faults import FaultPlan
from repro.protocol.homeostasis import AdaptiveSettings, ProtocolError, Unavailable
from repro.protocol.messages import Outcome
from repro.protocol.paxos_commit import DEFAULT_NEGOTIATION, NegotiationSpec
from repro.workloads.geo import GeoMicroWorkload
from repro.workloads.micro import MicroWorkload


def _micro():
    return MicroWorkload(num_items=3, refill=12, num_sites=3, initial_qty="refill")


def _geo():
    return GeoMicroWorkload(
        groups=((0, 1), (2, 3)), num_sites=4, items_per_group=2, refill=12
    )


def _fingerprints(cluster):
    return {
        sid: (
            server.treaty_round,
            frozenset(c.pretty() for c in server.local_treaty.constraints),
        )
        for sid, server in cluster.sites.items()
    }


@pytest.mark.parametrize("make_workload", [_micro, _geo], ids=["micro", "geo"])
@pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
# "legacy": the default spec (F = 0), whose trace is the historical
# single-coordinator one.
@pytest.mark.parametrize(
    "negotiation",
    [DEFAULT_NEGOTIATION, NegotiationSpec(), NegotiationSpec(policy="credit")],
    ids=["legacy", "priority", "credit"],
)
def test_submit_is_a_window_of_one(make_workload, adaptive, negotiation):
    workload = make_workload()
    options = dict(
        strategy="demand" if adaptive else "equal-split",
        adaptive=AdaptiveSettings(watermark=0.5, min_headroom=1) if adaptive else None,
        negotiation=negotiation,
        validate=True,
    )
    one, windowed = (workload.build_homeostasis(**options) for _ in range(2))
    rng = random.Random(7)
    for _ in range(250):
        req = workload.next_request(rng)
        want = one.submit(req.tx_name, req.params)
        (got,) = windowed.submit_window([(req.tx_name, req.params)]).outcomes
        assert (want.log, want.synced, want.participants, want.rebalanced) == (
            got.log,
            got.synced,
            got.participants,
            got.rebalance_participants,
        )
    # The comparison is not vacuous: both kinds of round ran.
    assert one.stats.negotiations > 0
    assert (one.stats.rebalances > 0) == adaptive
    assert one.global_state() == windowed.global_state()
    for name in ("submitted", "negotiations", "rebalances", "rounds", "timeouts"):
        assert getattr(one.stats, name) == getattr(windowed.stats, name), name
    assert _fingerprints(one) == _fingerprints(windowed)
    assert one.stats.messages == windowed.stats.messages


class TestFaultsMapBack:
    """``Unavailable`` carries what the engine recorded for the wave's
    one contender; the size-one window reports the same ``Outcome``."""

    def _twins_at_a_violation(self):
        """Two identical clusters stopped right before a request that
        negotiates over all three sites (found on a third twin)."""
        workload = _micro()
        scout, one, windowed = (
            workload.build_homeostasis(strategy="equal-split") for _ in range(3)
        )
        rng = random.Random(1)
        for _ in range(400):
            req = workload.next_request(rng, site=rng.randrange(3))
            result = scout.submit(req.tx_name, req.params)
            if result.synced and len(result.participants) == 3:
                return req, one, windowed
            one.submit(req.tx_name, req.params)
            windowed.submit_window([(req.tx_name, req.params)])
        raise AssertionError("no full-closure violation found")

    def test_origin_down_is_refused(self):
        req, one, windowed = self._twins_at_a_violation()
        for cluster in (one, windowed):
            cluster.crash_site(req.site)
        with pytest.raises(Unavailable) as exc_info:
            one.submit(req.tx_name, req.params)
        assert exc_info.value.sites == frozenset({req.site})
        assert exc_info.value.status is Outcome.REFUSED
        (out,) = windowed.submit_window([(req.tx_name, req.params)]).outcomes
        assert out.status is Outcome.REFUSED and out.failed

    def test_known_down_participant_is_refused_without_messages(self):
        req, one, windowed = self._twins_at_a_violation()
        peer = next(s for s in one.site_ids if s != req.site)
        for cluster in (one, windowed):
            cluster.crash_site(peer)
        sent = len(one.transport.trace)
        with pytest.raises(Unavailable) as exc_info:
            one.submit(req.tx_name, req.params)
        assert exc_info.value.sites == frozenset({peer})
        assert exc_info.value.status is Outcome.REFUSED
        assert len(one.transport.trace) == sent
        assert not one.transport.aborted_rounds()
        (out,) = windowed.submit_window([(req.tx_name, req.params)]).outcomes
        assert out.status is Outcome.REFUSED
        assert one.stats.timeouts == windowed.stats.timeouts == 1

    def test_crash_discovered_mid_round_is_unavailable(self):
        req, one, windowed = self._twins_at_a_violation()
        peer = next(s for s in one.site_ids if s != req.site)
        for cluster in (one, windowed):
            handled = cluster.transport._handled.get(peer, 0)
            cluster.transport.faults = FaultPlan(crash_after={peer: handled + 1})
        with pytest.raises(Unavailable) as exc_info:
            one.submit(req.tx_name, req.params)
        assert exc_info.value.sites == frozenset({peer})
        assert exc_info.value.status is Outcome.UNAVAILABLE
        (out,) = windowed.submit_window([(req.tx_name, req.params)]).outcomes
        assert out.status is Outcome.UNAVAILABLE
        for cluster in (one, windowed):
            assert len(cluster.transport.aborted_rounds()) == 1
            assert cluster.stats.timeouts == 1 and cluster.stats.negotiations == 0
        assert one.global_state() == windowed.global_state()


def test_rejected_window_counts_nothing():
    workload = _micro()
    cluster = workload.build_homeostasis(strategy="equal-split")
    before = cluster.global_state()
    with pytest.raises(ProtocolError, match="unknown transaction"):
        cluster.submit_window(
            [("Buy@s0", {"item": 0}), ("Buy@s1", {"item": 1}), ("Nope", None)]
        )
    assert cluster.stats.submitted == 0
    assert cluster.stats.committed_local == 0
    assert cluster.stats.sync_ratio == 0.0
    assert cluster.global_state() == before
