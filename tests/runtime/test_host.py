"""AsyncClusterHost: the full protocol kernel over the event loop.

End-to-end checks that the host behaves like a cluster: commits and
negotiations run through real wire frames, crash/recover work, the
concurrent driver serves windows, and lifecycle teardown is clean.
"""

import pytest

from repro.protocol.config import build_cluster
from repro.protocol.homeostasis import Unavailable
from repro.protocol.messages import Outcome
from repro.runtime.cluster import AsyncClusterHost
from repro.workloads.micro import MicroWorkload


def _spec(**kwargs):
    workload = MicroWorkload(num_items=6, refill=6, num_sites=2)
    return workload.cluster_spec(strategy="equal-split", **kwargs)


class TestHost:
    def test_commits_and_negotiations_over_the_wire(self):
        with AsyncClusterHost(_spec()) as host:
            statuses = []
            for i in range(24):
                res = host.try_submit(f"Buy@s{i % 2}", {"item": i % 3})
                statuses.append(res.status)
            assert all(s is Outcome.COMMITTED for s in statuses)
            assert host.stats.negotiations > 0  # tight stock violated
            wire = host.wire_stats()
            assert wire["frames_sent"] > 0 and wire["bytes_sent"] > 0

    def test_build_cluster_facade(self):
        host = build_cluster(_spec(), kernel="async", timeout_s=2.0)
        try:
            assert isinstance(host, AsyncClusterHost)
            assert host.submit("Buy@s0", {"item": 0}).status is Outcome.COMMITTED
        finally:
            host.close()

    def test_crash_refuses_then_recovers(self):
        with AsyncClusterHost(_spec()) as host:
            host.crash_site(1)
            res = host.try_submit("Buy@s1", {"item": 0})
            assert res.status is Outcome.REFUSED
            with pytest.raises(Unavailable):
                host.submit("Buy@s1", {"item": 0})
            host.recover_site(1)
            assert host.try_submit("Buy@s1", {"item": 0}).status is Outcome.COMMITTED

    def test_global_state_consistent_after_sync(self):
        with AsyncClusterHost(_spec()) as host:
            for i in range(8):
                host.submit(f"Buy@s{i % 2}", {"item": i % 6})
            host.force_synchronize()
            state = host.global_state()
            assert state  # agreed-on global view exists

    def test_concurrent_driver_serves_windows(self):
        with AsyncClusterHost(_spec()) as host:
            result = host.submit_window(
                [("Buy@s0", {"item": 0}), ("Buy@s1", {"item": 1})]
            )
            assert all(
                o.status is Outcome.COMMITTED for o in result.outcomes
            )

    def test_driver_option_is_rejected(self):
        """There is one kernel, so nothing is left to select."""
        with pytest.raises(TypeError, match="driver"):
            AsyncClusterHost(_spec(), driver="concurrent")

    def test_rejects_wrong_transport_type(self):
        from repro.protocol.transport import Transport

        with pytest.raises(TypeError, match="AsyncTransport"):
            AsyncClusterHost(_spec(), transport=Transport())

    def test_use_after_close_raises(self):
        host = AsyncClusterHost(_spec())
        host.close()
        with pytest.raises(RuntimeError, match="closed"):
            host.submit("Buy@s0", {"item": 0})
        host.close()  # idempotent
