"""AsyncClusterHost: the full protocol kernel over the event loop.

End-to-end checks that the host behaves like a cluster: commits and
negotiations run through real wire frames, crash/recover work, the
concurrent driver serves windows, and lifecycle teardown is clean.
The scheduler tests pin where each part of a submission runs: a head
inline on the loop, a round on the kernel thread, one turn at a time.
"""

import asyncio
import sys
import threading
import time

import pytest

from repro.protocol.config import build_cluster
from repro.protocol.faults import FaultPlan
from repro.protocol.homeostasis import Unavailable
from repro.protocol.kernel import HomeostasisCluster
from repro.protocol.messages import Outcome
from repro.protocol.site import SiteServer
from repro.runtime.client import ServeClient
from repro.runtime.cluster import AsyncClusterHost
from repro.runtime.differential import micro_case
from repro.runtime.serve import result_reply, serving
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


@pytest.fixture
def executions(monkeypatch):
    """The thread name of every ``SiteServer.execute`` call."""
    threads = []
    execute = SiteServer.execute

    def recorded(self, *args, **kwargs):
        threads.append(threading.current_thread().name)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(SiteServer, "execute", recorded)
    return threads


def _kernel_jobs(host, monkeypatch):
    """Every callable the host hands its kernel executor from now on."""
    jobs = []
    submit = host._kernel_pool.submit

    def recorded(fn, *args, **kwargs):
        jobs.append(fn)
        return submit(fn, *args, **kwargs)

    monkeypatch.setattr(host._kernel_pool, "submit", recorded)
    return jobs


class TestScheduler:
    def test_only_rounds_reach_the_kernel_thread(self, executions, monkeypatch):
        factory, schedule = micro_case(0)
        with AsyncClusterHost(factory()) as host:
            jobs = _kernel_jobs(host, monkeypatch)
            executions.clear()
            synced = 0
            for tx_name, params in schedule:
                jobs_before, executed_before = len(jobs), len(executions)
                result = host.try_submit(tx_name, params)
                assert executions[executed_before:] == ["repro-loop"]
                assert len(jobs) - jobs_before == int(result.synced)
                synced += result.synced
        assert 0 < synced < len(schedule), "schedule must mix clean and violating"

    def test_a_head_waits_for_the_round_before_it(self):
        factory, _ = micro_case(0)
        oracle = HomeostasisCluster(factory())
        prefix = []
        while not prefix or not oracle.try_submit(*prefix[-1]).synced:
            prefix.append(("Buy@s0", {"item": 0}))
            assert len(prefix) < 50, "never violated"
        clean = ("Buy@s1", {"item": 5})
        want = result_reply(oracle.try_submit(*clean))
        assert not want["synced"]

        # Every inter-site frame waits 40 ms: the round takes >= 100 ms.
        plan = FaultPlan(delay_rate=1.0, delay_ms=40.0)
        with AsyncClusterHost(factory(), faults=plan) as host, serving(
            host
        ) as address:
            cluster, stamps = host.cluster, {}
            head, round_ = cluster.submit_head, cluster.submit_round

            def stamped_head(tx_name, params=None):
                stamps[tx_name] = time.perf_counter()
                return head(tx_name, params)

            def stamped_round(pending):
                try:
                    return round_(pending)
                finally:
                    stamps["round done"] = time.perf_counter()

            cluster.submit_head, cluster.submit_round = stamped_head, stamped_round
            with ServeClient(*address) as first, ServeClient(*address) as second:
                for request in prefix[:-1]:
                    assert not first.submit(*request)["synced"]
                frames = host.transport.frames_sent
                violator = {}
                thread = threading.Thread(
                    target=lambda: violator.update(first.submit(*prefix[-1]))
                )
                thread.start()
                deadline = time.perf_counter() + 10.0
                while host.transport.frames_sent == frames:  # round not begun
                    assert time.perf_counter() < deadline
                    time.sleep(0.001)
                sent_at = time.perf_counter()
                got = second.submit(*clean)
                got_at = time.perf_counter()
                thread.join(timeout=30)
        assert violator["synced"]
        assert stamps["round done"] - stamps["Buy@s0"] >= 0.1
        # The clean head arrived mid-round and ran only once it ended.
        assert sent_at < stamps["round done"] < stamps["Buy@s1"] < got_at
        for field_name in ("status", "log", "synced", "site"):
            assert got[field_name] == want[field_name]

    def test_a_raising_head_leaves_the_scheduler_idle(self, executions, monkeypatch):
        with AsyncClusterHost(_spec()) as host:
            jobs = _kernel_jobs(host, monkeypatch)
            with pytest.raises(KeyError):
                host.submit("Buy@s0", {})  # the guard reads 'item'
            executions.clear()
            result = asyncio.run_coroutine_threadsafe(
                host.try_submit_async("Buy@s0", {"item": 0}), host._loop
            ).result(timeout=5.0)
            assert result.status is Outcome.COMMITTED and not result.synced
            assert executions == ["repro-loop"] and jobs == []

    def test_concurrent_clients_lose_no_update(self):
        # More client threads than cores, switching every microsecond:
        # a head racing a round (or another head) would lose a write.
        clients, per_client, refill = 6, 20, 6
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with AsyncClusterHost(_spec(validate=True)) as host:
                results = []

                def client(n):
                    for i in range(per_client):
                        item = (n + i) % 6
                        result = host.try_submit(f"Buy@s{n % 2}", {"item": item})
                        results.append(result)

                threads = [
                    threading.Thread(target=client, args=(n,)) for n in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                state = host.global_state()
                assert host.stats.submitted == clients * per_client
                assert host.stats.negotiations > 0
        finally:
            sys.setswitchinterval(switch)
        assert all(r.status is Outcome.COMMITTED for r in results)
        assert len(results) == clients * per_client
        # Buy decrements, and refills to refill - 1 at one: after b buys
        # an item holds refill - 1 - (b - 1) % (refill - 1), in any order
        # (the stock is the base object plus each site's delta).
        buys = [0] * 6
        for n in range(clients):
            for i in range(per_client):
                buys[(n + i) % 6] += 1
        for item, b in enumerate(buys):
            bases = ("qty", "qty__d0", "qty__d1")
            stock = sum(state[f"{base}[{item}]"] for base in bases)
            assert stock == refill - 1 - (b - 1) % (refill - 1)

    def test_blocking_call_on_the_loop_is_refused(self):
        with AsyncClusterHost(_spec()) as host:

            async def blocking_submit():
                return host.submit("Buy@s0", {"item": 0})

            with pytest.raises(RuntimeError, match="own event loop"):
                asyncio.run_coroutine_threadsafe(
                    blocking_submit(), host._loop
                ).result(timeout=5.0)
