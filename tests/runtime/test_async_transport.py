"""AsyncTransport: real deliveries, real timeouts, same contract.

Exercises the wall-clock transport against a mini host (a hand-rolled
loop thread + recorder endpoints) without the full protocol stack:

- replies cross the loop intact (typed values restored);
- the trace and scope attribution match the synchronous fabric;
- drops and severed edges cost the sender its timeout and raise
  :class:`UnreachableError`; known crash-stops refuse immediately;
- crash-after-handling marks the site down with the handled state
  applied;
- wire accounting counts every frame that crossed the loop.
"""

import asyncio
import threading
import time

import pytest

from repro.protocol.faults import FaultPlan, Partition
from repro.protocol.messages import CleanupRun, SyncBroadcast, Vote
from repro.protocol.transport import TransportError, UnreachableError
from repro.runtime.transport import AsyncTransport


class _Recorder:
    def __init__(self, reply=True):
        self.received = []
        self.reply = reply

    def handle(self, msg):
        self.received.append(msg)
        return self.reply


class _Failing:
    def handle(self, msg):
        raise RuntimeError("handler exploded")


@pytest.fixture()
def loop_thread():
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)

    def _run():
        asyncio.set_event_loop(loop)
        loop.run_forever()

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    yield loop
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=5)
    loop.close()


def _make(loop, *, faults=None, timeout_s=0.05, endpoints=2, reply=True):
    transport = AsyncTransport(timeout_s=timeout_s, faults=faults)
    transport.bind_loop(loop)
    recorders = [_Recorder(reply=reply) for _ in range(endpoints)]
    for sid, rec in enumerate(recorders):
        transport.register(sid, rec)
    return transport, recorders


class TestDelivery:
    def test_send_delivers_and_replies(self, loop_thread):
        transport, recs = _make(loop_thread)
        reply = transport.send(Vote(src=0, dst=1, tx_name="T"))
        assert reply is True
        assert len(recs[1].received) == 1
        assert recs[1].received[0] == Vote(src=0, dst=1, tx_name="T")
        transport.close()

    def test_typed_reply_values_cross_the_loop(self, loop_thread):
        transport = AsyncTransport(timeout_s=1.0)
        transport.bind_loop(loop_thread)

        class _Site:
            def handle(self, msg):
                return ((1, 0, 2), {"stock[4]"})

        transport.register(0, _Recorder())
        transport.register(1, _Site())
        log, written = transport.send(CleanupRun(src=0, dst=1, tx_name="T"))
        assert log == (1, 0, 2) and written == {"stock[4]"}
        transport.close()

    def test_trace_matches_sync_fabric(self, loop_thread):
        transport, _ = _make(loop_thread, endpoints=3)
        with transport.negotiation("cleanup", origin=0) as neg:
            transport.send(Vote(src=0, dst=2))
            transport.send(SyncBroadcast(src=2, dst=0))
        transport.send(Vote(src=0, dst=1))
        assert neg.participants == (0, 2)
        assert neg.sync_message_count == 1
        assert len(transport.trace) == 3
        transport.close()

    def test_unregistered_destination_rejected(self, loop_thread):
        transport, _ = _make(loop_thread)
        with pytest.raises(TransportError):
            transport.send(Vote(src=0, dst=9))
        transport.close()

    def test_handler_exception_propagates_after_tracing(self, loop_thread):
        transport = AsyncTransport(timeout_s=1.0)
        transport.bind_loop(loop_thread)
        transport.register(0, _Recorder())
        transport.register(1, _Failing())
        with pytest.raises(RuntimeError, match="handler exploded"):
            transport.send(Vote(src=0, dst=1))
        assert len(transport.trace) == 1  # delivered: state may have changed
        transport.close()

    def test_send_on_the_loop_thread_refuses_at_once(self, loop_thread):
        # The reply needs the loop the caller is blocking: refuse
        # instead of waiting out the timer and blaming a live site.
        transport, recs = _make(loop_thread, timeout_s=5.0)

        def send_on_loop():
            start = time.monotonic()
            try:
                transport.send(Vote(src=0, dst=1))
            except TransportError as exc:
                return exc, time.monotonic() - start
            return None, time.monotonic() - start

        error, elapsed = asyncio.run_coroutine_threadsafe(
            _call(send_on_loop), loop_thread
        ).result(timeout=10)
        assert isinstance(error, TransportError)
        assert "event loop" in str(error)
        assert elapsed < 0.5
        assert recs[1].received == [] and transport.undelivered == []
        assert transport.send(Vote(src=0, dst=1)) is True  # off the loop
        transport.close()

    def test_wire_accounting(self, loop_thread):
        transport, _ = _make(loop_thread)
        transport.send(Vote(src=0, dst=1))
        transport.send(SyncBroadcast(src=1, dst=0, updates=(("x", 1),)))
        assert transport.frames_sent == 2
        assert transport.bytes_sent > 0
        transport.close()


class TestFaults:
    def test_known_down_refuses_immediately(self, loop_thread):
        transport, _ = _make(loop_thread, timeout_s=5.0)
        transport.down.add(1)
        start = time.monotonic()
        with pytest.raises(UnreachableError):
            transport.send(Vote(src=0, dst=1))
        assert time.monotonic() - start < 1.0  # no timer paid
        assert len(transport.undelivered) == 1
        transport.close()

    def test_drop_costs_the_timeout(self, loop_thread):
        faults = FaultPlan(seed=0, drop_rate=1.0)
        transport, recs = _make(loop_thread, faults=faults, timeout_s=0.05)
        start = time.monotonic()
        with pytest.raises(UnreachableError):
            transport.send(Vote(src=0, dst=1))
        assert time.monotonic() - start >= 0.05  # timer actually paid
        assert recs[1].received == []  # frame never delivered
        assert transport.frames_sent == 0
        transport.close()

    def test_severed_edge_unreachable(self, loop_thread):
        faults = FaultPlan(
            seed=0,
            partitions=(Partition.separating({0}, {1}),),
        )
        transport, recs = _make(loop_thread, faults=faults, timeout_s=0.02)
        with pytest.raises(UnreachableError):
            transport.send(Vote(src=0, dst=1))
        assert recs[1].received == []
        transport.close()

    def test_crash_after_handling(self, loop_thread):
        faults = FaultPlan(seed=0, crash_after={1: 1})
        transport, recs = _make(loop_thread, faults=faults, timeout_s=1.0)
        with pytest.raises(UnreachableError):
            transport.send(Vote(src=0, dst=1))
        # the crashing message WAS handled (state changed), then the
        # site halted before replying
        assert len(recs[1].received) == 1
        assert 1 in transport.down
        transport.close()

    def test_close_is_idempotent(self, loop_thread):
        transport, _ = _make(loop_thread)
        transport.send(Vote(src=0, dst=1))
        transport.close()
        transport.close()


async def _call(fn):
    """Run ``fn`` synchronously on the running loop's thread."""
    return fn()
