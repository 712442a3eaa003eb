"""Wall-clock transport: frames across an event loop, timeouts for real.

:class:`AsyncTransport` implements the :class:`~repro.protocol.
transport.Transport` contract (trace, negotiation contexts, scope
isolation, fault surface) against a running asyncio event loop.  The
synchronous kernel keeps calling :meth:`AsyncTransport.send` from its
single driver thread; what changes is what a send *is*:

- the message is lowered to a wire frame (:mod:`repro.runtime.codec`)
  and posted onto the destination site's **inbox queue**;
- one **inbox task** per site -- spawned at :meth:`register` time --
  drains that queue, decodes each frame, calls the site's ``handle``
  and resolves the sender's reply future with the encoded reply.
  Because every message for a site is handled inside its one inbox
  task, site state keeps the single-writer discipline without locks
  (the kernel thread's own accesses to site state never overlap a
  handle: it is blocked on the reply future while the task runs);
- the sender blocks on the reply future with a real wall-clock
  timeout.  Fault injection is physical: a dropped or partition-
  severed frame is simply never delivered and the sender raises
  :class:`~repro.protocol.transport.UnreachableError` only after
  waiting out its timer, exactly like a deployment discovering loss;
  a sub-timeout plan delay is an actual ``asyncio.sleep`` before the
  destination handles the frame.

Known crash-stops (``down`` sites) still refuse immediately -- the
failure detector already knows, no timer needed -- matching the
deterministic fabric, which is what keeps the two transports
producing identical traces on identical schedules (the differential
oracle's premise).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import time
from typing import Any

from repro.protocol.messages import Message
from repro.protocol.transport import Transport, TransportError, UnreachableError
from repro.runtime.codec import (
    decode_message,
    decode_payload,
    encode_message,
    encode_payload,
    value_from_wire,
    value_to_wire,
)

#: Inbox queue sentinel that shuts a site task down.
_CLOSE = object()

#: One queued delivery: (frame bytes or the close sentinel, the
#: sender's reply future, injected delay in wall seconds).
_InboxItem = tuple[object, "concurrent.futures.Future[bytes] | None", float]


class AsyncTransport(Transport):
    """A :class:`Transport` whose deliveries cross an asyncio loop as
    encoded wire frames, with wall-clock fault discovery."""

    def __init__(
        self,
        *,
        timeout_s: float = 5.0,
        delay_unit_s: float = 0.001,
        faults: Any = None,
    ) -> None:
        super().__init__(faults=faults)
        #: how long a sender waits on a reply before declaring the
        #: destination unreachable (the failure detector's timer)
        self.timeout_s = timeout_s
        #: wall seconds per fault-plan delay unit (plans speak ms of
        #: simulated latency; 0.001 injects them as real milliseconds)
        self.delay_unit_s = delay_unit_s
        #: wire accounting: every frame that crossed the loop
        self.frames_sent = 0
        self.bytes_sent = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._inboxes: dict[int, asyncio.Queue[_InboxItem]] = {}
        self._site_tasks: dict[int, asyncio.Task[None]] = {}

    # -- lifecycle -----------------------------------------------------------------

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach the running event loop (before any registration)."""
        self._loop = loop

    def register(self, site_id: int, endpoint: Any) -> None:
        """Register a site and spawn its inbox task on the loop."""
        if self._loop is None:
            raise TransportError(
                "AsyncTransport has no event loop; call bind_loop() first"
            )
        super().register(site_id, endpoint)
        queue: asyncio.Queue[_InboxItem] = asyncio.Queue()
        self._inboxes[site_id] = queue
        task = asyncio.run_coroutine_threadsafe(
            self._spawn_site(site_id, endpoint, queue), self._loop
        ).result()
        self._site_tasks[site_id] = task

    async def _spawn_site(
        self, site_id: int, endpoint: Any, queue: asyncio.Queue[_InboxItem]
    ) -> asyncio.Task[None]:
        return asyncio.get_running_loop().create_task(
            self._site_inbox(site_id, endpoint, queue),
            name=f"repro-site-{site_id}",
        )

    def close(self) -> None:
        """Stop every site inbox task (idempotent; loop must still run)."""
        if self._loop is None or self._loop.is_closed():
            return
        for sid, queue in self._inboxes.items():
            task = self._site_tasks.get(sid)
            if task is not None and not task.done():
                self._loop.call_soon_threadsafe(queue.put_nowait, (_CLOSE, None, 0.0))
        for task in self._site_tasks.values():
            if not task.done():
                asyncio.run_coroutine_threadsafe(
                    _join_or_cancel(task), self._loop
                ).result(timeout=5.0)

    # -- the site side -------------------------------------------------------------

    async def _site_inbox(
        self, site_id: int, endpoint: Any, queue: asyncio.Queue[_InboxItem]
    ) -> None:
        """One site's single-writer message loop.

        Frames are handled strictly in arrival order; a plan delay
        sleeps *inside* the task, so a delayed frame also delays the
        frames queued behind it (FIFO links, like a TCP stream).
        """
        while True:
            frame, reply, delay_s = await queue.get()
            if frame is _CLOSE:
                break
            if delay_s > 0.0:
                await asyncio.sleep(delay_s)
            try:
                msg = decode_message(frame)
                result = endpoint.handle(msg)
                wire_reply = encode_payload(
                    {"t": "reply", "v": value_to_wire(result)}
                )
            except BaseException as exc:  # propagate to the sender
                _resolve(reply, error=exc)
                continue
            _resolve(reply, result=wire_reply)

    # -- the sender side -------------------------------------------------------------

    def send(self, msg: Message) -> Any:
        """Deliver one message across the loop and await its reply.

        Same contract as the deterministic fabric -- undeliverable
        messages raise :class:`UnreachableError` and are recorded in
        ``undelivered``, delivered ones land in the trace -- but the
        discovery of silent loss (drops, partitions, over-delays)
        costs real wall-clock time: the sender waits out
        ``timeout_s`` before giving up, like any failure detector
        without an oracle.
        """
        delay, lost = self._attempt(msg)
        if lost is not None:
            # Silent loss: the frame never reaches the destination,
            # and the sender only learns by waiting out its timer --
            # real seconds, the honesty this runtime exists for.
            time.sleep(self.timeout_s)
            raise self._undeliverable(msg, lost)

        assert self._loop is not None  # an endpoint registered, so a loop is bound
        frame = encode_message(msg)
        reply_future: concurrent.futures.Future[bytes] = concurrent.futures.Future()
        queue = self._inboxes[msg.dst]
        self._loop.call_soon_threadsafe(
            queue.put_nowait, (frame, reply_future, delay * self.delay_unit_s)
        )
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        try:
            wire_reply = reply_future.result(
                timeout=self.timeout_s + delay * self.delay_unit_s
            )
        except concurrent.futures.TimeoutError:
            reply_future.cancel()
            raise self._undeliverable(msg, "timed out awaiting a reply") from None
        except UnreachableError:
            raise
        except BaseException:
            # The handler raised: the message *was* delivered (state
            # may have changed), so it belongs in the trace before the
            # error propagates -- same ordering as the sync fabric.
            self._record_delivered(msg, delay)
            raise
        self._record_delivered(msg, delay)
        # A plan-scheduled crash here is charged without re-sleeping:
        # the reply future already resolved, so the timer semantics
        # are the plan's.
        self._after_handling(msg)
        reply = decode_payload(wire_reply)
        return value_from_wire(reply["v"])


async def _join_or_cancel(task: asyncio.Task[None]) -> None:
    """Wait briefly for a site task to drain its close sentinel, then
    cancel it (runs on the transport's own loop)."""
    try:
        await asyncio.wait_for(asyncio.shield(task), 2.0)
    except asyncio.TimeoutError:
        task.cancel()
    except (asyncio.CancelledError, Exception):  # already torn down
        pass


def _resolve(
    reply: "concurrent.futures.Future[bytes] | None",
    result: bytes | None = None,
    error: BaseException | None = None,
) -> None:
    """Resolve a sender's reply future, tolerating the race where the
    sender already timed out and cancelled it."""
    if reply is None:
        return
    try:
        if error is not None:
            reply.set_exception(error)
        else:
            reply.set_result(result)
    except concurrent.futures.InvalidStateError:  # sender gave up
        pass
