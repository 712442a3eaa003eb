""":class:`AsyncClusterHost`: the protocol kernel over real concurrency.

The host assembles the asyncio runtime around the unmodified protocol
kernel (:class:`~repro.protocol.kernel.HomeostasisCluster`, both entry
points -- ``submit`` and ``submit_window``):

- a dedicated **event-loop thread** runs every site's inbox task (one
  task per :class:`~repro.protocol.site.SiteServer`, single-writer
  discipline -- see :mod:`repro.runtime.transport`), the serve layer's
  connections, and the host's **scheduler**;
- the scheduler hands out *turns* at the kernel in arrival order, and
  a turn runs where its work can: a submission's message-free head
  (:meth:`~repro.protocol.kernel.HomeostasisCluster.submit_head`:
  origin check, execution, watermark test) runs inline on the loop,
  so a clean commit never leaves it; only a step that sends -- a
  round (:meth:`~repro.protocol.kernel.HomeostasisCluster.
  submit_round`, on the attempt the head already executed), a window,
  recovery, ``force_synchronize``, construction -- goes to a
  single-worker **kernel executor**, because a send blocks its thread
  until the destination's inbox task (on the loop) replies.  A turn
  ends when its round does, so one thread at a time touches kernel
  state and a head never overtakes a submission queued before it;
- the :class:`~repro.runtime.transport.AsyncTransport` bridges the
  two threads.

Loop-side callers (the serve layer) await :meth:`AsyncClusterHost.
try_submit_async` and :meth:`~AsyncClusterHost.inline`; the blocking
API for other threads posts the same turns onto the loop and waits.

Because the scheduler serializes submissions, a fault-free host is
*deterministic given the submission order*: feeding the same schedule
to a host and to the in-process kernel must produce identical
commits, treaty installs, and final stores.  That is not an accident
but the correctness argument -- :mod:`repro.runtime.differential`
gates on it.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple, Sequence

from repro.protocol.homeostasis import ClusterResult, Unavailable
from repro.protocol.kernel import HomeostasisCluster, PendingRound, WindowResult
from repro.runtime.transport import AsyncTransport

if TYPE_CHECKING:
    from repro.protocol.config import ClusterSpec


class _KernelJob(NamedTuple):
    """What a turn's loop-side step returns to finish on the kernel
    thread: ``fn(*args)`` may send."""

    fn: Callable[..., Any]
    args: tuple[Any, ...]


class AsyncClusterHost:
    """A homeostasis cluster whose sites live on an asyncio event loop.

    Constructed through :func:`repro.protocol.config.build_cluster`
    with ``kernel="async"``; accepts the same :class:`ClusterSpec` as
    the in-process kernel plus the wall-clock knobs below.  Use as a
    context manager (or call :meth:`close`) -- the host owns threads.
    """

    def __init__(
        self,
        spec: "ClusterSpec",
        *,
        transport: AsyncTransport | None = None,
        timeout_s: float = 5.0,
        delay_unit_s: float = 0.001,
        faults: Any = None,
    ) -> None:
        if transport is None:
            transport = AsyncTransport(
                timeout_s=timeout_s, delay_unit_s=delay_unit_s, faults=faults
            )
        elif not isinstance(transport, AsyncTransport):
            raise TypeError(
                "the async kernel needs an AsyncTransport, got "
                f"{type(transport).__name__}"
            )
        self.spec = spec
        self.transport = transport
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="repro-loop", daemon=True
        )
        self._loop_thread.start()
        transport.bind_loop(self._loop)
        self._kernel_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-kernel"
        )
        #: turns waiting to run, in arrival order, and whether a kernel
        #: job holds the current one (loop thread only)
        self._turns: deque[tuple[Callable[[], Any], Any]] = deque()
        self._kernel_busy = False
        self._closed = False
        try:
            # Construction registers every site, a blocking hop onto
            # the loop, so it is a kernel step.
            self.cluster: HomeostasisCluster = self._call(
                partial(_KernelJob, HomeostasisCluster, (spec, transport))
            )
        except BaseException:
            self._teardown_threads()
            raise

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    # -- the scheduler (loop thread only) ------------------------------------------
    #
    # A turn is a *step*: a callable run on the loop that returns its
    # result, or a _KernelJob to finish on the kernel thread.  Turns run
    # in arrival order; while a kernel job runs, later turns queue.

    def _enqueue(self, step: Callable[[], Any], out: Any) -> None:
        """Queue one turn whose result goes to ``out`` (an asyncio or a
        concurrent future), and run it at once if the kernel is idle."""
        self._turns.append((step, out))
        if not self._kernel_busy:
            self._run_turns()

    def _run_turns(self) -> None:
        while self._turns:
            step, out = self._turns.popleft()
            if out.cancelled():  # its awaiter gave up before its turn
                continue
            try:
                value = step()
                job = (
                    self._kernel_pool.submit(value.fn, *value.args)
                    if isinstance(value, _KernelJob)
                    else None
                )
            except Exception as exc:
                out.set_exception(exc)
                continue
            if job is None:
                out.set_result(value)
                continue
            self._kernel_busy = True
            job.add_done_callback(partial(self._post_kernel_done, out))
            return

    def _post_kernel_done(self, out: Any, job: "Future[Any]") -> None:
        # Runs on the kernel thread as the job finishes.
        if not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._kernel_done, job, out)

    def _kernel_done(self, job: "Future[Any]", out: Any) -> None:
        self._kernel_busy = False
        if not out.cancelled():
            if job.exception() is not None:
                out.set_exception(job.exception())
            else:
                out.set_result(job.result())
        self._run_turns()

    def _turn(self, step: Callable[[], Any]) -> "asyncio.Future[Any]":
        out = self._loop.create_future()
        self._enqueue(step, out)
        return out

    def _submit_step(
        self, tx_name: str, params: Mapping[str, int] | None
    ) -> ClusterResult | _KernelJob:
        head = self.cluster.submit_head(tx_name, params)
        if isinstance(head, PendingRound):
            return _KernelJob(self.cluster.submit_round, (head,))
        return head

    async def inline(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run a message-free ``fn`` on the loop at its turn."""
        return await self._turn(partial(fn, *args))

    async def try_submit_async(
        self, tx_name: str, params: Mapping[str, int] | None = None
    ) -> ClusterResult:
        """:meth:`try_submit` for loop-side callers: the head runs on the
        loop, and only a round goes to the kernel thread."""
        try:
            return await self._turn(partial(self._submit_step, tx_name, params))
        except Unavailable as exc:
            return self.cluster.unavailable_result(tx_name, exc)

    def _call(self, step: Callable[[], Any]) -> Any:
        """Queue one turn from a thread other than the loop's and wait
        for its result."""
        if self._closed:
            raise RuntimeError("AsyncClusterHost is closed")
        if threading.current_thread() is self._loop_thread:
            raise RuntimeError(
                "blocking AsyncClusterHost call on its own event loop; "
                "await the scheduler coroutine instead"
            )
        out: Future[Any] = Future()
        self._loop.call_soon_threadsafe(self._enqueue, step, out)
        return out.result()

    # -- client API ----------------------------------------------------------------

    def submit(
        self, tx_name: str, params: Mapping[str, int] | None = None
    ) -> ClusterResult:
        """Run one transaction to completion (raises
        :class:`~repro.protocol.homeostasis.Unavailable` like the
        in-process kernel)."""
        return self._call(partial(self._submit_step, tx_name, params))

    def try_submit(
        self, tx_name: str, params: Mapping[str, int] | None = None
    ) -> ClusterResult:
        """:meth:`submit` with unavailability mapped into
        ``result.status`` (see :class:`~repro.protocol.messages.Outcome`)."""
        try:
            return self.submit(tx_name, params)
        except Unavailable as exc:
            return self.cluster.unavailable_result(tx_name, exc)

    def submit_window(
        self,
        requests: Sequence[tuple[str, Mapping[str, int] | None]],
        timestamps: Sequence[int] | None = None,
    ) -> WindowResult:
        """Run a window of interleaved transactions to completion."""
        return self._call(
            partial(_KernelJob, self.cluster.submit_window, (requests, timestamps))
        )

    # -- protocol passthroughs -----------------------------------------------------

    def crash_site(self, sid: int) -> None:
        self._call(partial(self.cluster.crash_site, sid))

    def recover_site(self, sid: int) -> tuple[int, ...]:
        return self._call(partial(_KernelJob, self.cluster.recover_site, (sid,)))

    def force_synchronize(self) -> None:
        self._call(partial(_KernelJob, self.cluster.force_synchronize, ()))

    def global_state(self) -> dict[str, int]:
        return self._call(self.cluster.global_state)

    def precompile_checks(self) -> int:
        return self._call(self.cluster.precompile_checks)

    @property
    def stats(self):
        return self.cluster.stats

    def wire_stats(self) -> dict[str, int]:
        """Frames and bytes that actually crossed the event loop."""
        return {
            "frames_sent": self.transport.frames_sent,
            "bytes_sent": self.transport.bytes_sent,
        }

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Stop the site tasks, the loop thread, and the kernel pool
        (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.transport.close()
        self._teardown_threads()

    def _teardown_threads(self) -> None:
        self._kernel_pool.shutdown(wait=True)
        if not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=5.0)
            self._loop.close()

    def __enter__(self) -> "AsyncClusterHost":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
