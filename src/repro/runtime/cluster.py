""":class:`AsyncClusterHost`: the protocol kernel over real concurrency.

The host assembles the asyncio runtime around the unmodified protocol
kernel (:class:`~repro.protocol.kernel.HomeostasisCluster`, both entry
points -- ``submit`` and ``submit_window``):

- a dedicated **event-loop thread** runs every site's inbox task (one
  task per :class:`~repro.protocol.site.SiteServer`, single-writer
  discipline -- see :mod:`repro.runtime.transport`);
- a single-worker **kernel executor** runs the protocol driver: all
  submissions funnel through it, so the kernel code stays exactly the
  code the deterministic tests verify, while its every inter-site
  message crosses the loop as a wire frame and its every timeout is
  wall-clock real.  Concurrent clients (the serve layer) pipeline
  through this executor: their transactions *queue* at the driver but
  their sockets, parsing, and replies overlap on the loop;
- the :class:`~repro.runtime.transport.AsyncTransport` bridges the
  two worlds.

Because the kernel serializes submissions, a fault-free host is
*deterministic given the submission order*: feeding the same schedule
to a host and to the in-process kernel must produce identical
commits, treaty installs, and final stores.  That is not an accident
but the correctness argument -- :mod:`repro.runtime.differential`
gates on it.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.protocol.homeostasis import ClusterResult
from repro.protocol.kernel import HomeostasisCluster, WindowResult
from repro.runtime.transport import AsyncTransport

if TYPE_CHECKING:
    from repro.protocol.config import ClusterSpec


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
        self._closed = False
        try:
            # Construction runs on the kernel thread too, so the
            # kernel is only ever touched from that one thread.
            self.cluster: HomeostasisCluster = self._run(
                HomeostasisCluster, spec, transport
            )
        except BaseException:
            self._teardown_threads()
            raise

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    # -- kernel-thread funnel ------------------------------------------------------

    def _run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` on the kernel driver thread and wait for it."""
        if self._closed:
            raise RuntimeError("AsyncClusterHost is closed")
        return self._kernel_pool.submit(fn, *args, **kwargs).result()

    async def run_on_kernel(
        self, fn: Callable[..., Any], *args: Any
    ) -> Any:
        """Awaitable twin of :meth:`_run` for loop-side callers (the
        serve layer submits client transactions through this)."""
        return await asyncio.wrap_future(self._kernel_pool.submit(fn, *args))

    # -- client API ----------------------------------------------------------------

    def submit(
        self, tx_name: str, params: Mapping[str, int] | None = None
    ) -> ClusterResult:
        """Run one transaction to completion (raises
        :class:`~repro.protocol.homeostasis.Unavailable` like the
        in-process kernel)."""
        return self._run(self.cluster.submit, tx_name, params)

    def try_submit(
        self, tx_name: str, params: Mapping[str, int] | None = None
    ) -> ClusterResult:
        """:meth:`submit` with unavailability mapped into
        ``result.status`` (see :class:`~repro.protocol.messages.Outcome`)."""
        return self._run(self.cluster.try_submit, tx_name, params)

    def submit_window(
        self,
        requests: Sequence[tuple[str, Mapping[str, int] | None]],
        timestamps: Sequence[int] | None = None,
    ) -> WindowResult:
        """Run a window of interleaved transactions to completion."""
        return self._run(self.cluster.submit_window, requests, timestamps)

    # -- protocol passthroughs -----------------------------------------------------

    def crash_site(self, sid: int) -> None:
        self._run(self.cluster.crash_site, sid)

    def recover_site(self, sid: int) -> tuple[int, ...]:
        return self._run(self.cluster.recover_site, sid)

    def force_synchronize(self) -> None:
        self._run(self.cluster.force_synchronize)

    def global_state(self) -> dict[str, int]:
        return self._run(self.cluster.global_state)

    def precompile_checks(self) -> int:
        return self._run(self.cluster.precompile_checks)

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
