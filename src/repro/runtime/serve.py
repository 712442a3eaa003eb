"""``repro-serve``: a homeostasis cluster behind loopback sockets.

The console entry point (``[project.scripts]``) boots an
:class:`~repro.runtime.cluster.AsyncClusterHost` for one of the
standard workloads and accepts client connections on a TCP listener.
Clients speak the same length-prefixed frame format as the inter-site
wire (:mod:`repro.runtime.codec`), carrying small request/response
dicts:

==============  =======================================  ==============================
request ``t``   fields                                   response ``t``
==============  =======================================  ==============================
``submit``      ``tx`` (str), ``params`` (str -> int)    ``result`` (status, site, log,
                                                         synced) -- unknown transactions
                                                         come back ``status="aborted"``
``stats``       --                                       ``stats`` (protocol counters,
                                                         wire accounting, global state)
``ping``        --                                       ``ok``
``shutdown``    --                                       ``ok``, then the server drains
                                                         and exits
==============  =======================================  ==============================

Malformed frames and requests (an unknown ``t``, a ``params`` value
that is not an integer) get an ``{"t": "error"}`` reply and the
connection is closed (a framing error leaves no boundary to
resynchronize on).  So does a request the kernel fails on: the
traceback is logged, that one connection ends, the listener and every
other connection keep serving.
Each connection is one asyncio task on the host's event loop.
Submissions and ``stats`` requests from concurrent clients take turns
at the host's scheduler (:mod:`repro.runtime.cluster`), which
serializes them: a clean commit runs inline on the loop, and only a
negotiation round leaves it for the kernel thread -- clients contend
for the protocol, not for locks.

The listener prints ``repro-serve listening on HOST:PORT`` on stdout
once bound (``--port 0`` picks an ephemeral port; harnesses scrape
the line).
"""

from __future__ import annotations

import argparse
import asyncio
import concurrent.futures
import logging
import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.protocol.homeostasis import ClusterResult
from repro.protocol.messages import Outcome
from repro.runtime.client import ServeClient
from repro.runtime.cluster import AsyncClusterHost
from repro.runtime.codec import (
    CodecError,
    decode_payload,
    encode_payload,
    read_frame,
)

#: Workload names ``--workload`` accepts.
WORKLOADS = ("micro", "geo", "tpcc")

log = logging.getLogger(__name__)


def _int_params(params: Any) -> dict[str, int]:
    """A submit request's ``params``, checked: transactions take
    integers, and what arrives here is whatever a client sent."""
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise CodecError("submit 'params' must be an object")
    for key, value in params.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise CodecError(
                f"submit param {key!r} must be an integer, got "
                f"{type(value).__name__}"
            )
    return params


def _build_host(
    workload: str,
    *,
    strategy: str | None,
    seed: int,
    timeout_s: float,
    items: int | None = None,
    refill: int | None = None,
) -> AsyncClusterHost:
    """Boot the named workload's cluster (``items``/``refill`` shrink
    the stock so short runs still violate treaties and exercise the
    negotiation wire path)."""
    if workload == "micro":
        from repro.workloads.micro import MicroWorkload

        spec = MicroWorkload(
            num_items=items if items is not None else 100,
            refill=refill if refill is not None else 100,
        ).cluster_spec(strategy=strategy or "optimized", seed=seed)
    elif workload == "geo":
        from repro.workloads.geo import GeoMicroWorkload

        spec = GeoMicroWorkload(
            items_per_group=items if items is not None else 12,
            refill=refill if refill is not None else 24,
        ).cluster_spec(strategy=strategy or "equal-split", seed=seed)
    elif workload == "tpcc":
        from repro.workloads.tpcc import TpccWorkload

        spec = TpccWorkload().cluster_spec(
            strategy=strategy or "optimized", seed=seed
        )
    else:
        raise ValueError(f"unknown workload {workload!r}; expected {WORKLOADS}")
    return AsyncClusterHost(spec, timeout_s=timeout_s)


class _Server:
    """One listener bound to one host (the serve loop's state)."""

    def __init__(self, host: AsyncClusterHost) -> None:
        self.host = host
        self.shutdown = asyncio.Event()
        self.connections = 0

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            while not self.shutdown.is_set():
                request: dict[str, Any] = {}
                try:
                    frame = await read_frame(reader)
                    if frame is None:  # client hung up cleanly
                        break
                    request = decode_payload(frame)
                    try:
                        reply = await self.dispatch(request)
                    except CodecError:
                        raise
                    except Exception as exc:
                        # The kernel's failure, not the client's: keep
                        # the listener up, tell this client, move on.
                        log.exception("request %r failed", request)
                        reply = {
                            "t": "error",
                            "reason": f"internal error: {type(exc).__name__}",
                        }
                except CodecError as exc:
                    reply = {"t": "error", "reason": str(exc)}
                writer.write(encode_payload(reply))
                await writer.drain()
                if reply["t"] == "error" or request.get("t") == "shutdown":
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        kind = request.get("t")
        if kind == "ping":
            return {"t": "ok"}
        if kind == "shutdown":
            self.shutdown.set()
            return {"t": "ok"}
        if kind == "stats":
            return await self.host.inline(self.snapshot_stats)
        if kind == "submit":
            tx_name = request.get("tx")
            if not isinstance(tx_name, str):
                raise CodecError("submit needs 'tx' (str)")
            params = _int_params(request.get("params"))
            if tx_name not in self.host.cluster.tx_home:
                # The serve layer's own rejection: never reached the
                # protocol, so it is an abort, not an unavailability.
                return result_reply(
                    ClusterResult(
                        log=(), site=-1, synced=False, status=Outcome.ABORTED
                    )
                )
            return result_reply(await self.host.try_submit_async(tx_name, params))
        raise CodecError(f"unknown request type {kind!r}")

    def snapshot_stats(self) -> dict[str, Any]:
        """The ``stats`` reply (message-free: runs inline at its turn)."""
        stats = self.host.cluster.stats
        return {
            "t": "stats",
            "submitted": stats.submitted,
            "committed": stats.committed_local,
            "negotiations": stats.negotiations,
            "rebalances": stats.rebalances,
            "timeouts": stats.timeouts,
            "recoveries": stats.recoveries,
            "rounds": stats.rounds,
            "sync_ratio": stats.sync_ratio,
            "wire": self.host.wire_stats(),
            "global_state": self.host.cluster.global_state(),
        }


def result_reply(result: ClusterResult) -> dict[str, Any]:
    """The ``result`` reply a client receives for ``result``."""
    return {
        "t": "result",
        "status": result.status.value,
        "site": result.site,
        "log": list(result.log),
        "synced": result.synced,
    }


async def serve(
    host: AsyncClusterHost,
    bind_host: str,
    port: int,
    *,
    on_listening: Callable[[tuple[str, int]], None] | None = None,
) -> None:
    """Accept and serve connections until a client sends ``shutdown``
    (``on_listening`` gets the bound address, for in-process callers
    that pass ``port=0``)."""
    server_state = _Server(host)
    server = await asyncio.start_server(
        server_state.handle_connection, bind_host, port
    )
    addr = server.sockets[0].getsockname()
    print(f"repro-serve listening on {addr[0]}:{addr[1]}", flush=True)
    if on_listening is not None:
        on_listening((addr[0], addr[1]))
    async with server:
        await server_state.shutdown.wait()
    print(
        f"repro-serve shutting down after {server_state.connections} "
        "connection(s)",
        flush=True,
    )


@contextmanager
def serving(host: AsyncClusterHost) -> Iterator[tuple[str, int]]:
    """Serve ``host`` in-process on an ephemeral loopback port for the
    duration; yields the address, and shuts the listener down at exit."""
    listening: concurrent.futures.Future[tuple[str, int]] = (
        concurrent.futures.Future()
    )
    served = asyncio.run_coroutine_threadsafe(
        serve(host, "127.0.0.1", 0, on_listening=listening.set_result), host._loop
    )
    address = listening.result(timeout=30.0)
    try:
        yield address
    finally:
        with ServeClient(*address) as client:
            client.shutdown()
        served.result(timeout=30.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve a homeostasis cluster over loopback sockets: each site "
            "is an asyncio task, each inter-site message a wire frame."
        ),
    )
    parser.add_argument(
        "--workload", choices=WORKLOADS, default="micro",
        help="workload whose cluster to boot (default: micro)",
    )
    parser.add_argument(
        "--strategy", default=None,
        help="treaty strategy override (default: the workload's own)",
    )
    parser.add_argument("--seed", type=int, default=0, help="optimizer seed")
    parser.add_argument(
        "--items", type=int, default=None,
        help="item count override (micro/geo); small values raise contention",
    )
    parser.add_argument(
        "--refill", type=int, default=None,
        help="stock refill override (micro/geo); small values force violations",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    parser.add_argument(
        "--port", type=int, default=7737,
        help="TCP port (0 picks an ephemeral port and prints it)",
    )
    parser.add_argument(
        "--timeout-s", type=float, default=5.0,
        help="inter-site reply timeout in wall seconds",
    )
    args = parser.parse_args(argv)

    cluster_host = _build_host(
        args.workload,
        strategy=args.strategy,
        seed=args.seed,
        timeout_s=args.timeout_s,
        items=args.items,
        refill=args.refill,
    )
    try:
        # The serve loop runs on the host's own event loop so client
        # tasks and site inbox tasks share one scheduler.
        asyncio.run_coroutine_threadsafe(
            serve(cluster_host, args.host, args.port), cluster_host._loop
        ).result()
    except KeyboardInterrupt:
        print("repro-serve interrupted", file=sys.stderr)
        return 130
    finally:
        cluster_host.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
