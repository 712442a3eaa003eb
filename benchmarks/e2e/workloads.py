"""The five workloads: configuration, request generation, the closed-loop
drivers that run them against the real kernels, and their oracles.

A driver is what one child process (``child.py``) runs for one round:

- ``setup()`` builds the system under test and returns its phase times;
- ``next_chunk(rng)`` generates the next requests from the seeded rng
  -- the kernel only ever sees the generated ``(tx_name, params)``;
- ``run_chunk(ops, deadline)`` submits them closed-loop, timing each
  client call, until the chunk or the deadline runs out; it returns the
  results and the timed stretch as one or more *slices* (wall time,
  transactions, clean and synchronising latencies) of at most ~0.5 s,
  short enough for ``run.py`` to tell the box's fast spells from its
  slow ones;
- ``check(ops, results)`` replays what ran through the serial oracle
  (``repro.evaluate`` over ``workload.reference_transaction``, Theorem
  3.8) and returns how many operations it rejects;
- ``finish()`` compares the final database and reads the counters.

Requests are generated and checked chunk by chunk, between the timed
stretches, so the process never holds more than one chunk of them and
``peak_rss_mb`` stays the kernel's, not the request list's.
"""

from __future__ import annotations

import os
import random
import re
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro import (
    MicroWorkload,
    NegotiationSpec,
    Outcome,
    TpccWorkload,
    build_cluster,
    evaluate,
)
from repro.protocol.homeostasis import ClusterResult
from repro.runtime.client import ServeClient

SRC = str(Path(__file__).resolve().parents[2] / "src")

Request = tuple[str, dict[str, int]]

#: appended to one expected log by the oracle's negative self-test
CORRUPTION = (-(10**9),)

#: counters read from the layers' existing stats surfaces
COUNTER_NAMES = (
    "protocol.homeostasis.negotiations",
    "protocol.homeostasis.rebalances",
    "protocol.homeostasis.rounds",
    "protocol.transport.msgs_per_sync",
    "protocol.transport.trace_len",
    "protocol.site.check.free_ratio",
    "protocol.site.check.absorbed",
    "protocol.site.check.partition",
    "protocol.site.check.full",
    "protocol.site.check.clauses_per_commit",
    "treaty.escrow.fast_ratio",
    "treaty.escrow.settlements",
    "treaty.escrow.resyncs",
    "protocol.concurrent.elections",
    "protocol.concurrent.contended_windows",
    "protocol.concurrent.lost_votes",
    "protocol.paxos_commit.phase2_msgs_per_sync",
    "protocol.paxos_commit.max_consecutive_losses",
    "storage.wal.bytes_per_install",
    "runtime.wire.frames_per_sync",
    "runtime.wire.bytes_per_sync",
    "runtime.serve.ping_p50_us",
)


def time_slice(wall_s: float, txns: int, clean: list[float], sync: list[float]) -> dict:
    """One timed stretch: client-call latencies in seconds, split by
    whether the call negotiated (``sync``) or not (``clean``)."""
    return {"wall_s": wall_s, "txns": txns, "clean_s": clean, "sync_s": sync}


def _same_state(expected: dict[str, int], actual: dict[str, int]) -> bool:
    """Database equality with the paper's null default (absent == 0)."""
    return all(
        expected.get(key, 0) == actual.get(key, 0)
        for key in expected.keys() | actual.keys()
    )


class SubmitDriver:
    """One client calling ``cluster.submit`` on an in-process kernel."""

    txns_per_op = 1
    #: the host method that is the client call
    client_method = "submit"

    def __init__(
        self,
        make_workload: Callable[[], Any],
        *,
        strategy: str,
        kernel: str = "sequential",
        negotiation: NegotiationSpec | None = None,
        chunk: int,
        warmup: int,
    ) -> None:
        self.make_workload = make_workload
        self.strategy = strategy
        self.kernel = kernel
        self.negotiation = negotiation
        self.chunk = chunk
        self.warmup = warmup
        self.host: Any = None
        #: set by the negative self-test: corrupt the next expected log
        self.corrupt_next = False

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        self.workload = self.make_workload()
        t1 = time.perf_counter()
        options = {} if self.negotiation is None else {"negotiation": self.negotiation}
        spec = self.workload.cluster_spec(strategy=self.strategy, **options)
        self.host = build_cluster(spec, kernel=self.kernel)
        t2 = time.perf_counter()
        self.host.precompile_checks()
        #: the protocol kernel itself (the async host wraps one)
        self.cluster = getattr(self.host, "cluster", self.host)
        self.call = getattr(self.host, self.client_method)
        self.state = dict(self.workload.initial_db)
        return {"workload_s": t1 - t0, "build_cluster_s": t2 - t1}

    def close(self) -> None:
        if hasattr(self.host, "close"):  # the async host owns threads
            self.host.close()

    # -- requests ------------------------------------------------------------------

    def next_chunk(self, rng: random.Random, size: int | None = None) -> list[Any]:
        """The next operations, each the client call's argument tuple."""
        out = []
        for _ in range(size or self.chunk):
            req = self.workload.next_request(rng)
            out.append((req.tx_name, req.params))
        return out

    @staticmethod
    def negotiated(result: Any) -> bool:
        return bool(result.synced or result.rebalanced)

    def run_chunk(self, ops: list[Any], deadline: float) -> tuple[list[Any], list[dict]]:
        call, clock, negotiated = self.call, time.perf_counter, self.negotiated
        clean: list[float] = []
        sync: list[float] = []
        results = []
        begin = clock()
        for op in ops:
            start = clock()
            result = call(*op)
            end = clock()
            (sync if negotiated(result) else clean).append(end - start)
            results.append(result)
            if end >= deadline:
                break
        txns = len(results) * self.txns_per_op
        return results, [time_slice(clock() - begin, txns, clean, sync)]

    # -- oracle --------------------------------------------------------------------

    def _expect(self, request: Request) -> tuple[int, ...]:
        """Advance the serial reference by one transaction; its log."""
        tx_name, params = request
        out = evaluate(
            self.workload.reference_transaction(tx_name), self.state, params=params
        )
        self.state = out.db
        if self.corrupt_next:
            self.corrupt_next = False
            return out.log + CORRUPTION
        return out.log

    def _accepts(self, request: Request, log: tuple[int, ...]) -> bool:
        """Theorem 3.8: the log a serial execution would have produced."""
        return log == self._expect(request)

    def check(self, ops: list[Any], results: list[Any]) -> int:
        failed = 0
        for request, result in zip(ops, results):
            ok = self._accepts(request, result.log)
            failed += not (ok and result.status is Outcome.COMMITTED)
        return failed

    # -- counters ------------------------------------------------------------------

    def sync_events(self) -> int:
        stats = self.cluster.stats
        return stats.negotiations + stats.rebalances

    def finish(self) -> dict[str, Any]:
        return {
            "state_ok": _same_state(self.state, self.host.global_state()),
            "syncs": self.sync_events(),
            "counters": self.counters(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def counters(self) -> dict[str, float]:
        """The layers' own stats surfaces, since cluster construction."""
        cluster = self.cluster
        stats = cluster.stats
        messages = stats.messages
        escrow = cluster.escrow_stats()
        checks = cluster.classifier_stats()
        fairness = cluster.fairness_stats()
        syncs = max(1, stats.negotiations + stats.rebalances)
        commits = escrow.get("fast_commits", 0) + escrow.get("settled_commits", 0)
        wal_bytes = sum(s.wal.size_bytes() for s in cluster.sites.values())
        wire = getattr(self.host, "wire_stats", lambda: {})()
        return {
            "protocol.homeostasis.negotiations": stats.negotiations,
            "protocol.homeostasis.rebalances": stats.rebalances,
            "protocol.homeostasis.rounds": stats.rounds,
            "protocol.transport.msgs_per_sync": messages.total() / syncs,
            "protocol.transport.trace_len": len(cluster.transport.trace),
            "protocol.site.check.free_ratio": checks["free_ratio"],
            "protocol.site.check.absorbed": checks.get("absorbed", 0),
            "protocol.site.check.partition": checks.get("partition", 0),
            "protocol.site.check.full": checks.get("full", 0),
            "protocol.site.check.clauses_per_commit": checks["checks_per_commit"],
            "treaty.escrow.fast_ratio": (
                escrow.get("fast_commits", 0) / commits if commits else 0.0
            ),
            "treaty.escrow.settlements": escrow.get("settlements", 0),
            "treaty.escrow.resyncs": escrow.get("resyncs", 0),
            "protocol.concurrent.elections": fairness["elections"],
            "protocol.concurrent.contended_windows": 0,
            "protocol.concurrent.lost_votes": 0,
            "protocol.paxos_commit.phase2_msgs_per_sync": (
                (messages.phase2a_messages + messages.phase2b_messages) / syncs
            ),
            "protocol.paxos_commit.max_consecutive_losses": fairness[
                "max_consecutive_losses"
            ],
            "storage.wal.bytes_per_install": wal_bytes / max(1, escrow["installs"]),
            "runtime.wire.frames_per_sync": wire.get("frames_sent", 0) / syncs,
            "runtime.wire.bytes_per_sync": wire.get("bytes_sent", 0) / syncs,
            "runtime.serve.ping_p50_us": 0.0,
        }


class MicroDriver(SubmitDriver):
    """The microbenchmark with ``Audit`` probes beside the ``Buy``s.

    The kernel runs ``Audit`` on the coordination-free tier, whose
    contract is snapshot consistency, not Theorem 3.8 (docs/FUZZING.md):
    it prints the origin site's snapshot of the quantity, which misses
    the other site's decrements since the item last synchronised.
    Checking that contract exactly needs per-site views fed from inside
    the cluster (``repro.fuzz.oracle``); from outside, this oracle holds
    ``Audit`` to what the contract implies here: a value the item has
    held since its last refill (a refill synchronises every replica).
    ``Buy`` is held to the serial log exactly, and so is the final
    database.
    """

    def setup(self) -> dict[str, float]:
        phases = super().setup()
        #: item -> the base object and its per-site deltas
        self._objects: dict[int, list[str]] = {}
        for name in self.state:
            self._objects.setdefault(int(name[name.index("[") + 1 : -1]), []).append(name)
        self._quantity = {item: self._serial_quantity(item) for item in self._objects}
        #: item -> its quantity when it last refilled (or started)
        self._high = dict(self._quantity)
        return phases

    def _serial_quantity(self, item: int) -> int:
        return sum(self.state.get(name, 0) for name in self._objects[item])

    def _accepts(self, request: Request, log: tuple[int, ...]) -> bool:
        expected = self._expect(request)
        tx_name, params = request
        item = params["item"]
        if tx_name.startswith("Audit@"):
            return (
                len(expected) == len(log) == 1
                and expected[0] <= log[0] <= self._high[item]
            )
        quantity = self._serial_quantity(item)
        if quantity > self._quantity[item]:
            self._high[item] = quantity
        self._quantity[item] = quantity
        return log == expected


class WindowDriver(SubmitDriver):
    """One client calling ``submit_window``: an operation is a window of
    racing transactions whose origin sites are drawn Zipf(1.0)."""

    txns_per_op = 8
    client_method = "submit_window"

    def setup(self) -> dict[str, float]:
        phases = super().setup()
        sites = self.workload.sites
        self._sites = sites
        self._site_weights = [1.0 / (rank + 1) for rank in range(len(sites))]
        self.contended_windows = 0
        self.lost_votes = 0
        return phases

    def next_chunk(self, rng: random.Random, size: int | None = None) -> list[Any]:
        windows = []
        for _ in range(size or self.chunk):
            origins = rng.choices(self._sites, weights=self._site_weights, k=self.txns_per_op)
            window = []
            for site in origins:
                req = self.workload.next_request(rng, site=site)
                window.append((req.tx_name, req.params))
            windows.append((window,))
        return windows

    @staticmethod
    def negotiated(result: Any) -> bool:
        return bool(result.waves)

    def check(self, ops: list[Any], results: list[Any]) -> int:
        """Theorem 3.8 in each window's own serial order."""
        failed = 0
        for (window,), result in zip(ops, results):
            self.contended_windows += result.contended
            self.lost_votes += sum(out.lost_votes for out in result.outcomes)
            ok = sorted(result.commit_order) == list(range(len(window)))
            for index in result.commit_order:
                outcome = result.outcomes[index]
                ok &= self._accepts(window[index], outcome.log)
                ok &= outcome.status is Outcome.COMMITTED
            failed += not ok
        return failed

    def counters(self) -> dict[str, float]:
        out = super().counters()
        out["protocol.concurrent.contended_windows"] = self.contended_windows
        out["protocol.concurrent.lost_votes"] = self.lost_votes
        return out


class ServeDriver(SubmitDriver):
    """One blocking connection to a ``repro-serve`` subprocess."""

    #: the server must announce its port within this long
    startup_timeout_s = 30.0
    pings = 1000

    def __init__(self, *, items: int, refill: int, chunk: int, warmup: int) -> None:
        super().__init__(
            lambda: MicroWorkload(num_items=items, refill=refill),
            strategy="equal-split",
            chunk=chunk,
            warmup=warmup,
        )
        self.items, self.refill = items, refill
        self.proc: subprocess.Popen[bytes] | None = None
        self.client: ServeClient | None = None

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.runtime.serve",
                "--workload", "micro", "--strategy", self.strategy,
                "--items", str(self.items), "--refill", str(self.refill),
                "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        self.client = ServeClient(*self._scrape_address())
        self.client.ping()
        # From Popen to the first ping reply: what a user waits for.
        ready_s = time.perf_counter() - t0
        # Only the oracle uses this copy; the server built its own.
        self.workload = self.make_workload()
        self.state = dict(self.workload.initial_db)
        self.call = self._submit
        return {"ready_s": ready_s}

    def _scrape_address(self) -> tuple[str, int]:
        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + self.startup_timeout_s
        banner = b""
        while b"\n" not in banner:
            wait = deadline - time.monotonic()
            ready = wait > 0 and select.select([fd], [], [], wait)[0]
            data = os.read(fd, 4096) if ready else b""
            if not data:  # timed out, or EOF because the server died
                raise RuntimeError(
                    f"repro-serve announced no port within "
                    f"{self.startup_timeout_s:.0f} s (stdout {banner!r})"
                )
            banner += data
        match = re.match(rb"repro-serve listening on (\S+):(\d+)", banner)
        if match is None:
            raise RuntimeError(f"unexpected repro-serve banner {banner!r}")
        return match.group(1).decode(), int(match.group(2))

    def close(self) -> None:
        """Reap the server whatever happened; if it had to be killed,
        the failure is someone's to debug, so surface its stderr."""
        if self.client is not None:
            self.client.close()
        proc = self.proc
        if proc is None:
            return
        killed = proc.poll() is None
        if killed:
            proc.kill()
        _, stderr = proc.communicate()
        if killed or proc.returncode != 0:
            sys.stderr.write(
                f"repro-serve exit {proc.returncode}; its stderr:\n"
                f"{stderr.decode(errors='replace')[-4000:]}\n"
            )
        self.proc = None

    def _submit(self, tx_name: str, params: dict[str, int]) -> ClusterResult:
        """The client call: one framed request, one framed reply."""
        assert self.client is not None
        reply = self.client.submit(tx_name, params)
        return ClusterResult(
            log=tuple(reply["log"]),
            site=reply["site"],
            synced=reply["synced"],
            status=Outcome(reply["status"]),
        )

    def sync_events(self) -> int:
        assert self.client is not None
        stats = self.client.stats()
        return stats["negotiations"] + stats["rebalances"]

    def finish(self) -> dict[str, Any]:
        assert self.proc is not None and self.client is not None
        client, clock = self.client, time.perf_counter
        stats = client.stats()
        pings = []
        for _ in range(self.pings):  # socket + frame + loop, no kernel
            start = clock()
            client.ping()
            pings.append(clock() - start)
        client.shutdown()
        self.proc.wait(timeout=30)  # RUSAGE_CHILDREN counts reaped children
        syncs = stats["negotiations"] + stats["rebalances"]
        return {
            "state_ok": _same_state(self.state, stats["global_state"]),
            "syncs": syncs,
            "counters": dict.fromkeys(COUNTER_NAMES, 0.0)
            | {
                "protocol.homeostasis.negotiations": stats["negotiations"],
                "protocol.homeostasis.rebalances": stats["rebalances"],
                "protocol.homeostasis.rounds": stats["rounds"],
                "runtime.wire.frames_per_sync": stats["wire"]["frames_sent"] / max(1, syncs),
                "runtime.wire.bytes_per_sync": stats["wire"]["bytes_sent"] / max(1, syncs),
                "runtime.serve.ping_p50_us": statistics.median(pings) * 1e6,
            },
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }


def _micro(**config: Any) -> Callable[[], MicroWorkload]:
    return lambda: MicroWorkload(initial_qty="random", **config)


#: name -> a fresh driver.  Why each workload was chosen is in
#: BENCHMARK.json and the README.
WORKLOADS: dict[str, Callable[[], SubmitDriver]] = {
    "micro-steady": lambda: MicroDriver(
        _micro(num_items=16, refill=2000, num_sites=2, audit_fraction=0.25),
        strategy="equal-split", chunk=4096, warmup=200,
    ),
    "micro-negotiate": lambda: MicroDriver(
        _micro(num_items=150, refill=30, num_sites=2, audit_fraction=0.25),
        strategy="equal-split", chunk=256, warmup=100,
    ),
    "tpcc-mix": lambda: SubmitDriver(
        TpccWorkload, strategy="optimized", chunk=64, warmup=50
    ),
    "window-contention": lambda: WindowDriver(
        _micro(num_items=20, refill=120, num_sites=4),
        strategy="equal-split", kernel="concurrent",
        negotiation=NegotiationSpec(policy="credit"),
        chunk=64, warmup=25,
    ),
    "serve-loopback": lambda: ServeDriver(items=16, refill=60, chunk=512, warmup=100),
    # The traced twin of serve-loopback: wrappers cannot reach the
    # server subprocess, so its spans come from the same kernel,
    # transport and codec hosted in-process, fed the same request
    # stream.  Not a public workload.
    "serve-inproc": lambda: SubmitDriver(
        lambda: MicroWorkload(num_items=16, refill=60),
        strategy="equal-split", kernel="async", chunk=1024, warmup=100,
    ),
}
