"""Serve smoke: boot ``repro-serve``, hammer it, demand a clean exit.

CI's ``serve-smoke`` job runs this end-to-end check of the asyncio
runtime's outermost surface: a real ``repro-serve`` subprocess on an
ephemeral loopback port, 4 concurrent client connections submitting
200 transactions total over the wire protocol, then a ``shutdown``
request.  It asserts:

- every submitted transaction commits (fault-free loopback run on a
  contended stock workload);
- they complete at or above a wall-clock floor ~10x below healthy
  local readings: a broken runtime does not get 10% slower, it
  collapses (a sender sleeping out its timeout per send, a serialized
  connection handler), and that is what the floor catches;
- the run negotiated -- sync ratio strictly inside ``(0, 0.9)`` and
  real inter-site frames on the async transport (a schedule that
  never violates treaties would smoke-test the wrong code path);
- the server exits 0 on ``shutdown`` within the grace period and
  prints nothing to stderr.

Run it from the repo root (no install needed)::

    python tools/serve_smoke.py
"""

from __future__ import annotations

import re
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.runtime.client import ServeClient  # noqa: E402

CONNECTIONS = 4
TXNS_TOTAL = 200
SYNC_RATIO_MAX = 0.9
THROUGHPUT_FLOOR_TXN_PER_S = 50.0
ITEMS, REFILL = 12, 9  # scarce stock: violations within a short run


def start_server() -> tuple[subprocess.Popen, str, int]:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.runtime.serve",
            "--port", "0", "--workload", "micro",
            "--strategy", "equal-split",
            "--items", str(ITEMS), "--refill", str(REFILL),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": str(REPO / "src")},
    )
    assert proc.stdout is not None
    banner = proc.stdout.readline()
    match = re.match(r"repro-serve listening on (\S+):(\d+)", banner)
    if not match:
        proc.kill()
        raise SystemExit(f"FAIL: repro-serve did not come up: {banner!r}")
    return proc, match.group(1), int(match.group(2))


def main() -> int:
    proc, host, port = start_server()
    per_conn = TXNS_TOTAL // CONNECTIONS
    statuses: list[str] = []
    lock = threading.Lock()
    errors: list[BaseException] = []

    def worker(n: int) -> None:
        try:
            with ServeClient(host, port) as client:
                assert client.ping()
                for i in range(per_conn):
                    result = client.submit(
                        f"Buy@s{(n + i) % 2}", {"item": (n * 7 + i) % ITEMS}
                    )
                    with lock:
                        statuses.append(result["status"])
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(n,)) for n in range(CONNECTIONS)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    throughput = TXNS_TOTAL / (time.perf_counter() - t0)

    failures: list[str] = []
    if errors:
        failures.append(f"client thread raised: {errors[0]!r}")

    stats: dict = {}
    try:
        with ServeClient(host, port) as client:
            stats = client.stats()
            client.shutdown()
    except BaseException as exc:
        failures.append(f"stats/shutdown request failed: {exc!r}")

    try:
        code = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        failures.append("server did not exit within 30s of shutdown")
        code = proc.wait()
    stderr = proc.stderr.read() if proc.stderr else ""

    committed = sum(1 for s in statuses if s == "committed")
    if committed != TXNS_TOTAL:
        failures.append(
            f"only {committed}/{TXNS_TOTAL} transactions committed "
            f"({len(statuses)} completed)"
        )
    if throughput < THROUGHPUT_FLOOR_TXN_PER_S:
        failures.append(
            f"{throughput:.1f} txn/s wall-clock, below the "
            f"{THROUGHPUT_FLOOR_TXN_PER_S:.0f} txn/s floor (the runtime "
            f"collapsed, not wobbled)"
        )
    sync_ratio = stats.get("sync_ratio", -1.0)
    if not 0.0 < sync_ratio < SYNC_RATIO_MAX:
        failures.append(
            f"sync ratio {sync_ratio} outside (0, {SYNC_RATIO_MAX}): the "
            f"smoke run must negotiate, but not on every transaction"
        )
    frames = stats.get("wire", {}).get("frames_sent", 0)
    if frames <= 0:
        failures.append("no inter-site frames crossed the async transport")
    if code != 0:
        failures.append(f"server exited {code}, expected 0")
    if stderr.strip():
        failures.append(f"server wrote to stderr: {stderr.strip()[:400]}")

    if failures:
        print("serve smoke FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        f"serve smoke ok: {committed}/{TXNS_TOTAL} committed over "
        f"{CONNECTIONS} connections at {throughput:.0f} txn/s, "
        f"{stats['negotiations']} negotiations "
        f"(sync ratio {sync_ratio:.4f}), {frames} wire frames, "
        f"clean shutdown (exit 0)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
