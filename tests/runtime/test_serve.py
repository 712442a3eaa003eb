"""The serve layer: concurrent clients over real loopback sockets.

Boots ``repro-serve`` in-process (the serve coroutine on a host's own
loop, port 0) and drives it with blocking :class:`ServeClient`
connections from worker threads -- the deployment shape the runtime
exists for: concurrent connections, serialized kernel, every
submission crossing two socket hops plus the inter-site wire.
"""

import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.runtime.client import ServeClient, ServeError

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def server():
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.runtime.serve",
            "--port",
            "0",
            "--workload",
            "micro",
            "--strategy",
            "equal-split",
            "--items",
            "12",
            "--refill",
            "9",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": SRC},
    )
    line = proc.stdout.readline()
    match = re.match(r"repro-serve listening on (\S+):(\d+)", line)
    assert match, f"no listening banner, got {line!r}"
    yield match.group(1), int(match.group(2))
    if proc.poll() is None:
        try:
            with ServeClient(match.group(1), int(match.group(2))) as c:
                c.shutdown()
        except OSError:
            proc.kill()
    # Drain and close both pipes; a clean shutdown exits 0.
    _stdout, stderr = proc.communicate(timeout=10)
    assert proc.returncode == 0, stderr


class TestServe:
    def test_ping(self, server):
        host, port = server
        with ServeClient(host, port) as client:
            assert client.ping()

    def test_submit_commits(self, server):
        host, port = server
        with ServeClient(host, port) as client:
            result = client.submit("Buy@s0", {"item": 3})
            assert result["status"] == "committed"
            assert result["site"] == 0
            assert isinstance(result["log"], list)

    def test_unknown_transaction_aborts(self, server):
        host, port = server
        with ServeClient(host, port) as client:
            result = client.submit("NoSuchTx@s0", {})
            assert result["status"] == "aborted"

    def test_malformed_request_is_an_error(self, server):
        host, port = server
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError):
                client.request({"t": "bogus-kind"})

    @pytest.mark.parametrize(
        "params, complaint",
        [
            ({"item": "x"}, "'item' must be an integer, got str"),
            ({"item": {"nested": 1}}, "'item' must be an integer, got dict"),
            ({"item": None}, "'item' must be an integer, got NoneType"),
            ({"item": True}, "'item' must be an integer, got bool"),
        ],
    )
    def test_non_integer_param_is_refused_by_name(self, server, params, complaint):
        host, port = server
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError, match=complaint):
                client.request({"t": "submit", "tx": "Buy@s0", "params": params})
        # Only that connection ended; the next one is served.
        with ServeClient(host, port) as client:
            assert client.submit("Buy@s0", {"item": 1})["status"] == "committed"

    def test_kernel_exception_is_one_error_frame(self, server):
        # Well-typed but missing the parameter the transaction reads:
        # the failure is the kernel's (a KeyError inside execute).
        host, port = server
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError, match="internal error: KeyError"):
                client.submit("Buy@s0", {})
            # One error frame, then the server closed this connection.
            with pytest.raises((ServeError, OSError)):
                client.ping()
        with ServeClient(host, port) as client:
            assert client.ping()
            assert client.submit("Buy@s0", {"item": 2})["status"] == "committed"

    def test_concurrent_connections(self, server):
        host, port = server
        statuses, errors = [], []

        def worker(n):
            try:
                with ServeClient(host, port) as client:
                    for i in range(15):
                        r = client.submit(
                            f"Buy@s{(n + i) % 2}", {"item": (n * 5 + i) % 12}
                        )
                        statuses.append(r["status"])
            except Exception as exc:  # surfaces in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert len(statuses) == 60
        assert all(s == "committed" for s in statuses)

    def test_stats_reflect_load(self, server):
        host, port = server
        with ServeClient(host, port) as client:
            client.submit("Buy@s0", {"item": 0})
            stats = client.stats()
            assert stats["submitted"] >= 1
            assert stats["committed"] >= 1
            assert 0.0 <= stats["sync_ratio"] <= 1.0
            assert stats["wire"]["frames_sent"] >= 0
            assert isinstance(stats["global_state"], dict)
