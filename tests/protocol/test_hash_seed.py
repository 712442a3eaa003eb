"""Treaty bytes must not depend on ``PYTHONHASHSEED``.

The Appendix C.3 equality pins of a treaty piece come from a *set* of
residual reads; their order reaches every site's ``treaty_install``
WAL record and the treaty fingerprint.  Two processes of the same
commit must write the same bytes whatever their string hashing, or no
byte-identity claim between two commits can be checked without
pinning an environment variable.  Under ``optimized`` the sampled runs
are indexed by written object besides: no dict or set of that index
may lend its iteration order to a configuration.
"""

import os
import subprocess
import sys
from pathlib import Path


SRC = Path(__file__).resolve().parents[2] / "src"

# Small TPC-C (the workload with remote-read pins), enough requests
# for a few dozen negotiations.
DRIVE = """
import hashlib, random, sys
from repro.workloads.tpcc import TpccWorkload

workload = TpccWorkload(
    num_warehouses=2, num_districts=2, items_per_district=6, num_customers=4,
    num_sites=2, hotness=30, initial_stock=12,
)
cluster = workload.build_homeostasis(strategy=sys.argv[1])
rng = random.Random(5)
for _ in range(150):
    request = workload.next_request(rng)
    cluster.submit(request.tx_name, request.params)
digest = hashlib.sha256()
for site_id in sorted(cluster.sites):
    digest.update(bytes(cluster.sites[site_id].wal._buf))
print(cluster.stats.negotiations, digest.hexdigest())
"""


def _wal_digest(strategy: str, hash_seed: str) -> tuple[int, str]:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", DRIVE, strategy],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    return int(out[0]), out[1]


def test_wal_bytes_are_identical_across_hash_seeds():
    negotiations, digest = _wal_digest("equal-split", "1")
    assert negotiations > 10  # not vacuous: the pins were re-derived
    assert _wal_digest("equal-split", "2") == (negotiations, digest)


def test_optimized_wal_bytes_are_identical_across_hash_seeds():
    negotiations, digest = _wal_digest("optimized", "1")
    assert negotiations > 10  # not vacuous: Algorithm 1 configured them
    assert _wal_digest("optimized", "2") == (negotiations, digest)
