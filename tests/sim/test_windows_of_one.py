"""Windows of one are the old sequential run, record for record.

The simulator has one driver: under ``homeo`` / ``opt`` every
submission reaches the kernel through ``submit_window``, and a
``window_ms == 0`` run is windows of exactly one entry.  The digests
below were captured from the *two-driver* simulator (``submit`` +
``_run_protected`` for ``window_ms == 0``, ``_simulate_windows`` for
``run_contention``) at commit ``8044e74`` -- over the fields a record
still has; ``wave`` went with the second driver -- so each case proves
the one driver reproduces the driver it replaced: same RNG draw order, same
fault instants, same per-key negotiation gate, same float arithmetic.

A digest covers every field of every :class:`TxnRecord`, in order.
Changing a cost constant, the gate rule or the pricing of a round
moves them all: regenerate with ``python tests/sim/test_windows_of_one.py``
and say why in the commit -- that is the point of the file.
"""

import dataclasses
import hashlib

import pytest

from repro.sim.experiments import run, skewed_client_counts, zipf_weights
from repro.sim.network import rtt_matrix_for
from repro.sim.runner import crash_schedule
from repro.workloads.banking import BankingWorkload
from repro.workloads.geo import GeoMicroWorkload
from repro.workloads.micro import MicroWorkload
from repro.workloads.quota import QuotaWorkload


def _micro(**spec):
    return MicroWorkload(initial_qty="random", init_seed=8, **spec)


_MICRO = dict(num_items=30, refill=40)

CASES = {
    "micro-homeo": lambda: run(
        "homeo", _micro(audit_fraction=0.2, **_MICRO), seed=7, max_txns=400
    ),
    "micro-opt": lambda: run("opt", _micro(**_MICRO), seed=7, max_txns=400),
    "micro-2pc": lambda: run("2pc", _micro(**_MICRO), seed=7, max_txns=300),
    "micro-local": lambda: run("local", _micro(**_MICRO), seed=7, max_txns=300),
    "geo": lambda: run(
        "homeo",
        GeoMicroWorkload(
            groups=((0, 1), (2, 3), (0, 4)),
            num_sites=5,
            items_per_group=8,
            refill=20,
            initial_qty="random",
            init_seed=8,
        ),
        seed=7,
        rtt_matrix=rtt_matrix_for(5),
        clients_per_replica=8,
        max_txns=400,
    ),
    # watermark refreshes (rebalances > 0) queue on the gate too
    "adaptive-skew": lambda: run(
        "adaptive",
        _micro(num_items=12, refill=30, num_sites=4),
        seed=7,
        watermark=0.6,
        clients_per_replica=skewed_client_counts(32, zipf_weights(4, 2.0)),
        max_txns=400,
    ),
    # one crash + recovery inside the run: failed records, a rejoin
    "faults": lambda: run(
        "homeo",
        _micro(num_items=40, refill=40, num_sites=3),
        seed=7,
        strategy="equal-split",
        clients_per_replica=4,
        duration_ms=1500.0,
        max_txns=100_000,
        fault_events=crash_schedule(1, 300.0, 600.0),
    ),
    "banking": lambda: run(
        "homeo",
        BankingWorkload(
            num_accounts=4, initial_balance=12, audit_fraction=0.05, init_seed=8
        ),
        seed=7,
        clients_per_replica=8,
        max_txns=300,
    ),
    "quota": lambda: run(
        "homeo",
        QuotaWorkload(num_tenants=20, limit=8, usage_fraction=0.05, init_seed=8),
        seed=7,
        clients_per_replica=8,
        max_txns=300,
    ),
    # the windowed point (window_ms = 10): real elections, no gate
    "contention": lambda: run(
        "homeo",
        _micro(num_items=8, refill=20),
        seed=7,
        clients_per_replica=8,
        window_ms=10.0,
        max_txns=300,
    ),
}

#: case -> (committed, negotiations, rebalances, failed)
COUNTS = {
    "micro-homeo": (400, 23, 0, 0),
    "micro-opt": (400, 32, 0, 0),
    "micro-2pc": (300, 0, 0, 0),
    "micro-local": (300, 0, 0, 0),
    "geo": (400, 82, 0, 0),
    "adaptive-skew": (400, 47, 10, 0),
    "faults": (344, 46, 0, 12),
    "banking": (300, 27, 0, 0),
    "quota": (300, 84, 0, 0),
    "contention": (300, 51, 0, 0),
}

#: case -> sha256 over every field of every record, in order
DIGESTS = {
    "micro-homeo": "5993c1b220434aba54980c0ba12f6b8736a42a37a52b1dd363812bb86c40f223",
    "micro-opt": "d6343f203a87ec4e53441f26819487eed99b254085375b86b914127bec18896c",
    "micro-2pc": "12f3927f9aecab1b4106c77551e823d8c50573544db8d451cd5e0444fd6a4426",
    "micro-local": "266bb0e957d728b7782c0d2fe4c19b08d09786dcc06e3501ddf3e327f7d82b13",
    "geo": "e1522aba14b0accf5f558980839218512953f71ef1d8f3509bfdd7d5e03762be",
    "adaptive-skew": "2e0f05b051e2ac1984d8c35df06b960be11c31ae1c9121364ea756bba0ad28f2",
    "faults": "b61485e60bf6726804b3a2292db72468c5049efd4ab4e0eb24683a7ca7df237e",
    "banking": "6b90121dc2c4a8f3307fb23a6faa6d2a08d6f0498763469bfe3a3aeb2137b4a4",
    "quota": "4dd7c3df2292c468ccee92aecae2349296787287b5dfcafed8f0f9bd24347e77",
    "contention": "a3014ce8fb7f62952c148e680b9b32817cec67a31e17c5a14169d95992038199",
}


def counts(result):
    return (result.committed, result.negotiations, result.rebalances, result.failed)


def digest(result):
    records = [
        tuple((f.name, getattr(r, f.name)) for f in dataclasses.fields(r))
        for r in result.records
    ]
    return hashlib.sha256(repr(records).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_records_match_the_two_driver_simulator(case):
    result = CASES[case]()
    assert counts(result) == COUNTS[case]
    assert digest(result) == DIGESTS[case]


if __name__ == "__main__":
    for name, run in CASES.items():
        result = run()
        print(f"{name}: {counts(result)} {digest(result)}")
