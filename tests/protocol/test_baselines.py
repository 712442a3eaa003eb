"""The LOCAL and 2PC baselines against the serial reference.

Both run each transaction body as a closure lowered once at
construction (:func:`repro.logic.compile.compile_residual`); the
interpreter's :func:`repro.evaluate` is the reference they must agree
with.  2PC replicates every commit everywhere, so every replica must
hold the serial execution of the whole request stream.  LOCAL never
communicates, so each replica must hold the serial execution of the
requests submitted at it -- and each request's log is that
execution's log.
"""

import random

import pytest

from repro import evaluate
from repro.workloads.micro import MicroWorkload
from repro.workloads.tpcc import TpccWorkload

_WORKLOADS = {
    "scarce-micro": lambda: MicroWorkload(
        num_items=16, refill=12, initial_qty="refill"
    ),
    "tpcc": lambda: TpccWorkload(
        num_warehouses=2,
        num_districts=2,
        items_per_district=6,
        num_customers=4,
        num_sites=2,
        hotness=30,
        initial_stock=12,
    ),
}


def _serial(workload, requests):
    """Final state and per-request logs of ``requests`` run in order
    by the interpreter from the baselines' initial store."""
    bodies = workload.baseline_transactions()
    state, logs = workload.baseline_db(), []
    for request in requests:
        out = evaluate(bodies[request.tx_name], state, params=request.params)
        state = out.db
        logs.append(out.log)
    return state, logs


def _assert_same_store(have, want):
    for key in set(have) | set(want):
        assert have.get(key, 0) == want.get(key, 0), key


def _requests(workload, count=300):
    rng = random.Random(1)
    return [workload.next_request(rng) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(_WORKLOADS))
def test_2pc_replicas_all_hold_the_serial_execution(name):
    workload = _WORKLOADS[name]()
    cluster = workload.build_2pc()
    requests = _requests(workload)
    logs = [cluster.submit(r.tx_name, r.params).log for r in requests]
    state, serial_logs = _serial(workload, requests)
    assert logs == serial_logs
    for sid in workload.sites:
        _assert_same_store(cluster.replica_state(sid), state)


@pytest.mark.parametrize("name", sorted(_WORKLOADS))
def test_local_replicas_each_hold_their_own_serial_execution(name):
    workload = _WORKLOADS[name]()
    cluster = workload.build_local()
    requests = _requests(workload)
    results = [cluster.submit(r.tx_name, r.params) for r in requests]
    # Not vacuous: requests were spread over more than one replica.
    assert len({result.site for result in results}) > 1
    for sid in workload.sites:
        own = [at for at, result in enumerate(results) if result.site == sid]
        state, serial_logs = _serial(workload, [requests[at] for at in own])
        assert [results[at].log for at in own] == serial_logs
        _assert_same_store(cluster.replica_state(sid), state)
