"""The mode table: every mode of ``run`` on every replicated workload.

``run`` takes any workload spec with any row of ``_MODES``, so pairs
no experiment used before (the adaptive pair on TPC-C, 2PC on the
flash sale, ...) are reachable; each runs here at a tiny point.  The
geo workload has no LOCAL / 2PC baselines (it compares treaty
strategies), so those two pairs are held to refusing instead.
"""

import pytest

from repro.sim.experiments import _MODES, run
from repro.workloads.banking import BankingWorkload
from repro.workloads.flashsale import FlashSaleWorkload
from repro.workloads.geo import GeoMicroWorkload
from repro.workloads.micro import MicroWorkload
from repro.workloads.quota import QuotaWorkload
from repro.workloads.tpcc import TpccWorkload

WORKLOADS = {
    "micro": lambda: MicroWorkload(num_items=20, refill=20, initial_qty="random"),
    "geo": lambda: GeoMicroWorkload(initial_qty="random"),
    "tpcc": lambda: TpccWorkload(items_per_district=20, initial_stock=20),
    "flashsale": FlashSaleWorkload,
    "banking": BankingWorkload,
    "quota": QuotaWorkload,
}

#: the pairs that cannot run: the geo workload defines no baselines
NO_BASELINE = {("geo", "2pc"), ("geo", "local")}


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_mode_runs_every_workload(workload, mode):
    spec = WORKLOADS[workload]()
    if (workload, mode) in NO_BASELINE:
        with pytest.raises(NotImplementedError):
            run(mode, spec, max_txns=50)
        return
    result = run(mode, spec, clients_per_replica=4, max_txns=50)
    assert result.mode == _MODES[mode][0]
    assert result.committed == 50


def test_unknown_mode_names_the_valid_modes():
    with pytest.raises(ValueError) as error:
        run("bogus", MicroWorkload(num_items=4, refill=4), max_txns=10)
    assert all(mode in str(error.value) for mode in _MODES)
