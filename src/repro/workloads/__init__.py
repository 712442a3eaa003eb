"""The paper's workloads, packaged for the kernel and the simulator.

- :mod:`repro.workloads.micro` -- the Section 6.1 microbenchmark:
  a replicated ``Stock(itemid, qty)`` table with the decrement/refill
  transaction of Listing 1, plus the multi-item variant of Appendix
  F.1 (Figure 27).
- :mod:`repro.workloads.tpcc` -- the Section 6.2 TPC-C subset:
  New Order / Payment / Delivery encoded in L++ with the Appendix E
  treaty structure.
- :mod:`repro.workloads.geo` -- a geo-partitioned variant of the
  microbenchmark: the item space is split into replication groups
  (site subsets), so treaty negotiations are participant-scoped and
  priced from the group's own RTT edges.
- :mod:`repro.workloads.topk` -- the Section 1 top-k aggregation
  example (Figures 1-2).
- :mod:`repro.workloads.weather` -- the Appendix D examples (top-k of
  minimums; top-k temperature differences).

The scenario fleet stresses regimes the paper's own benchmarks leave
implicit:

- :mod:`repro.workloads.flashsale` -- one hot SKU, a stock treaty
  whose headroom collapses toward zero (the adaptive-rebalance
  stress case).
- :mod:`repro.workloads.banking` -- cross-site account transfers
  under non-negative balances (the ING / coordination-avoidance
  canonical example).
- :mod:`repro.workloads.quota` -- a multi-tenant rate limiter: many
  small independent treaties stressing the treaty table and the
  escrow index.

The micro, geo, TPC-C and fleet workloads share one builder spine
and one request shape, both in :mod:`repro.workloads.common`, whose
:class:`WorkloadSpecError` is raised by every workload constructor on
a misconfigured spec.
"""

from repro.workloads.banking import BankingWorkload
from repro.workloads.common import ReplicatedWorkloadBase, WorkloadSpecError
from repro.workloads.flashsale import FlashSaleWorkload
from repro.workloads.geo import GeoMicroWorkload
from repro.workloads.micro import MicroWorkload
from repro.workloads.quota import QuotaWorkload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.topk import TopKWorkload
from repro.workloads.weather import WeatherWorkload

__all__ = [
    "BankingWorkload",
    "FlashSaleWorkload",
    "GeoMicroWorkload",
    "MicroWorkload",
    "QuotaWorkload",
    "ReplicatedWorkloadBase",
    "TpccWorkload",
    "TopKWorkload",
    "WeatherWorkload",
    "WorkloadSpecError",
]
