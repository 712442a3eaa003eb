"""Reproduction of "The Homeostasis Protocol: Avoiding Transaction
Coordination Through Program Analysis" (Roy et al., SIGMOD 2015).

The package implements the paper's full pipeline from scratch:

- :mod:`repro.lang` -- the transaction languages L / L++ (parser,
  interpreter, Appendix A desugaring);
- :mod:`repro.logic` -- the formula substrate (terms, formulas,
  linear normal forms, the Appendix C.1 preprocessing);
- :mod:`repro.analysis` -- symbolic tables (Figure 6), joint tables,
  grounding, residual optimization, per-path check selection,
  LR-slices;
- :mod:`repro.solver` -- exact rational simplex, branch-and-bound
  ILP, Fu-Malik MaxSAT and the specialized budget solver (the paper
  used Z3; this reproduction is self-contained);
- :mod:`repro.treaty` -- treaty templates, Theorem 4.3 / equal-split
  / Algorithm 1 configurations, treaty tables;
- :mod:`repro.storage` -- the per-site transactional engine (a
  single writer: one open transaction at a time, undo log; the paper
  used MySQL);
- :mod:`repro.protocol` -- the homeostasis protocol kernel, the
  Appendix B remote-write transform, and the LOCAL / 2PC baselines;
- :mod:`repro.runtime` -- the asyncio runtime: sites as tasks,
  messages as wire frames, ``repro-serve`` over loopback sockets;
- :mod:`repro.sim` -- the discrete-event performance harness
  (replaces the paper's EC2 deployment);
- :mod:`repro.workloads` -- the microbenchmark, the TPC-C subset,
  top-k, and the Appendix D weather examples.

This module is the public facade: analysis entry points, the workload
builders, and the :class:`ClusterSpec` / :func:`build_cluster` pair
that constructs the protocol kernel (in-process, or hosted on the
asyncio runtime) from one declarative value.  Quickstart (see also
``examples/quickstart.py``)::

    from repro import MicroWorkload, build_cluster

    workload = MicroWorkload(num_items=10, refill=20, num_sites=2)
    cluster = build_cluster(workload.cluster_spec(strategy="equal-split"))
    result = cluster.submit("Buy@s0", {"item": 3})
    print(result.status, cluster.stats.sync_ratio)
"""

from repro.analysis.joint import build_joint_table
from repro.analysis.symbolic import SymbolicTable, build_symbolic_table
from repro.lang.interp import evaluate
from repro.lang.parser import parse_program, parse_transaction
from repro.logic.linearize import linearize_for_treaty
from repro.protocol.config import ClusterSpec, NegotiationSpec, build_cluster
from repro.protocol.homeostasis import TreatyGenerator
from repro.protocol.kernel import HomeostasisCluster
from repro.protocol.messages import Outcome
from repro.sim.experiments import run as run_experiment
from repro.sim.runner import SimConfig, SimResult
from repro.sim.runner import simulate as run_simulation
from repro.treaty.config import (
    default_configuration,
    equal_split_configuration,
)
from repro.treaty.optimize import SequenceWorkloadModel, optimize_configuration
from repro.treaty.templates import build_templates
from repro.workloads.banking import BankingWorkload
from repro.workloads.common import WorkloadSpecError
from repro.workloads.flashsale import FlashSaleWorkload
from repro.workloads.geo import GeoMicroWorkload
from repro.workloads.micro import MicroWorkload
from repro.workloads.quota import QuotaWorkload
from repro.workloads.topk import (
    TopKSystem,
    TopKWorkload,
    aggregator_table,
    skip_guard_threshold,
)
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.weather import WeatherWorkload

__version__ = "1.0.0"


__all__ = [
    # analysis pipeline
    "SymbolicTable",
    "build_joint_table",
    "build_symbolic_table",
    "build_templates",
    "linearize_for_treaty",
    # language
    "evaluate",
    "parse_program",
    "parse_transaction",
    # treaty configuration
    "SequenceWorkloadModel",
    "default_configuration",
    "equal_split_configuration",
    "optimize_configuration",
    # cluster construction + protocol
    "ClusterSpec",
    "HomeostasisCluster",
    "NegotiationSpec",
    "Outcome",
    "TreatyGenerator",
    "build_cluster",
    # simulation harness
    "SimConfig",
    "SimResult",
    "run_experiment",
    "run_simulation",
    # workloads
    "BankingWorkload",
    "FlashSaleWorkload",
    "GeoMicroWorkload",
    "MicroWorkload",
    "QuotaWorkload",
    "WorkloadSpecError",
    "TopKSystem",
    "TopKWorkload",
    "TpccWorkload",
    "WeatherWorkload",
    "aggregator_table",
    "skip_guard_threshold",
    "__version__",
]
