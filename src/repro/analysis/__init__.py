"""Program analysis: symbolic tables, joint tables, LR-slices.

- :mod:`repro.analysis.symbolic` -- per-transaction symbolic tables
  via the backward construction of Figure 6.
- :mod:`repro.analysis.joint` -- joint tables for transaction sets
  (the K+1-ary relation of Section 2.2).
- :mod:`repro.analysis.slices` -- local-remote partitions, LR-slices
  and observational equivalence (Definitions 3.2-3.7).
- :mod:`repro.analysis.pathsplit` -- per-path write summaries and
  treaty-check selection: a path that writes no base a treaty clause
  mentions is ``free`` (coordination-free by disjointness), every
  other path takes the ``full`` check.
- :mod:`repro.analysis.ground` -- grounding of parameterized
  transactions into per-instance tables, which treaty generation
  looks up one at a time (Section 5.1).
"""

from repro.analysis.symbolic import (
    AnalysisError,
    Row,
    SymbolicTable,
    build_symbolic_table,
)
from repro.analysis.joint import JointRow, JointSymbolicTable, build_joint_table
from repro.analysis.pathsplit import PathCheck, WriteSummary, build_path_checks
from repro.analysis.slices import (
    LocalRemotePartition,
    is_lr_slice,
    is_valid_global_treaty,
    observationally_equivalent,
)

__all__ = [
    "AnalysisError",
    "JointRow",
    "JointSymbolicTable",
    "LocalRemotePartition",
    "PathCheck",
    "Row",
    "SymbolicTable",
    "WriteSummary",
    "build_joint_table",
    "build_path_checks",
    "build_symbolic_table",
    "is_lr_slice",
    "is_valid_global_treaty",
    "observationally_equivalent",
]
