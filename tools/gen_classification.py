#!/usr/bin/env python3
"""Generate (or verify) the golden classification table.

``docs/CLASSIFICATION.md`` records what the coordination-freedom
classifier proves about every bundled workload: per transaction and
site, the procedure-level verdict (FREE / PATH_SENSITIVE / TREATY /
SYNC) and the per-path check kinds the path-sensitive tier selects at
dispatch time.  The table is *generated from the live classifier* over
deterministically built clusters, so it doubles as a regression
surface: a change that silently downgrades Payment from FREE to
TREATY shows up as a diff here before it shows up as a benchmark
regression.

Usage::

    python tools/gen_classification.py            # rewrite the doc
    python tools/gen_classification.py --check    # CI drift gate
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # script mode: make src/ importable
    sys.path.insert(0, str(REPO / "src"))

from repro.analysis.classify import classify_catalog  # noqa: E402

DOC_PATH = REPO / "docs" / "CLASSIFICATION.md"

HEADER = """\
# Classifier verdicts for the bundled workloads

<!-- Generated by tools/gen_classification.py; do not edit by hand.
     Regenerate with: python tools/gen_classification.py -->

What the coordination-freedom classifier (`repro.analysis.classify`)
proves about each bundled workload's stored procedures, per site,
under the treaties the deterministic seed installs.  Verdicts:

- **FREE** -- every path bypasses the treaty check entirely (machine-
  checked witness: the path writes no array base any treaty clause
  mentions).
- **PATH_SENSITIVE** -- some paths are FREE, the rest need a check;
  the dispatch-time path split prices each path separately.
- **TREATY** -- every path needs the treaty check.
- **SYNC** -- some path provably breaks a pinned value every time it
  runs; no treaty can license it locally.

`paths` lists the per-path check kind the path-sensitive tier selects
(`free` / `full`), in symbolic-table row order.
"""


def _micro_cluster():
    from repro.workloads.micro import MicroWorkload

    workload = MicroWorkload(
        num_items=8, refill=100, num_sites=2, audit_fraction=0.25
    )
    return workload.build_homeostasis(strategy="equal-split", seed=0)


def _tpcc_cluster():
    from repro.workloads.tpcc import TpccWorkload

    workload = TpccWorkload(
        num_warehouses=2, num_districts=2, items_per_district=4, initial_stock=40
    )
    return workload.build_homeostasis(strategy="equal-split", seed=0)


WORKLOADS = {
    "micro (Listing 1 + Audit probes)": _micro_cluster,
    "tpcc (Section 6.2 subset)": _tpcc_cluster,
}


def render() -> str:
    sections = [HEADER]
    for title, build in WORKLOADS.items():
        cluster = build()
        sections.append(f"\n## {title}\n")
        sections.append("| site | transaction | verdict | paths |")
        sections.append("| --- | --- | --- | --- |")
        for sid in sorted(cluster.sites):
            server = cluster.sites[sid]
            treaty = server.local_treaty
            if treaty is None:
                continue
            verdicts = classify_catalog(server.catalog, treaty)
            for tx_name in sorted(verdicts):
                classification = verdicts[tx_name]
                checks = server.path_checks.get(tx_name, ())
                paths = ", ".join(c.kind for c in checks) or "-"
                sections.append(
                    f"| s{sid} | `{tx_name}` | "
                    f"{classification.verdict} | {paths} |"
                )
    sections.append("")
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed doc matches the live classifier",
    )
    args = parser.parse_args(argv)
    content = render()
    if args.check:
        committed = DOC_PATH.read_text() if DOC_PATH.exists() else ""
        if committed != content:
            print(
                f"{DOC_PATH} is stale: regenerate with "
                f"`python tools/gen_classification.py`",
                file=sys.stderr,
            )
            return 1
        print(f"{DOC_PATH} is current")
        return 0
    DOC_PATH.write_text(content)
    print(f"wrote {DOC_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
