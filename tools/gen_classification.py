#!/usr/bin/env python3
"""Generate (or verify) the golden classification table.

``docs/CLASSIFICATION.md`` records what the static check tier
(``repro.analysis.pathsplit``) decides about every bundled workload:
per transaction and site, the per-path check kinds each site holds
after its install (``SiteServer.path_checks``) and the verdict they
roll up to (FREE / PATH_SENSITIVE / TREATY).  The table is *generated
from the live sites* of deterministically built clusters, so it
doubles as a regression surface: a change that silently downgrades
Payment from FREE to TREATY shows up as a diff here before it shows
up as a benchmark regression.

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

DOC_PATH = REPO / "docs" / "CLASSIFICATION.md"

HEADER = """\
# Classifier verdicts for the bundled workloads

<!-- Generated by tools/gen_classification.py; do not edit by hand.
     Regenerate with: python tools/gen_classification.py -->

What the static check tier (`repro.analysis.pathsplit`) decides about
each bundled workload's stored procedures, per site, under the
treaties the deterministic seed installs.  Verdicts:

- **FREE** -- every path bypasses the treaty check entirely: it
  writes no array base any treaty clause mentions.
- **PATH_SENSITIVE** -- some paths are FREE, the rest need a check;
  the dispatch-time path split prices each path separately.
- **TREATY** -- every path needs the treaty check.

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


def verdict(kinds: list[str]) -> str:
    """The procedure-level verdict its paths' check kinds roll up to."""
    if all(kind == "free" for kind in kinds):
        return "FREE"
    if "free" in kinds:
        return "PATH_SENSITIVE"
    return "TREATY"


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
            if server.local_treaty is None:
                continue
            for tx_name, checks in sorted(server.path_checks.items()):
                kinds = [check.kind for check in checks]
                sections.append(
                    f"| s{sid} | `{tx_name}` | "
                    f"{verdict(kinds)} | {', '.join(kinds)} |"
                )
    sections.append("")
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed doc matches the live sites",
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
