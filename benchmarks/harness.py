"""Run the scenario table: scenarios -> ``BENCH_*.json``.

Every performance claim this repo makes should leave a durable,
diffable record.  This runs the scenarios of ``scenarios.py`` (each a
prepackaged experiment from ``repro.sim.experiments``, plus ``check``,
the host-time treaty-check microbenchmark) and writes one
``BENCH_<scenario>.json`` per scenario; ``compare_bench.py`` holds a
run to the committed baselines and CI runs both on every push.  What
a record holds is what ``scenarios.sim_record`` and the scenario's
block builders put there.

Run it::

    python benchmarks/harness.py --out bench-results        # all scenarios
    python benchmarks/harness.py --scenario geo_pricing     # one scenario
    python benchmarks/harness.py --out .                    # refresh baselines
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from scenarios import SCENARIOS, bench_path, run_scenario


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="scenario to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("bench-results"),
        help="directory for BENCH_<scenario>.json files (default: bench-results)",
    )
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    for name in args.scenario or sorted(SCENARIOS):
        record = run_scenario(name)
        path = bench_path(args.out, name)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        # The headline: the record's gated top-level fields.
        gated = [row.field for row in SCENARIOS[name].gates.get("", ())]
        print(
            f"{name}: "
            + ", ".join(f"{field} {record[field]}" for field in gated)
            + f" (wall {record['wall_time_s']:.2f}s) -> {path}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
