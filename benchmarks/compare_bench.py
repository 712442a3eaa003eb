"""Hold a benchmark run to the committed ``BENCH_*.json`` baselines.

Loads every scenario of the table in ``scenarios.py`` from both
directories, evaluates the scenario's gate rows, and prints one line
per scenario and one per row, from the row's own text.  The gates are
the rows; this file has no opinion about any of them.

Exit status is non-zero iff a record is missing or unreadable or a row
fails, so CI can hard-fail on main and soft-fail
(``continue-on-error``) on pull requests.

Usage::

    python benchmarks/harness.py --out bench-results
    python benchmarks/compare_bench.py --current bench-results --baseline .
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from scenarios import SCENARIOS, load


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--current",
        type=Path,
        default=Path("bench-results"),
        help="directory holding the fresh BENCH_*.json run",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("."),
        help="directory holding the committed baseline BENCH_*.json files",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    for name, scenario in SCENARIOS.items():
        try:
            baseline, current = load(args.baseline, name), load(args.current, name)
        except ValueError as exc:
            print(f"[FAIL] {name}")
            failures.append(str(exc))
            continue
        verdicts = [
            row.check(block, baseline, current) for block, row in scenario.rows()
        ]
        failures.extend(f"{name}: {text}" for ok, text in verdicts if not ok)
        print(
            f"[{'ok' if all(ok for ok, _ in verdicts) else 'FAIL'}] {name}: wall "
            f"{current['wall_time_s']:.2f}s (baseline {baseline['wall_time_s']:.2f}s, "
            f"not gated)"
        )
        for ok, text in verdicts:
            print(f"    {'ok  ' if ok else 'FAIL'} {text}")

    if failures:
        print("\nregressions:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(SCENARIOS)} scenario(s) within their gates")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
