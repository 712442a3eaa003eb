"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation (Section 6 / Appendix F) at reduced scale, prints the
series it measured next to the paper's qualitative expectation, and
asserts the *shape*: orderings, rough factors, and trend directions.
Absolute numbers differ by design -- the substrate is a simulator,
not the authors' EC2 testbed (see the README's *Benchmarks* section
for the scale note).
"""

from __future__ import annotations

from typing import Iterable, Sequence

#: Default reduced-scale knobs shared across microbenchmark figures.
#: (Small enough that the full 20-figure suite regenerates in minutes;
#: raise for tighter series -- shapes are already stable at this size.)
MICRO_TXNS = 2_500
MICRO_ITEMS = 150
TPCC_TXNS = 1_500


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Render an aligned table to stdout (captured by pytest -s)."""
    rows = [list(map(_fmt, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    print()
    print(f"=== {title} ===")
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def assert_monotone(values: Sequence[float], increasing: bool, label: str,
                    tolerance: float = 0.0) -> None:
    """Assert a trend direction, allowing `tolerance` relative noise."""
    for a, b in zip(values, values[1:]):
        if increasing:
            assert b >= a * (1.0 - tolerance), (
                f"{label}: expected non-decreasing trend, got {values}"
            )
        else:
            assert b <= a * (1.0 + tolerance), (
                f"{label}: expected non-increasing trend, got {values}"
            )


def assert_factor(big: float, small: float, factor: float, label: str) -> None:
    """Assert `big` exceeds `small` by at least `factor`."""
    assert small > 0, f"{label}: degenerate baseline {small}"
    assert big / small >= factor, (
        f"{label}: expected >= {factor}x separation, got {big / small:.1f}x "
        f"({big:.1f} vs {small:.1f})"
    )


def once(benchmark, fn):
    """Run the experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
