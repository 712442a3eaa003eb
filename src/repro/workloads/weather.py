"""Appendix D: the weather-monitoring examples beyond top-k.

Two programs over per-day temperature observations:

1. **top-k of minimums** -- each day keeps its record low; the
   program prints the k highest record lows.  The insert's observable
   behaviour changes only when the new value is a new minimum for its
   day *and* that minimum enters the top-k -- the k+2 case structure
   Appendix D describes, which our analysis derives as symbolic-table
   rows.

2. **top-k temperature differences** -- each day keeps its record low
   and high; the program prints the largest (high - low) spread.  The
   case analysis is subtler (new max, new min, enters/leaves top-k);
   the paper's argument is that deriving these treaties manually is
   error-prone while the analysis is mechanical.

For tractability the programs are generated for a concrete number of
days and k (bounded arrays, Appendix A style, with the comparison
networks unrolled); the module exposes builders plus the derived
tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.symbolic import SymbolicTable, build_symbolic_table
from repro.lang.ast import Transaction
from repro.lang.parser import parse_transaction


def record_low_source(num_days: int) -> str:
    """``RecordLow(day, temp)``: update a day's record low.

    Appendix-A style: the parameterized slot update stays compressed.
    """
    return """
    transaction RecordLow(day, temp) {
      m := read(daymin(@day));
      if @temp < m then { write(daymin(@day) = @temp) } else { skip }
    }
    """


def record_range_source(num_days: int) -> str:
    """``RecordObs(day, temp)``: update both record low and high."""
    return """
    transaction RecordObs(day, temp) {
      lo := read(daymin(@day));
      hi := read(daymax(@day));
      if @temp < lo then { write(daymin(@day) = @temp) } else { skip }
      if @temp > hi then { write(daymax(@day) = @temp) } else { skip }
    }
    """


def _max2_print(values: list[str]) -> str:
    """Unrolled code printing the top-2 of the given expressions.

    The L encoding of a small sorting network: temporaries m1 >= m2
    are threaded through an if-chain, then printed.
    """
    lines = ["m1 := -10000;", "m2 := -10000;"]
    for v in values:
        lines.append(
            f"""
      if {v} > m1 then {{ m2 := m1; m1 := {v} }}
      else {{ if {v} > m2 then {{ m2 := {v} }} else {{ skip }} }}"""
        )
    lines.append("print(m1); print(m2);")
    return "\n".join(lines)


def top2_of_minimums_source(num_days: int) -> str:
    """Insert an observation, then print the 2 highest record lows.

    This is the Appendix D "maximum of minimums" program for k = 2:
    the print makes the top-2 of the per-day minimums observable, so
    the symbolic table's rows spell out the k+2 behavioural cases.
    """
    reads = "\n".join(f"v{d} := read(daymin({d}));" for d in range(num_days))
    tops = _max2_print([f"v{d}" for d in range(num_days)])
    return f"""
    transaction Top2Lows(day, temp) {{
      m := read(daymin(@day));
      if @temp < m then {{ write(daymin(@day) = @temp) }} else {{ skip }}
      {reads}
      {tops}
    }}
    """


def top2_of_differences_source(num_days: int) -> str:
    """Insert an observation, then print the 2 largest (high - low)."""
    update = """
      lo := read(daymin(@day));
      hi := read(daymax(@day));
      if @temp < lo then { write(daymin(@day) = @temp) } else { skip }
      if @temp > hi then { write(daymax(@day) = @temp) } else { skip }
    """
    reads = "\n".join(
        f"d{d} := read(daymax({d})) - read(daymin({d}));" for d in range(num_days)
    )
    tops = _max2_print([f"d{d}" for d in range(num_days)])
    return f"""
    transaction Top2Diffs(day, temp) {{
      {update}
      {reads}
      {tops}
    }}
    """


@dataclass
class WeatherWorkload:
    """Builders for the Appendix D analyses."""

    num_days: int = 3

    def record_low(self) -> Transaction:
        return parse_transaction(record_low_source(self.num_days))

    def top2_lows(self) -> Transaction:
        return parse_transaction(top2_of_minimums_source(self.num_days))

    def top2_diffs(self) -> Transaction:
        return parse_transaction(top2_of_differences_source(self.num_days))

    def top2_lows_table(self) -> SymbolicTable:
        return build_symbolic_table(self.top2_lows())

    def top2_diffs_table(self) -> SymbolicTable:
        return build_symbolic_table(self.top2_diffs())
