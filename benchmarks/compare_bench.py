"""Diff a benchmark run against the committed ``BENCH_*.json`` baseline.

Gates (per scenario):

- ``throughput_txn_per_s`` (simulated, deterministic) must not drop
  more than ``--threshold`` (default 20%) below the baseline;
- ``sync_ratio`` must not rise more than ``--threshold`` above the
  baseline (plus a small absolute epsilon for near-zero ratios);
- ``p99_ms`` (simulated, deterministic) must not rise more than
  ``--threshold`` above the baseline;
- scenarios carrying an ``adaptive_gate`` block (the adaptive_skew
  scenario) must show the adaptive sync ratio **strictly below** the
  static one at the high-skew point, per workload -- this is the
  headline claim of adaptive reallocation, checked on the *current*
  run (both ratios are deterministic under the fixed seed, so the
  inequality is stable) in addition to the regression gates above;
- scenarios carrying a ``fault_gate`` block (the faults scenario)
  must show homeostasis **committing on the surviving sites during
  the outage window while 2PC blocks**: homeo outage-window
  availability strictly above 2PC's, above an absolute floor (0.5),
  and 2PC's at most 0.05 -- all deterministic under the fixed seed;
  a ``winner_crash`` sub-block additionally asserts the Paxos Commit
  survivor path: the round whose origin crash-stopped mid-quorum
  committed without the origin, announced completion, and the origin
  recovered and committed again (every flag checked);
- scenarios carrying a ``fairness_gate`` block (the contention_races
  scenario) must show the budgeted credit policy **bounding the worst
  losing streak** in the tie-dominated regime: credit's
  max-consecutive-losses at or below an absolute ceiling (3) and
  strictly below the pure site-id priority policy's, whose streaks
  grow with skew -- deterministic under the fixed seed;
- the treaty-check microbenchmark ``speedup`` must stay at or above
  ``--min-speedup`` (default 1.5).  The recorded speedups sit at
  ~2.4-2.9x; the floor is deliberately below them because the speedup
  is a wall-clock *ratio* measured on the host -- it is robust to a
  uniformly slow machine but a noisy shared runner can shave a few
  tenths, and the gate's job is to catch the fast path being broken
  (ratio collapsing to ~1x), not to relitigate the margin;
- the escrow-counter microbenchmark ``escrow_speedup`` (escrow
  commits over compiled-closure checks) must stay at or above
  ``--min-escrow-speedup`` (default 5.0) -- same one-shared-
  measurement, judged-once treatment as the compiled speedup, with
  the recorded values sitting at >10x;
- ``escrow_eligible_ratio`` (eligible installs / installs, fully
  deterministic under the fixed seed) must not drop below the
  baseline on the ``micro`` and ``adaptive_skew`` scenarios: a
  lowering change that silently sends real treaties back to the
  compiled slow path should fail loudly, not vanish into a
  throughput wobble;
- ``free_ratio`` (classifier-FREE commit-check bypasses per treaty
  execution, deterministic) must not drop below the baseline on the
  ``micro`` scenario, whose mix carries read-only ``Audit`` probes
  the coordination-freedom classifier must keep proving FREE;
- the TPC-C ``checks_per_commit`` (mean treaty clauses in scope per
  commit, recorded in the adaptive_skew scenario's gate block) must
  not rise above the baseline: a path-sensitivity regression that
  sends ``free`` paths back to the ``full`` check should fail loudly;
- scenarios carrying a ``flashsale_gate`` block must show the
  deterministic sell-out audit clean: the hot SKU ends exactly at
  zero after 3x demand -- sold out, never oversold; the scenario's
  ``adaptive_gate`` row additionally requires adaptive strictly below
  static on sync ratio at the hot point;
- scenarios carrying a ``banking_gate`` block must conserve money
  exactly (final total equals initial funds plus deposits) with no
  account ending negative;
- scenarios carrying a ``quota_gate`` block must show the hammered
  tenant reaching its limit exactly and never overrunning it; the
  quota scenario's record-level ``checks_per_commit`` is additionally
  gated against the baseline (150 independent tenant treaties make it
  the canary for treaty-table / compiled-check-cache bloat);
- records carrying an ``async_gate`` block (the async_loopback
  scenario, produced by ``bench_async_loopback.py`` rather than the
  harness) are judged by **absolute floors only** -- their
  throughput is real wall-clock over loopback sockets, far too
  host-dependent for relative gates.  The floors: at least
  ``min_connections`` concurrent client connections, throughput at
  or above the recorded floor, every submitted transaction
  committed, a sync ratio in ``(0, sync_ratio_max]`` (the run must
  negotiate, on the async wire), real inter-site frames sent, and
  the differential oracle (async kernel vs deterministic simulator
  on identical seeds) reporting agreement.

``wall_time_s`` and absolute check rates are host-dependent and only
reported, never gated.  Exit status is non-zero iff any gate fails,
so CI can hard-fail on main and soft-fail (``continue-on-error``) on
pull requests.

Usage::

    python benchmarks/harness.py --out bench-results
    python benchmarks/compare_bench.py --current bench-results --baseline .
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: absolute slack on sync-ratio comparisons (a 0.001 -> 0.002 move is
#: within seed-level noise, not a 100% regression)
SYNC_RATIO_EPSILON = 0.005


def _load(path: Path) -> dict:
    with path.open() as fh:
        record = json.load(fh)
    version = record.get("schema_version")
    if version != 3:
        raise SystemExit(f"{path}: unsupported schema_version {version!r}")
    return record


#: scenarios whose escrow eligibility ratio is gated against the
#: baseline (the protocol scenarios where the escrow path carries the
#: commit load; the fault scenario crashes accounts mid-run and the
#: geo/contention scenarios are covered transitively by the lowering)
ESCROW_ELIGIBILITY_SCENARIOS = ("micro", "adaptive_skew")

#: scenarios whose classifier-FREE bypass ratio is gated against the
#: baseline (the micro mix carries read-only Audit probes the
#: classifier must keep proving FREE)
CLASSIFIER_FREE_SCENARIOS = ("micro",)

#: adaptive_gate workloads whose per-commit clauses-in-scope count is
#: gated against the baseline (TPC-C is where ``free`` paths -- Payment,
#: one Delivery path -- shrink the scope; micro's two-path Buy has
#: nothing to shrink)
CHECKS_PER_COMMIT_WORKLOADS = ("tpcc",)

#: scenarios whose *record-level* checks_per_commit is gated against
#: the baseline (quota runs 150 independent tenant treaties, so a
#: treaty-table or compiled-check-cache regression shows up directly
#: as clause-scope bloat per commit)
CHECKS_PER_COMMIT_SCENARIOS = ("quota",)


def compare_scenario(baseline: dict, current: dict, threshold: float) -> list[str]:
    """Gate failures for one scenario's deterministic metrics.

    The treaty-check speedup is *not* gated here: the harness measures
    it once per run and copies the record into every scenario file, so
    the floor is applied once in :func:`main` (one noisy measurement
    must fail once, not once per scenario)."""
    failures: list[str] = []
    name = baseline["scenario"]

    if baseline.get("async_gate") or current.get("async_gate"):
        # Wall-clock-over-sockets records: absolute floors only, the
        # relative gates below assume deterministic simulated numbers.
        return async_gate_failures(name, current)

    base_tput = baseline["throughput_txn_per_s"]
    cur_tput = current["throughput_txn_per_s"]
    if cur_tput < base_tput * (1.0 - threshold):
        failures.append(
            f"{name}: throughput regressed {base_tput:.1f} -> {cur_tput:.1f} "
            f"txn/s (> {threshold:.0%} drop)"
        )

    base_sync = baseline["sync_ratio"]
    cur_sync = current["sync_ratio"]
    if cur_sync > base_sync * (1.0 + threshold) + SYNC_RATIO_EPSILON:
        failures.append(
            f"{name}: sync ratio regressed {base_sync:.4f} -> {cur_sync:.4f} "
            f"(> {threshold:.0%} rise)"
        )

    base_p99 = baseline["p99_ms"]
    cur_p99 = current["p99_ms"]
    if cur_p99 > base_p99 * (1.0 + threshold):
        failures.append(
            f"{name}: p99 latency regressed {base_p99:.1f} -> {cur_p99:.1f} ms "
            f"(> {threshold:.0%} rise)"
        )

    if name in ESCROW_ELIGIBILITY_SCENARIOS:
        base_elig = baseline["escrow_eligible_ratio"]
        cur_elig = current["escrow_eligible_ratio"]
        if cur_elig < base_elig:
            failures.append(
                f"{name}: escrow eligibility dropped {base_elig:.4f} -> "
                f"{cur_elig:.4f} (treaties falling back to the compiled path)"
            )

    if name in CLASSIFIER_FREE_SCENARIOS:
        base_free = baseline.get("free_ratio", 0.0)
        cur_free = current.get("free_ratio", 0.0)
        if cur_free < base_free:
            failures.append(
                f"{name}: classifier FREE ratio dropped {base_free:.4f} -> "
                f"{cur_free:.4f} (FREE paths falling back to treaty checks)"
            )

    if name in CHECKS_PER_COMMIT_SCENARIOS:
        base_cpc = baseline.get("checks_per_commit", 0.0)
        cur_cpc = current.get("checks_per_commit", 0.0)
        if cur_cpc > base_cpc:
            failures.append(
                f"{name}: checks per commit rose {base_cpc:.2f} -> "
                f"{cur_cpc:.2f} (per-commit treaty clause scope bloated)"
            )

    failures.extend(checks_per_commit_failures(name, baseline, current))
    failures.extend(adaptive_gate_failures(name, current))
    failures.extend(fault_gate_failures(name, current))
    failures.extend(fairness_gate_failures(name, current))
    failures.extend(flashsale_gate_failures(name, current))
    failures.extend(banking_gate_failures(name, current))
    failures.extend(quota_gate_failures(name, current))
    return failures


def checks_per_commit_failures(
    name: str, baseline: dict, current: dict
) -> list[str]:
    """The path-sensitivity gate: mean treaty clauses in scope per
    commit must not rise above the baseline on the gated workloads of
    a record's ``adaptive_gate`` block (empty for scenarios without
    one).  Both numbers are deterministic under the fixed seed."""
    base_gate = baseline.get("adaptive_gate") or {}
    cur_gate = current.get("adaptive_gate") or {}
    failures: list[str] = []
    for workload in CHECKS_PER_COMMIT_WORKLOADS:
        base_point = base_gate.get(workload)
        cur_point = cur_gate.get(workload)
        if not isinstance(base_point, dict) or not isinstance(cur_point, dict):
            continue
        base_cpc = base_point.get("checks_per_commit", 0.0)
        cur_cpc = cur_point.get("checks_per_commit", 0.0)
        if cur_cpc > base_cpc:
            failures.append(
                f"{name}/{workload}: checks per commit rose {base_cpc:.2f} -> "
                f"{cur_cpc:.2f} (free paths widening back to the full "
                f"check)"
            )
    return failures


def adaptive_gate_failures(name: str, current: dict) -> list[str]:
    """The adaptive-beats-static gate over a record's ``adaptive_gate``
    block (empty for scenarios without one)."""
    gate = current.get("adaptive_gate")
    if not gate:
        return []
    failures: list[str] = []
    for workload, point in sorted(gate.items()):
        if not isinstance(point, dict):
            continue  # 'skew' and other scalar annotations
        adaptive = point["adaptive_sync_ratio"]
        static = point["static_sync_ratio"]
        if not adaptive < static:
            failures.append(
                f"{name}/{workload}: adaptive sync ratio {adaptive:.4f} not "
                f"strictly below static {static:.4f} at skew {gate.get('skew')}"
            )
    return failures


#: fault-gate thresholds: homeostasis must stay at least this
#: available during the outage window, and 2PC at most this available
#: (it blocks; its only commits race the crash boundary)
FAULT_HOMEO_FLOOR = 0.5
FAULT_TWOPC_CEILING = 0.05


def fault_gate_failures(name: str, current: dict) -> list[str]:
    """The homeostasis-survives-2PC-blocks gate over a record's
    ``fault_gate`` block (empty for scenarios without one).  All three
    checks run on the *current* record -- the quantities are
    deterministic under the fixed seed, so the inequalities are stable
    across machines."""
    gate = current.get("fault_gate")
    if not gate:
        return []
    failures: list[str] = []
    homeo = gate["homeo_outage_availability"]
    twopc = gate["twopc_outage_availability"]
    if not homeo > twopc:
        failures.append(
            f"{name}: homeo outage availability {homeo:.4f} not strictly "
            f"above 2PC's {twopc:.4f}"
        )
    if homeo < FAULT_HOMEO_FLOOR:
        failures.append(
            f"{name}: homeo outage availability {homeo:.4f} below the "
            f"{FAULT_HOMEO_FLOOR} floor (surviving sites should keep committing)"
        )
    if twopc > FAULT_TWOPC_CEILING:
        failures.append(
            f"{name}: 2PC outage availability {twopc:.4f} above the "
            f"{FAULT_TWOPC_CEILING} ceiling (2PC should block during an outage)"
        )
    failures.extend(winner_crash_failures(name, gate.get("winner_crash")))
    return failures


#: winner_crash flags that must all be true for the survivor path to
#: count as exercised (see run_winner_crash for what each one means)
WINNER_CRASH_FLAGS = (
    "committed",
    "origin_down_at_completion",
    "origin_excluded",
    "recovered_clean",
    "post_recovery_committed",
)


def winner_crash_failures(name: str, crash: dict | None) -> list[str]:
    """The Paxos Commit survivor-completion gate over a fault_gate's
    ``winner_crash`` sub-block (empty when absent, for baselines
    predating it).  The scenario is fully deterministic."""
    if not crash:
        return []
    failures: list[str] = []
    for flag in WINNER_CRASH_FLAGS:
        if not crash.get(flag):
            failures.append(
                f"{name}: winner_crash flag {flag!r} is false (survivor "
                f"completion of the crashed origin's round broke)"
            )
    if crash.get("complete_messages", 0) < 1:
        failures.append(
            f"{name}: winner_crash announced no Complete message (the "
            f"survivor never closed the round for the other participants)"
        )
    return failures


#: absolute ceiling on the credit policy's worst losing streak in the
#: tie-dominated fairness scenario (the recorded value sits at 2; the
#: budgeted credit bounds it by construction, so 3 is headroom for
#: workload-mix drift, not for a starvation regression)
CREDIT_MAX_LOSSES = 3


def fairness_gate_failures(name: str, current: dict) -> list[str]:
    """The starvation-freedom gate over a record's ``fairness_gate``
    block (empty for scenarios without one).  Both policies run the
    identical tie-dominated skew point, so the comparison is
    deterministic under the fixed seed."""
    gate = current.get("fairness_gate")
    if not gate:
        return []
    failures: list[str] = []
    priority = gate.get("priority") or {}
    credit = gate.get("credit") or {}
    credit_losses = credit.get("max_consecutive_losses")
    priority_losses = priority.get("max_consecutive_losses")
    if credit_losses is None or priority_losses is None:
        return [f"{name}: fairness_gate missing a policy block"]
    if credit_losses > CREDIT_MAX_LOSSES:
        failures.append(
            f"{name}: credit policy's max consecutive losses "
            f"{credit_losses} above the {CREDIT_MAX_LOSSES} ceiling "
            f"(priority credit no longer bounds starvation)"
        )
    if not credit_losses < priority_losses:
        failures.append(
            f"{name}: credit max consecutive losses {credit_losses} not "
            f"strictly below priority's {priority_losses} at skew "
            f"{gate.get('skew')} (the policies stopped separating)"
        )
    if credit.get("elections", 0) <= 0:
        failures.append(
            f"{name}: fairness scenario held no contested elections "
            f"(the tie-dominated point stopped racing)"
        )
    return failures


def flashsale_gate_failures(name: str, current: dict) -> list[str]:
    """The sell-out audit over a record's ``flashsale_gate`` block
    (empty for scenarios without one).  Driving 3x the hot stock in
    checkouts is deterministic under the fixed seed: the hot SKU must
    end exactly at zero -- sold out, never oversold -- whatever the
    treaty splits and refreshes did along the way."""
    gate = current.get("flashsale_gate")
    if not gate:
        return []
    failures: list[str] = []
    if not gate.get("sold_out"):
        failures.append(
            f"{name}: hot SKU did not sell out ({gate.get('hot_remaining')} "
            f"of {gate.get('hot_stock')} left after 3x demand)"
        )
    if gate.get("oversold_units", 0) != 0:
        failures.append(
            f"{name}: oversold {gate['oversold_units']} unit(s) (the stock "
            f"treaty admitted a decrement below zero)"
        )
    if gate.get("min_stock", 0) < 0:
        failures.append(
            f"{name}: a SKU ended at {gate['min_stock']} (negative stock "
            f"on final state)"
        )
    return failures


def banking_gate_failures(name: str, current: dict) -> list[str]:
    """The money-conservation audit over a record's ``banking_gate``
    block (empty for scenarios without one).  Deterministic under the
    fixed seed: the final total must equal initial funds plus
    deposits exactly, and no account may end negative."""
    gate = current.get("banking_gate")
    if not gate:
        return []
    failures: list[str] = []
    if not gate.get("money_conserved"):
        problems = gate.get("conservation_problems") or []
        shown = "; ".join(str(p) for p in problems[:3]) or "no detail"
        failures.append(f"{name}: money not conserved ({shown})")
    if gate.get("final_total") != gate.get("expected_total"):
        failures.append(
            f"{name}: final total {gate.get('final_total')} != expected "
            f"{gate.get('expected_total')} (transfers created or destroyed "
            f"money)"
        )
    if gate.get("min_balance", 0) < 0:
        failures.append(
            f"{name}: an account ended at {gate['min_balance']} (the "
            f"non-negative-balance treaty was violated)"
        )
    return failures


def quota_gate_failures(name: str, current: dict) -> list[str]:
    """The saturation audit over a record's ``quota_gate`` block
    (empty for scenarios without one).  Deterministic under the fixed
    seed: the hammered tenant must reach its limit exactly -- the
    treaty must neither admit an overrun nor refuse admissible
    hits short of the ceiling."""
    gate = current.get("quota_gate")
    if not gate:
        return []
    failures: list[str] = []
    if gate.get("overrun_violations", 0) != 0 or not gate.get("within_limits"):
        failures.append(
            f"{name}: {gate.get('overrun_violations')} tenant(s) overran "
            f"the limit (rate-limiter treaty admitted excess hits)"
        )
    if gate.get("max_used") != gate.get("limit"):
        failures.append(
            f"{name}: hammered tenant peaked at {gate.get('max_used')} of "
            f"limit {gate.get('limit')} (saturation never reached -- the "
            f"audit is not exercising the ceiling)"
        )
    if gate.get("min_used", 0) < 0:
        failures.append(
            f"{name}: a tenant's counter ended at {gate['min_used']} "
            f"(negative usage on final state)"
        )
    return failures


def async_gate_failures(name: str, current: dict) -> list[str]:
    """Absolute floors for a record's ``async_gate`` block (empty for
    scenarios without one).  The async_loopback record measures the
    real asyncio runtime over loopback sockets, so its throughput is
    host wall-clock: the gate catches collapse (a sender sleeping out
    its timeout per send, a serialized connection handler), not
    wobble, and the correctness burden rides on the differential
    oracle instead."""
    gate = current.get("async_gate")
    if not gate:
        return []
    failures: list[str] = []
    if gate["connections"] < gate["min_connections"]:
        failures.append(
            f"{name}: only {gate['connections']} concurrent connection(s), "
            f"need >= {gate['min_connections']}"
        )
    tput = current["throughput_txn_per_s"]
    floor = gate["throughput_floor_txn_per_s"]
    if tput < floor:
        failures.append(
            f"{name}: wall-clock throughput {tput:.1f} txn/s below the "
            f"{floor:.1f} floor (runtime collapsed, not wobbled)"
        )
    if gate["committed"] < gate["submitted"]:
        failures.append(
            f"{name}: only {gate['committed']}/{gate['submitted']} "
            f"transactions committed on a fault-free loopback run"
        )
    sync = current["sync_ratio"]
    if not 0.0 < sync <= gate["sync_ratio_max"]:
        failures.append(
            f"{name}: sync ratio {sync:.4f} outside (0, "
            f"{gate['sync_ratio_max']}] (the run must negotiate, but not "
            f"on every transaction)"
        )
    if gate["frames_sent"] <= 0:
        failures.append(
            f"{name}: no inter-site wire frames sent (treaty negotiation "
            f"never crossed the async transport)"
        )
    oracle = gate["differential"]
    if not oracle["ok"]:
        shown = "; ".join(oracle.get("mismatches", [])[:3]) or "no detail"
        failures.append(
            f"{name}: differential oracle diverged (async kernel != "
            f"deterministic simulator): {shown}"
        )
    return failures


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
    parser.add_argument("--threshold", type=float, default=0.20)
    parser.add_argument("--min-speedup", type=float, default=1.5)
    parser.add_argument("--min-escrow-speedup", type=float, default=5.0)
    args = parser.parse_args(argv)

    baselines = sorted(args.baseline.glob("BENCH_*.json"))
    if not baselines:
        print(f"no BENCH_*.json baselines under {args.baseline}", file=sys.stderr)
        return 2

    failures: list[str] = []
    speedups: list[float] = []
    escrow_speedups: list[float] = []
    for base_path in baselines:
        baseline = _load(base_path)
        cur_path = args.current / base_path.name
        if not cur_path.exists():
            failures.append(f"{baseline['scenario']}: missing {cur_path}")
            continue
        current = _load(cur_path)
        microbench = current.get("check_microbench")
        if microbench is not None:  # absent on the async_loopback record
            speedups.append(microbench["speedup"])
            escrow_speedups.append(microbench["escrow_speedup"])
        scenario_failures = compare_scenario(baseline, current, args.threshold)
        failures.extend(scenario_failures)
        status = "FAIL" if scenario_failures else "ok"
        agate = current.get("async_gate")
        if agate:
            oracle = agate["differential"]
            print(
                f"[{status}] {baseline['scenario']}: wall-clock "
                f"{current['throughput_txn_per_s']:.1f} txn/s over "
                f"{agate['connections']} connection(s) (floor "
                f"{agate['throughput_floor_txn_per_s']:.0f}, baseline "
                f"{baseline['throughput_txn_per_s']:.1f}, not gated "
                f"relatively), {agate['committed']}/{agate['submitted']} "
                f"committed, sync {current['sync_ratio']:.4f}, p99 "
                f"{current['p99_ms']:.1f} ms, {agate['frames_sent']} wire "
                f"frame(s), differential "
                f"{'ok' if oracle['ok'] else 'DIVERGED'} over "
                f"{len(oracle['seeds'])} seed(s) x {len(oracle['workloads'])} "
                f"workload(s)"
            )
            continue
        print(
            f"[{status}] {baseline['scenario']}: "
            f"throughput {baseline['throughput_txn_per_s']:.1f} -> "
            f"{current['throughput_txn_per_s']:.1f} txn/s, "
            f"sync {baseline['sync_ratio']:.4f} -> {current['sync_ratio']:.4f}, "
            f"p99 {baseline['p99_ms']:.1f} -> {current['p99_ms']:.1f} ms, "
            f"check speedup {current['check_microbench']['speedup']:.2f}x, "
            f"escrow {current['check_microbench']['escrow_speedup']:.2f}x "
            f"(eligible {current.get('escrow_eligible_ratio', 0.0):.2f}), "
            f"free ratio {current.get('free_ratio', 0.0):.2f}, "
            f"wall {current['wall_time_s']:.2f}s (baseline "
            f"{baseline['wall_time_s']:.2f}s, not gated)"
        )
        gate = current.get("adaptive_gate")
        if gate:
            for workload, point in sorted(gate.items()):
                if isinstance(point, dict):
                    print(
                        f"    adaptive_gate {workload}: adaptive "
                        f"{point['adaptive_sync_ratio']:.4f} vs static "
                        f"{point['static_sync_ratio']:.4f} (rebalance ratio "
                        f"{point['adaptive_rebalance_ratio']:.4f}, "
                        f"checks/commit "
                        f"{point.get('checks_per_commit', 0.0):.2f})"
                    )
        fgate = current.get("fault_gate")
        if fgate:
            print(
                f"    fault_gate: outage-window availability homeo "
                f"{fgate['homeo_outage_availability']:.4f} vs 2PC "
                f"{fgate['twopc_outage_availability']:.4f} "
                f"({fgate['homeo_recoveries']} recovery round(s), "
                f"{fgate['homeo_timeouts']} homeo timeout(s))"
            )
            crash = fgate.get("winner_crash")
            if crash:
                ok = all(crash.get(f) for f in WINNER_CRASH_FLAGS)
                print(
                    f"    winner_crash: {'ok' if ok else 'FAIL'} -- "
                    f"{crash.get('survivors', 0)} survivor(s) finished the "
                    f"round ({crash.get('phase2a_messages', 0)} Phase2a, "
                    f"{crash.get('phase2b_messages', 0)} Phase2b, "
                    f"{crash.get('complete_messages', 0)} Complete)"
                )
        sgate = current.get("flashsale_gate")
        if sgate:
            print(
                f"    flashsale_gate: hot SKU {sgate.get('hot_remaining')}/"
                f"{sgate.get('hot_stock')} left, "
                f"{sgate.get('oversold_units')} oversold, min stock "
                f"{sgate.get('min_stock')} (audit sync ratio "
                f"{sgate.get('sync_ratio')})"
            )
        bgate = current.get("banking_gate")
        if bgate:
            print(
                f"    banking_gate: total {bgate.get('final_total')} vs "
                f"expected {bgate.get('expected_total')}, min balance "
                f"{bgate.get('min_balance')} over {bgate.get('accounts')} "
                f"account(s) (audit sync ratio {bgate.get('sync_ratio')})"
            )
        qgate = current.get("quota_gate")
        if qgate:
            print(
                f"    quota_gate: hammered tenant {qgate.get('max_used')}/"
                f"{qgate.get('limit')}, {qgate.get('overrun_violations')} "
                f"overrun(s) over {qgate.get('tenants')} tenant(s) (audit "
                f"sync ratio {qgate.get('sync_ratio')})"
            )
        pgate = current.get("fairness_gate")
        if pgate:
            pri = pgate.get("priority") or {}
            cre = pgate.get("credit") or {}
            print(
                f"    fairness_gate: max consecutive losses priority "
                f"{pri.get('max_consecutive_losses')} vs credit "
                f"{cre.get('max_consecutive_losses')} at skew "
                f"{pgate.get('skew')} (worst-site p99 wait "
                f"{pri.get('worst_site_p99_wait')} vs "
                f"{cre.get('worst_site_p99_wait')} election(s))"
            )

    # One shared measurement, one gate: the harness copies the same
    # microbench record into every scenario file, so judge its best
    # reading once rather than emitting a duplicate failure per file.
    if speedups and max(speedups) < args.min_speedup:
        failures.append(
            f"treaty-check speedup {max(speedups):.2f}x below the "
            f"{args.min_speedup:.1f}x floor"
        )
    if escrow_speedups and max(escrow_speedups) < args.min_escrow_speedup:
        failures.append(
            f"escrow-check speedup {max(escrow_speedups):.2f}x below the "
            f"{args.min_escrow_speedup:.1f}x floor"
        )

    if failures:
        print("\nregressions:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(baselines)} scenario(s) within thresholds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
