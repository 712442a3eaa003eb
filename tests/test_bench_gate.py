"""The CI gate gets a gate: ``compare_bench.py`` over the scenario table.

No simulation runs here.  The committed ``BENCH_*.json`` baselines are
the fixtures: they must exist for every scenario of
``benchmarks/scenarios.py`` and pass against themselves, and for every
gate row a copy doctored just past that row's limit must make the gate
fail with exactly that row, named by scenario and quantity.
"""

import copy
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import compare_bench  # noqa: E402
from scenarios import SCENARIOS, Field, bench_path, dig, load  # noqa: E402

ROWS = [
    (name, block, gate)
    for name, scenario in SCENARIOS.items()
    for block, gate in scenario.rows()
]


def _put(record: dict, path: str, value) -> None:
    parent, _, leaf = path.rpartition(".")
    dig(record, parent)[leaf] = value


def _doctored(block: str, gate, record: dict) -> dict:
    """``record`` with one field of ``block`` moved so that ``gate``,
    judged against the undoctored record as baseline, just fails."""
    doctored = copy.deepcopy(record)
    scope = dig(doctored, block)
    if isinstance(gate.against, Field):
        # Move the field it is held against -- no other row reads that
        # one -- onto the value: a tie fails "<"; off by one fails "==".
        assert gate.relation in ("<", "==")
        value = dig(scope, gate.field)
        _put(scope, gate.against.path, value + 1 if gate.relation == "==" else value)
        return doctored
    limit, _ = gate.limit(block, record, record)
    step = 1 if isinstance(limit, int) else 1e-6
    if gate.relation == "==":
        past = (not limit) if isinstance(limit, bool) else limit + 1
    elif gate.relation in ("<", ">"):
        past = limit
    else:
        past = limit + step if gate.relation == "<=" else limit - step
    _put(scope, gate.field, past)
    return doctored


def _gate(current: Path, capsys) -> tuple[int, list[str]]:
    """Run the gate on ``current`` against the committed baselines."""
    code = compare_bench.main(["--current", str(current), "--baseline", str(ROOT)])
    stderr = capsys.readouterr().err
    return code, [line for line in stderr.splitlines() if line.startswith("  - ")]


@pytest.fixture
def current(tmp_path):
    """A run directory holding a copy of every committed baseline."""
    for name in SCENARIOS:
        shutil.copy(bench_path(ROOT, name), tmp_path)
    return tmp_path


def _rewrite(directory: Path, name: str, record: dict) -> None:
    bench_path(directory, name).write_text(json.dumps(record))


def test_every_scenario_has_a_complete_committed_baseline():
    for name, scenario in SCENARIOS.items():
        record = load(ROOT, name)  # exists, at the current schema
        assert record["scenario"] == name
        for block, gate in scenario.rows():
            dig(record, f"{block}.{gate.field}")
            if isinstance(gate.against, Field):
                dig(record, f"{block}.{gate.against.path}")
    committed = {path.name for path in ROOT.glob("BENCH_*.json")}
    assert committed == {bench_path(ROOT, name).name for name in SCENARIOS}


def test_committed_baselines_pass_against_themselves(capsys):
    assert _gate(ROOT, capsys) == (0, [])


@pytest.mark.parametrize(
    "name, block, gate",
    ROWS,
    ids=[f"{n}:{b}.{g.field}{g.relation}".replace(":.", ":") for n, b, g in ROWS],
)
def test_a_record_just_past_a_row_fails_exactly_that_row(
    name, block, gate, current, capsys
):
    _rewrite(current, name, _doctored(block, gate, load(ROOT, name)))
    code, failures = _gate(current, capsys)
    assert code == 1
    assert len(failures) == 1, failures
    assert f"{name}: {block}.{gate.field} ".replace(": .", ": ") in failures[0]
    assert f" not {gate.relation} " in failures[0] and gate.why in failures[0]


def test_a_missing_scenario_file_fails(current, capsys):
    bench_path(current, "quota").unlink()
    code, failures = _gate(current, capsys)
    assert code == 1
    assert len(failures) == 1 and "quota: missing" in failures[0]


def test_an_unknown_schema_version_fails(current, capsys):
    record = load(ROOT, "micro")
    record["schema_version"] = 3
    _rewrite(current, "micro", record)
    code, failures = _gate(current, capsys)
    assert code == 1
    assert len(failures) == 1 and "schema_version 3" in failures[0]


def test_a_record_missing_a_gated_block_fails(current, capsys):
    record = load(ROOT, "contention_races")
    del record["fairness_gate"]["credit"]
    _rewrite(current, "contention_races", record)
    code, failures = _gate(current, capsys)
    assert code == 1
    assert len(failures) == 3  # every row that reads the block
    assert all("is missing from the record" in line for line in failures)
