"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every metric BENCHMARK.json declares is emitted with its unit and the seed
code passes every output check; a corrupted output raises the fail ratio
above zero.
"""

import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCH["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def _drop_last_trace_row(out):
    path = out / "trace.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _break_a_sweep_cell(out):
    path = out / "a" / "sweep.csv"
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    row = next(r for r in rows[1:] if not r[-1])
    row[rows[0].index("c_wastage")] = repr(2.0 * float(row[rows[0].index("c_wastage")]) + 1.0)
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _move_r_star(out):
    path = out / "result.json"
    result = json.loads(path.read_text())
    optimum = result["optimum"]
    worst = max(range(len(optimum["costs"])), key=optimum["costs"].__getitem__)
    optimum["r_star"] = optimum["levels"][worst]
    path.write_text(json.dumps(result))


CORRUPT = {
    "simulate-trace": _drop_last_trace_row,
    "sweep": _break_a_sweep_cell,
    "policy-search": _move_r_star,
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_raises_fail_ratio(workload):
    plan = run.make_plan(workload, 5, smoke=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        repeats, _ = run.measure(plan, tmp, 0, trace=False)
        clean, _ = run.run_checks(plan, tmp, repeats, trace=False)
        assert clean.failed == 0, [c for c in clean.items if not c["ok"]]
        CORRUPT[workload](tmp / "0-plain")
        corrupted, _ = run.run_checks(plan, tmp, repeats, trace=False)
    assert corrupted.failed / len(corrupted.items) > 0
