"""Smoke test of the paired benchmark: HEAD against itself, one tiny pair.

    python3 -m pytest -q scripts/test_paired_bench.py

It runs every workload at ``--smoke`` sizes (about 20 s), so it is not in
tier-1. The output file has the fixed keys, every output check passes, and
both sides write the same bytes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRIC_KEYS = {"unit", "better", "bound", "pairs", "parent_q1_median_q3", "change_q1_median_q3",
               "change_wins", "median_change_rel", "parent_iqr_rel", "gain", "bound_verdict",
               "held_out"}


def test_head_against_itself(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    subprocess.run(
        [sys.executable, str(HERE / "paired_bench.py"), "HEAD", "HEAD", "--topic", "smoke",
         "--pairs", "1", "--seeds", "3", "--held-out", "7", "--seconds", "0.2", "--smoke",
         "--out", str(out)],
        check=True, capture_output=True, timeout=300,
    )
    record = json.loads(out.read_text())
    assert set(record) == {"topic", "provenance", "settings", "workloads"}
    assert set(record["provenance"]) == {"parent", "change", "command", "platform", "cpu_model",
                                         "nproc", "python", "numpy", "pyyaml"}
    assert record["provenance"]["parent"]["commit"] == record["provenance"]["change"]["commit"]
    assert list(record["workloads"]) == [w["name"] for w in BENCH["workloads"]]
    for workload in record["workloads"].values():
        assert set(workload) == {"metrics", "failed_checks", "outputs_identical", "runs"}
        assert list(workload["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
        for metric in workload["metrics"].values():
            assert set(metric) == METRIC_KEYS
            assert metric["pairs"] == 1 and set(metric["held_out"]) == {
                "parent", "change", "change_better"}
        assert workload["failed_checks"] == {"parent": 0, "change": 0}
        assert workload["outputs_identical"]
        assert [(r["seed"], r["side"]) for r in workload["runs"]] == [
            (3, "parent"), (3, "change"), (7, "change"), (7, "parent")]
