"""CLI workflows end to end: exit codes, report files, schemas, and the
strict scenario echo."""

import contextlib
import csv
import errno
import io
import itertools
import json
import math
import os
import re
import stat
import tempfile
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import numpy as np

from greenprov import DemandStats, CostRates, balance_closed_form, cli, simulate
from greenprov.cli import _ROW_BLOCK, SWEEP_PARAMS, _csv_field, _fmt, _json_record, main
from greenprov.config import build_scenario, load_config, scenario_from_dict
from greenprov.demand import FAMILIES, DemandProfile
from greenprov.schemas import (
    BALANCE_RECORD_SCHEMA,
    SCENARIO_SCHEMA,
    SETTLEMENT_HEADER,
    SIMULATION_REPORT_SCHEMA,
    SWEEP_HEADER,
    TRACE_HEADER,
)
from greenprov.market import settle
from greenprov.simulate import _CHUNK, POLICY_KINDS, run_simulation

BASE = """
demand:
  kind: uniform
  lower: 0
  upper: 80

stats:
  r_agreed: 100

rates:
  c_en: 1.5
  c_co2: 0.5
  c_viol: 1.0

policy:
  kind: balance

simulation:
  steps: 400
  replications: 2
  seed: 42
  energy_full: 2.0
  carbon_intensity: 0.5
"""

MARKET = """
market:
  price_per_kg: 0.01
  accounts:
    - {name: dc-east, cap_kg: 100000, emissions_kg: 120000}
    - {name: dc-west, cap_kg: 50000, emissions_kg: 50000}
"""


# Stats and rates whose balance level leaves a cost gap above tolerance
# (4.9e-324 is the smallest subnormal, and the closed form underflows to 0).
RESIDUAL = """
stats: {mean_demand: 0.0, max_demand: 4.9e-324, r_agreed: 4.9e-324}
rates: {c_en: 1, c_co2: 0, c_viol: 1, satisfaction: 0.5}
"""


def write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


@pytest.fixture
def config(tmp_path):
    return write(tmp_path, BASE)


class TestBalanceCommand:
    def test_record_and_file(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["balance", config, "--output", str(out)]) == 0
        record = json.loads((out / "balance.json").read_text(encoding="utf-8"))
        jsonschema.validate(record, BALANCE_RECORD_SCHEMA)
        expected = balance_closed_form(
            DemandStats(40, 80, 100), CostRates(1.5, 0.5, 1.0)
        )
        assert record["result"]["r_provisioned"] == expected.r_provisioned
        # stdout carries the same record
        assert json.loads(capsys.readouterr().out) == record

    def test_free_violations_print_the_mean(self, tmp_path, capsys):
        path = write(
            tmp_path,
            """
            stats: {r_agreed: 100, mean_demand: 40, max_demand: 80}
            rates: {c_en: 2, c_co2: 0, c_viol: 0}
            """,
        )
        assert main(["balance", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"]["r_provisioned"] == 40.0

    def test_missing_rates_is_a_config_error(self, tmp_path, capsys):
        path = write(tmp_path, "stats: {r_agreed: 100, mean_demand: 40, max_demand: 80}\n")
        assert main(["balance", path]) == 1
        assert "rates" in capsys.readouterr().err

    def test_degenerate_costs_exit_two(self, tmp_path):
        path = write(
            tmp_path,
            """
            stats: {r_agreed: 100, mean_demand: 40, max_demand: 80}
            rates: {c_en: 0, c_co2: 0, c_viol: 0}
            """,
        )
        assert main(["balance", path]) == 2

    def test_surcharge_solved_numerically(self, tmp_path, capsys):
        path = write(
            tmp_path,
            """
            stats: {r_agreed: 100, mean_demand: 40, max_demand: 80}
            rates: {c_en: 2, c_co2: 0, c_viol: 1, satisfaction: 0.2}
            """,
        )
        assert main(["balance", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"]["r_provisioned"] == pytest.approx(2.0 / 0.0325, rel=1e-9)

    def test_unsolvable_surcharge_exit_two(self, tmp_path):
        path = write(
            tmp_path,
            """
            stats: {r_agreed: 100, mean_demand: 40, max_demand: 80}
            rates: {c_en: 2, c_co2: 0, c_viol: 1, satisfaction: 10}
            """,
        )
        assert main(["balance", path]) == 2

    def test_residual_above_tolerance_exit_two(self, tmp_path, capsys):
        # a one-ulp demand range: the level leaves a residual above tolerance
        path = write(tmp_path, RESIDUAL)
        assert main(["balance", path]) == 2
        assert capsys.readouterr().err == (
            "solver error: balance residual -1.5 exceeds tolerance 2.5e-09\n"
        )

    @pytest.mark.parametrize("extra", ["", "max_method: mean_plus_variance"])
    # 709: the 0.99 quantile overflows in exp, which must not warn
    @pytest.mark.parametrize("mu_log", [400, 709, 800])
    def test_lognormal_overflow_is_a_config_error(self, tmp_path, capsys, mu_log, extra):
        path = write(
            tmp_path,
            f"""
            demand: {{kind: lognormal, mu_log: {mu_log}, sigma_log: 1}}
            stats: {{r_agreed: 100, {extra}}}
            rates: {{c_en: 1.5, c_co2: 0.5, c_viol: 1.0}}
            """,
        )
        assert main(["balance", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.yaml"
        assert main(["balance", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"config error: [Errno 2] No such file or directory: '{path}'\n"
        )


TRACE_CLAMPED_EMPIRICAL = """
demand: {kind: empirical, values: [-0.0, 12.5, 40, 77.25, 99.9, 130, 1.0e-9]}
stats: {r_agreed: 100, mean_demand: 47.1, max_demand: 100}
rates: {c_en: 1.5, c_co2: 0.5, c_viol: 1.0}
policy: {kind: balance}
simulation: {steps: 1, replications: 1, seed: 3, energy_full: 2.0,
             carbon_intensity: 0.5, clamp_demand_to_agreed: true}
"""

TRACE_FIXED_LEVEL = """
demand: {kind: truncated_normal, mu: 40, sigma: 15, lower: 0, upper: 80}
stats: {r_agreed: 100}
rates: {c_en: 0.7, c_co2: 0.1, c_viol: 3.0}
policy: {kind: fixed_level, level: 45.5}
simulation: {steps: 1, replications: 2, seed: 11, energy_full: 1.0,
             carbon_intensity: 0.25}
"""


TRACE_UNIFORM = """
demand: {kind: uniform, lower: 5, upper: 80}
stats: {r_agreed: 100}
rates: {c_en: 1.5, c_co2: 0.5, c_viol: 1.0}
policy: {kind: balance}
simulation: {steps: 1, replications: 2, seed: 8, energy_full: 2.0,
             carbon_intensity: 0.5}
"""

TRACE_LOGNORMAL = """
demand: {kind: lognormal, mu_log: 3.5, sigma_log: 0.4}
stats: {r_agreed: 100}
rates: {c_en: 1.2, c_co2: 0.3, c_viol: 2.0}
policy: {kind: balance_band, x_percent: 0.1}
simulation: {steps: 1, replications: 1, seed: 21, energy_full: 2.0,
             carbon_intensity: 0.5}
"""

TRACES = {
    "clamped": TRACE_CLAMPED_EMPIRICAL,
    "fixed": TRACE_FIXED_LEVEL,
    "uniform": TRACE_UNIFORM,
    "lognormal": TRACE_LOGNORMAL,
    # the observation of 130 lies above r_agreed and is drawn as it is
    "empirical": TRACE_CLAMPED_EMPIRICAL.replace(
        "clamp_demand_to_agreed: true", "clamp_demand_to_agreed: false"
    ),
    # every step violated (demand is at least 5), then none (demand is at
    # most 80): every row block holds one kind of row
    "all-violated": TRACE_UNIFORM.replace("kind: balance", "kind: fixed_level, level: 0"),
    "none-violated": TRACE_UNIFORM.replace("kind: balance", "kind: fixed_level, level: 80"),
}


# the chunk-sized trace cases run at the real _CHUNK and _ROW_BLOCK
REAL_CHUNK_TRACES = {"uniform-3x-chunk+1", "empirical-3x-chunk+1"}


def three_replications(text: str) -> str:
    return re.sub(r"replications: \d+", "replications: 3", text)


def reference_trace_csv(report) -> bytes:
    """trace.csv from csv.writer, with each row's values computed one by one
    from the demand of the report's trace blocks and printed by _fmt."""
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    level, rates = report.provision_level, report.scenario.rates
    agreed = report.scenario.stats.r_agreed
    for block in report.trace:
        for step, demand in enumerate(block.demand.tolist(), block.first_step):
            violated = demand > level
            wasted = max(level - demand, 0.0)
            row = (block.replication, step, demand, level, violated, wasted,
                   wasted / agreed * rates.c_provision, rates.c_viol if violated else 0.0)
            writer.writerow([_fmt(value) for value in row])
    return handle.getvalue().encode("utf-8")


class TestSimulateCommand:
    def test_report_schema_and_seed_echo(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", config, "--output", str(out)]) == 0
        assert "seed: 42" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        jsonschema.validate(report, SIMULATION_REPORT_SCHEMA)
        assert report["seed"] == 42
        total = 400 * 2
        aggregate = report["aggregate"]
        assert aggregate["violation_frequency"] == aggregate["violation_count"] / total

    def test_seed_flag_overrides_config(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", config, "--output", str(out), "--seed", "7"]) == 0
        assert "seed: 7" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["seed"] == 7
        assert report["scenario"]["simulation"]["seed"] == 7

    def test_steps_flag_overrides_config(self, config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", config, "--output", str(out), "--steps", "10"]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["scenario"]["simulation"]["steps"] == 10

    def test_echoed_scenario_reconstructs(self, config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", config, "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        rebuilt = scenario_from_dict(report["scenario"])
        assert rebuilt == build_scenario(load_config(config))

    def test_full_coverage_has_no_violations(self, tmp_path):
        path = write(
            tmp_path,
            BASE.replace("kind: balance", "kind: fixed_level\n  level: 80"),
        )
        out = tmp_path / "out"
        assert main(["simulate", path, "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["aggregate"]["violation_count"] == 0

    def test_trace_table(self, config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", config, "--output", str(out), "--trace"]) == 0
        rows = read_csv(out / "trace.csv")
        assert rows[0] == list(TRACE_HEADER)
        assert len(rows) == 1 + 400 * 2
        violations = sum(int(row[4]) for row in rows[1:])
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert violations == report["aggregate"]["violation_count"]

    # row-block edges, then three replications of one step, one chunk and
    # one step more than a chunk each: ``chunks`` chunks and ``steps`` steps.
    # The chunk-sized runs take the small_chunks sizes, but for two at the
    # real ones.
    @pytest.mark.parametrize(
        "name, text, chunks, steps, small",
        [
            pytest.param(name, text, 0, steps, False, id=f"{name}-{steps}")
            for name, text in TRACES.items()
            for steps in [_ROW_BLOCK - 1, _ROW_BLOCK, 2 * _ROW_BLOCK + 1]
        ]
        + [
            pytest.param(name, three_replications(text), chunks, steps,
                         chunks == 1 and f"{name}-3x-{label}" not in REAL_CHUNK_TRACES,
                         id=f"{name}-3x-{label}")
            for name, text in TRACES.items()
            for chunks, steps, label in [(0, 1, "1"), (1, 0, "chunk"), (1, 1, "chunk+1")]
        ],
    )
    def test_trace_matches_csv_writer(self, request, tmp_path, name, text, chunks, steps, small):
        if small:
            request.getfixturevalue("small_chunks")
        steps += chunks * simulate._CHUNK
        path = write(tmp_path, text)
        out = tmp_path / "out"
        argv = ["simulate", path, "--output", str(out), "--trace", "--steps", str(steps)]
        assert main(argv) == 0
        # the reference re-draws the demand through the report's lazy trace
        report = run_simulation(
            build_scenario(load_config(path), steps_override=steps), trace=True
        )
        rows = steps * report.scenario.replications
        if name == "all-violated":
            assert report.violation_count == rows
        elif name == "none-violated":
            assert report.violation_count == 0
        elif steps > 1:  # both kinds of row are written
            assert 0 < report.violation_count < rows
        assert (out / "trace.csv").read_bytes() == reference_trace_csv(report)

    @pytest.mark.parametrize("name", ["fixed", "clamped"])
    def test_traced_run_draws_its_demand_once(self, tmp_path, monkeypatch, name):
        # the truncated normal is drawn once to be scored and written; the
        # empirical tally draws no demand, so its one draw is for the trace
        sizes = []
        sample_many = DemandProfile.sample_many

        def counted(profile, rng, n):
            sizes.append(n)
            return sample_many(profile, rng, n)

        monkeypatch.setattr(DemandProfile, "sample_many", counted)
        path = write(tmp_path, three_replications(TRACES[name]))
        argv = ["simulate", path, "--output", str(tmp_path / "out"), "--trace",
                "--steps", str(_CHUNK + 1)]
        assert main(argv) == 0
        assert sizes == [_CHUNK, 1] * 3

    def test_overflowing_total_exits_two_before_writing(self, tmp_path, capsys):
        # sum(level - demand) overflows a float: one stderr line, no numpy
        # warning (an error here) and no report.json holding a bare NaN
        path = write(
            tmp_path,
            BASE.replace("upper: 80", "upper: 1.6e+308")
            .replace("r_agreed: 100", "r_agreed: 1.7e+308")
            .replace("kind: balance", "kind: fixed_level\n  level: 1.57e+308"),
        )
        out = tmp_path / "out"
        assert main(["simulate", path, "--output", str(out), "--trace"]) == 2
        assert capsys.readouterr().err == (
            "simulation error: simulated total_wastage_cost is nan: "
            "the totals overflow a float\n"
        )
        assert not (out / "report.json").exists()
        assert list(out.glob("*")) == []
        # into an output directory a run has filled: every file is left as it was
        good = tmp_path / "good"
        good.mkdir()
        assert main(["simulate", write(good, BASE), "--output", str(out), "--trace"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["report.json", "trace.csv"]
        capsys.readouterr()
        assert main(["simulate", path, "--output", str(out), "--trace"]) == 2
        assert capsys.readouterr().err == (
            "simulation error: simulated total_wastage_cost is nan: "
            "the totals overflow a float\n"
        )
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_trace_write_leaves_no_file(self, config, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert main(["simulate", config, "--output", str(out), "--trace"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        blocks = []
        real = cli._trace_writer

        class Full:  # a handle on a disk that fills after one block of rows
            def __init__(self, handle):
                self.handle = handle

            def write(self, text):
                if blocks:
                    raise OSError(errno.ENOSPC, "No space left on device")
                blocks.append(text)
                return self.handle.write(text)

        monkeypatch.setattr(cli, "_trace_writer", lambda handle, scenario: real(Full(handle), scenario))
        capsys.readouterr()
        assert main(["simulate", config, "--output", str(out), "--trace"]) == 1
        assert len(blocks) == 1
        assert capsys.readouterr().err == "output error: [Errno 28] No space left on device\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_records_refuse_non_finite_numbers(self, value):
        with pytest.raises(ValueError):
            _json_record({"aggregate": {"total_wastage_cost": value}})

    def test_rerun_into_the_same_output_is_identical(self, config, tmp_path):
        out = tmp_path / "out"
        argv = ["simulate", config, "--output", str(out), "--trace"]
        assert main(argv) == 0
        first = {name: (out / name).read_bytes() for name in ("report.json", "trace.csv")}
        assert main(argv) == 0
        assert {name: (out / name).read_bytes() for name in first} == first

    def test_unresolvable_policy_exit_two(self, tmp_path):
        path = write(
            tmp_path,
            BASE.replace("c_en: 1.5", "c_en: 0")
            .replace("c_co2: 0.5", "c_co2: 0")
            .replace("c_viol: 1.0", "c_viol: 0"),
        )
        assert main(["simulate", path]) == 2

    def test_simulation_section_required(self, tmp_path):
        path = write(
            tmp_path,
            """
            demand: {kind: uniform, lower: 0, upper: 80}
            stats: {r_agreed: 100}
            rates: {c_en: 1, c_co2: 0, c_viol: 1}
            policy: {kind: balance}
            """,
        )
        assert main(["simulate", path]) == 1


class TestEtmCommand:
    def test_settlement_table(self, tmp_path):
        path = write(tmp_path, MARKET)
        out = tmp_path / "out"
        assert main(["etm", path, "--output", str(out)]) == 0
        rows = read_csv(out / "settlement.csv")
        assert rows[0] == list(SETTLEMENT_HEADER)
        east = rows[1]
        assert east[0] == "dc-east"
        assert east[3] == "-20000"
        assert east[4] == "-200"
        west = rows[2]
        assert west[0] == "dc-west"
        assert west[4] == "0"  # exactly at cap
        total = rows[3]
        assert total[0] == "TOTAL"
        assert total[3] == "-20000"
        assert total[4] == "-200"

    def test_zero_price_zero_flows(self, tmp_path):
        path = write(tmp_path, MARKET.replace("price_per_kg: 0.01", "price_per_kg: 0"))
        out = tmp_path / "out"
        assert main(["etm", path, "--output", str(out)]) == 0
        rows = read_csv(out / "settlement.csv")
        assert all(row[4] == "0" for row in rows[1:])

    def test_market_section_required(self, config):
        assert main(["etm", config]) == 1

    def test_quoted_names_match_csv_writer(self, tmp_path, capsys):
        names = ["a,b", 'say "hi"', "two\nlines", "plain"]
        accounts = "".join(
            f"    - {{name: {json.dumps(name)}, cap_kg: 10, emissions_kg: {i}}}\n"
            for i, name in enumerate(names)
        )
        path = write(tmp_path, f"market:\n  price_per_kg: 0.5\n  accounts:\n{accounts}")
        out = tmp_path / "out"
        assert main(["etm", path, "--output", str(out)]) == 0
        market = load_config(path).require("market")
        settlement = settle(list(market.accounts), market.price_per_kg)
        handle = io.StringIO(newline="")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SETTLEMENT_HEADER)
        entries = settlement.entries
        for e in entries:
            writer.writerow([e.name] + [_fmt(v) for v in (
                e.cap_kg, e.emissions_kg, e.position_kg, e.cash_flow)])
        writer.writerow(["TOTAL", _fmt(sum(e.cap_kg for e in entries)),
                         _fmt(sum(e.emissions_kg for e in entries)),
                         _fmt(settlement.total_position_kg),
                         _fmt(settlement.total_cash_flow)])
        assert (out / "settlement.csv").read_bytes() == handle.getvalue().encode("utf-8")
        # stdout echoes the file, quoting included
        assert capsys.readouterr().out == handle.getvalue()

    def test_carriage_return_in_a_name_is_quoted(self, tmp_path):
        # csv.writer with a "\n" line terminator leaves "\r" unquoted, and
        # csv.reader then splits the row in two
        path = write(tmp_path, MARKET.replace("dc-west", '"cr\\rname"'))
        out = tmp_path / "out"
        assert main(["etm", path, "--output", str(out)]) == 0
        rows = read_csv(out / "settlement.csv")
        assert len(rows) == 4
        assert rows[2][0] == "cr\rname"

    @pytest.mark.parametrize("text", ["", "x", "a,b", 'q"q', '"', "n\nl", " lead"])
    def test_field_quoting_matches_csv_writer(self, text):
        handle = io.StringIO(newline="")
        csv.writer(handle, lineterminator="\n").writerow([text, "x"])
        assert _csv_field(text) + ",x\n" == handle.getvalue()


class TestSweepCommand:
    def test_single_point_free_violations(self, config, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["sweep", config, "--output", str(out), "--param", "c_viol=0:0:1"]
        )
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == list(SWEEP_HEADER)
        assert len(rows) == 2
        assert float(rows[1][SWEEP_HEADER.index("r_provisioned")]) == 40.0

    def test_eleven_point_sweep_nondecreasing(self, config, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", config, "--output", str(out), "--param", "c_viol=0:10:11"]) == 0
        rows = read_csv(out / "sweep.csv")[1:]
        assert len(rows) == 11
        idx = SWEEP_HEADER.index("r_provisioned")
        levels = [float(row[idx]) for row in rows]
        assert all(a <= b for a, b in zip(levels, levels[1:]))

    def test_cartesian_product_rows(self, config, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "sweep", config, "--output", str(out),
                "--param", "c_viol=0:2:3",
                "--param", "c_en=1:4:4",
            ]
        )
        assert code == 0
        assert len(read_csv(out / "sweep.csv")) == 1 + 12

    def test_unknown_parameter(self, config):
        assert main(["sweep", config, "--param", "nope=0:1:3"]) == 1

    def test_duplicate_parameter(self, config):
        assert (
            main(["sweep", config, "--param", "c_en=0:1:3", "--param", "c_en=2:3:2"]) == 1
        )

    def test_malformed_grid(self, config):
        assert main(["sweep", config, "--param", "c_viol=0:10"]) == 1
        assert main(["sweep", config, "--param", "c_viol=a:b:3"]) == 1
        assert main(["sweep", config, "--param", "c_viol=0:10:0"]) == 1

    def test_unallocatable_grid_is_a_config_error(self, config, capsys):
        # 8 PB of float64: the allocation fails before any memory is touched
        assert main(["sweep", config, "--param", f"c_en=0:1:{10**15}"]) == 1
        err = capsys.readouterr().err
        assert "do not fit in memory" in err and len(err.splitlines()) == 1

    def test_unindexable_grid_is_a_config_error(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        params = [f"--param={name}=0:1:100000" for name in ("c_en", "c_co2", "c_viol", "r_agreed")]
        assert main(["sweep", config, "--output", str(out), *params]) == 1
        err = capsys.readouterr().err
        assert "too large to index" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_param_required(self, config):
        assert main(["sweep", config]) == 1

    def test_failed_rows_carry_errors(self, config, tmp_path):
        # sweeping mean above max poisons some rows but not the run
        out = tmp_path / "out"
        code = main(
            ["sweep", config, "--output", str(out), "--param", "mean_demand=0:100:11"]
        )
        assert code == 0
        rows = read_csv(out / "sweep.csv")[1:]
        error_idx = SWEEP_HEADER.index("error")
        good = [row for row in rows if row[error_idx] == ""]
        bad = [row for row in rows if row[error_idx] != ""]
        assert len(good) == 9  # mean 0..80 solve; 90 and 100 exceed max
        assert len(bad) == 2

    def test_all_rows_failing_exits_two(self, tmp_path):
        path = write(
            tmp_path,
            """
            stats: {r_agreed: 100, mean_demand: 40, max_demand: 80}
            rates: {c_en: 0, c_co2: 0, c_viol: 1}
            """,
        )
        assert main(["sweep", path, "--param", "c_viol=0:0:1"]) == 2

    def test_residual_above_tolerance_is_an_error_row(self, tmp_path, capsys):
        path = write(tmp_path, RESIDUAL)
        out = tmp_path / "out"
        assert main(["sweep", path, "--output", str(out), "--param", "c_en=1:2:2"]) == 2
        assert capsys.readouterr().err == ""
        errors = [row[-1] for row in read_csv(out / "sweep.csv")[1:]]
        assert errors == [
            "balance residual -1.5 exceeds tolerance 2.5e-09",
            "balance residual -1.5 exceeds tolerance 3.5e-09",
        ]


SWEEP_INPUTS = ("mean_demand", "max_demand", "r_agreed", "c_en", "c_co2", "c_viol")


def reference_sweep_csv(base: dict, satisfaction: float, params) -> bytes:
    """sweep.csv from the per-cell loop: scalar stats, rates and solve per cell."""
    grids = {}
    for text in params:
        name, _, grid = text.partition("=")
        start, stop, count = grid.split(":")
        with np.errstate(invalid="ignore", over="ignore"):
            grids[name] = np.linspace(float(start), float(stop), int(count))
        grids[name][0] = float(start)
    names = sorted(grids)
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for combo in itertools.product(*(grids[name] for name in names)):
        values = dict(base)
        values.update(zip(names, (float(v) for v in combo)))
        row = [_fmt(values[k]) for k in SWEEP_INPUTS] + [_fmt(satisfaction)]
        try:
            result = balance_closed_form(
                DemandStats(values["mean_demand"], values["max_demand"], values["r_agreed"]),
                CostRates(values["c_en"], values["c_co2"], values["c_viol"], satisfaction),
            )
        except ValueError as exc:
            writer.writerow(row + ["", "", "", "", "", str(exc)])
            continue
        fields = (result.r_provisioned, result.w, result.c_wastage, result.p_viol,
                  result.expected_penalty)
        writer.writerow(row + [_fmt(v) for v in fields] + [""])
    return handle.getvalue().encode("utf-8")


class TestSweepMatchesPerCellLoop:
    BASE = {"mean_demand": 40.0, "max_demand": 80.0, "r_agreed": 100.0,
            "c_en": 0.5, "c_co2": 0.0, "c_viol": 1.0}

    def run(self, tmp_path, satisfaction, params, base=BASE):
        rates = {k: base[k] for k in ("c_en", "c_co2", "c_viol")}
        stats = {k: base[k] for k in ("mean_demand", "max_demand", "r_agreed")}
        # yaml writes every float so that it reads back as one, 1e-05 included
        path = write(tmp_path, yaml.safe_dump(
            {"stats": stats, "rates": {**rates, "satisfaction": satisfaction}}))
        out = tmp_path / "out"
        argv = ["sweep", path, "--output", str(out)]
        for text in params:
            argv += ["--param", text]
        main(argv)
        got = (out / "sweep.csv").read_bytes()
        assert got == reference_sweep_csv(base, satisfaction, params)
        return got.decode("utf-8")

    @pytest.mark.parametrize("satisfaction,fixed,head", [
        (0.0, {"r_agreed": 1e20, "c_en": 5e-324, "c_co2": 1e-05},
         "0,1e+20,4.94065645841e-324,1e-05"),
        (0.05, {"r_agreed": 100.0, "c_en": 1.5, "c_co2": 1e-05}, "0,100,1.5,1e-05"),
    ], ids=["closed-form", "bisection"])
    def test_fixed_inputs_print_as_the_scalar_path_does(self, tmp_path, satisfaction, fixed,
                                                         head):
        # fixed inputs are literal text in the row formats: a mean of -0.0
        # heads each row as 0 but keeps its sign in an error text, and
        # exponent-form and subnormal values print as %.12g gives them
        base = {"mean_demand": -0.0, "max_demand": 80.0, "c_viol": 1.0, **fixed}
        text = self.run(tmp_path, satisfaction,
                        ["max_demand=-1:80:3", "c_viol=0:2:3"], base=base)
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert {",".join(row[i] for i in (0, 2, 3, 4)) for row in rows} == {head}
        assert {row[6] for row in rows} == {_fmt(satisfaction)}
        errors = [row[-1] for row in rows]
        assert errors.count("max_demand (-1.0) < mean_demand (-0.0)") == 3
        assert "" in errors

    def test_invalid_and_degenerate_cells(self, tmp_path):
        # mean > max, max > r_agreed, negative c_en, all-zero prices, and
        # the c_viol == 0 and c_provision == 0 endpoints
        text = self.run(tmp_path, 0.0, [
            "mean_demand=0:100:6", "max_demand=60:120:4",
            "c_en=-0.5:1:4", "c_viol=0:2:3",
        ])
        for error in ("exceeds r_agreed", "< mean_demand", "c_en must be",
                      "both cost channels are zero"):
            assert error in text

    @pytest.mark.parametrize("satisfaction,params,errors", [
        # a mean of -0.0 passes, and its text keeps the sign
        (0.0, ["mean_demand=-10:-0:2", "max_demand=-1:120:3", "r_agreed=0:100:2",
               "c_en=-1:1:3", "c_co2=0:inf:2", "c_viol=0:1e308:2"],
         ["mean_demand must be >= 0", "max_demand (-1.0) < mean_demand (-0.0)",
          "r_agreed must be positive",
          "exceeds r_agreed", "c_en must be finite and >= 0, got -1.0",
          "c_co2 must be finite and >= 0, got inf", "both cost channels are zero",
          "cost weights overflow"]),
        (0.5, ["mean_demand=0:40:2", "max_demand=5e-324:80:2", "r_agreed=5e-324:100:2",
               "c_en=1:2:2"],
         ["< mean_demand", "exceeds r_agreed", "does not cross zero",
          "balance residual"]),
    ], ids=["closed-form", "bisection"])
    def test_every_failure_reason(self, tmp_path, satisfaction, params, errors):
        text = self.run(tmp_path, satisfaction, params)
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert "" in (row[-1] for row in rows)  # some cells solve
        for error in errors:
            assert any(error in row[-1] for row in rows), error

    def test_surcharge_bisection(self, tmp_path):
        # c_en = 0.5 puts the root exactly on max_demand; others have none
        text = self.run(tmp_path, 0.2, [
            "mean_demand=0:100:6", "c_en=0:1:5", "c_viol=0:2:3",
        ])
        assert "does not cross zero" in text

    def test_non_finite_and_overflowing_inputs(self, tmp_path, capsys):
        # np.linspace over an infinite or overflowing span warns; the sweep
        # must not pass that on (any warning here is an error)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = self.run(tmp_path, 0.0, ["c_viol=1e300:1e308:3", "c_co2=0:inf:3"])
            assert first.splitlines()[1].split(",")[4:6] == ["0", "1e+300"]
            first = self.run(tmp_path, 0.0, ["c_viol=1e308:-1e308:3"])
            assert first.splitlines()[1].split(",")[5] == "1e+308"
        assert capsys.readouterr().err == ""

    def test_overflowing_weights_are_error_rows(self, tmp_path):
        text = self.run(tmp_path, 0.0, ["c_viol=1e300:1e308:3"])
        errors = [row[-1] for row in list(csv.reader(io.StringIO(text)))[1:]]
        assert errors[0] == ""
        assert all(error.startswith("cost weights overflow") for error in errors[1:])
        assert "nan" not in text

    # several blocks each: a short last block, an exact multiple, a one-row tail
    @pytest.mark.parametrize(
        "count", [4 * _ROW_BLOCK - 1, 4 * _ROW_BLOCK, 8 * _ROW_BLOCK + 1]
    )
    def test_block_edges(self, tmp_path, count):
        self.run(tmp_path, 0.0, [f"mean_demand=0:100:{count}"])

    def test_every_cell_failing_alike_over_blocks(self, tmp_path):
        # every mean exceeds the max of 80: full blocks, and a short last
        # one, of one kind of error row
        count = 2 * _ROW_BLOCK + 1
        text = self.run(tmp_path, 0.0, [f"mean_demand=81:100:{count}"])
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert len(rows) == count
        assert all(row[-1].startswith("max_demand (80.0) < mean_demand (") for row in rows)

    def test_memory_does_not_grow_with_cells(self, tmp_path):
        # 2e5 cells: holding every row would take well over 100 MB
        path = write(tmp_path, BASE)
        tracemalloc.start()
        try:
            code = main([
                "sweep", path, "--output", str(tmp_path / "out"),
                "--param", "mean_demand=0:100:50",
                "--param", "c_viol=0:5:80",
                "--param", "c_en=0:3:50",
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2**20


# Grid bounds and counts as a user might type them: mostly numbers, with
# non-finite and out-of-range spellings and junk.  Counts stay small or
# beyond numpy's size limit, so no example allocates a large grid.
NUMBER = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 40.0, 80.0, 100.0, 5e-324, 1e308]),
                   st.floats(-1.0, 200.0), st.floats())
BOUND_TEXT = st.one_of(
    NUMBER.map(repr), NUMBER.map(repr), NUMBER.map(repr),
    st.sampled_from(["-1e308", "1e999", "inf", "-inf", "nan", "", "x", " 1"]),
    st.text(max_size=4),
)
COUNT_TEXT = st.one_of(
    st.integers(1, 4).map(str), st.integers(1, 4).map(str),
    st.sampled_from(["0", "-1", "", "1.5", "x", str(2**63 - 1), str(2**63), str(2**64)]),
)


@st.composite
def param_texts(draw):
    """One --param value: mostly name=start:stop:count, sometimes any text."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.text(max_size=12))
    name = draw(st.one_of(st.sampled_from(SWEEP_PARAMS),
                          st.sampled_from(["nope", "satisfaction", ""])))
    start, stop, count = draw(BOUND_TEXT), draw(BOUND_TEXT), draw(COUNT_TEXT)
    return f"{name}={start}:{stop}:{count}"


@st.composite
def param_lists(draw):
    """The --param values of one sweep: half of them well-formed grids over
    distinct inputs (whose bounds may still be non-finite)."""
    if draw(st.booleans()):
        return draw(st.lists(param_texts(), max_size=3))
    names = draw(st.lists(st.sampled_from(SWEEP_PARAMS), min_size=1, max_size=3, unique=True))
    return [f"{name}={draw(NUMBER)!r}:{draw(NUMBER)!r}:{draw(st.integers(1, 4))}"
            for name in names]


@st.composite
def stats_triples(draw):
    """mean_demand, max_demand and r_agreed; half of them sorted and signless,
    so that many pass validation."""
    triple = [draw(NUMBER) for _ in range(3)]
    if draw(st.booleans()):
        triple = sorted(abs(x) for x in triple)
    return triple


# Each example writes into a new directory under tmp_path, so that no
# example reads another's files.
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    params=param_lists(),
    stats=stats_triples(),
    satisfaction=st.sampled_from([0.0, 0.05, 0.5]),
)
@example(params=[f"c_en=0:1:{2**63}"], stats=(40.0, 80.0, 100.0), satisfaction=0.0)
@example(params=["c_en=1:2:2"], stats=(0.0, 5e-324, 5e-324), satisfaction=0.5)
def test_sweep_exits_cleanly_on_any_params_and_stats(tmp_path, params, stats, satisfaction):
    document = {
        "stats": dict(zip(("mean_demand", "max_demand", "r_agreed"), stats)),
        "rates": {"c_en": 1.5, "c_co2": 0.5, "c_viol": 1.0, "satisfaction": satisfaction},
    }
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    path = directory / "scenario.yaml"
    path.write_text(yaml.safe_dump(document), encoding="utf-8")
    argv = ["sweep", str(path), "--output", str(directory / "out")]
    for text in params:
        argv += ["--param", text]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue()


# Each run's command and options, and the files it writes
OUTPUTS = {
    "balance": (["balance"], ["balance.json"]),
    "simulate": (["simulate"], ["report.json"]),
    "simulate-trace": (["simulate", "--trace"], ["report.json", "trace.csv"]),
    "etm": (["etm"], ["settlement.csv"]),
    "sweep": (["sweep", "--param", "c_en=0.5:2:64"], ["sweep.csv"]),
}
OUTPUT_NAMES = sorted({name for _, names in OUTPUTS.values() for name in names})


def run_command(run, config, out):
    (command, *options), _ = OUTPUTS[run]
    return main([command, config, "--output", str(out), *options])


def snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class FullDisk:
    """A write handle on a disk that fills after one write: that write is
    only buffered, and every later write, and the flush on closing, fail;
    nothing reaches the file."""

    def __init__(self, handle):
        self.handle = handle
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)

    def __enter__(self):
        return self

    def __exit__(self, kind, *_):
        self.handle.close()
        if kind is None:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestOutputFiles:
    @pytest.fixture
    def config(self, tmp_path):
        return write(tmp_path, BASE + MARKET)

    @pytest.mark.parametrize("run", OUTPUTS)
    def test_failed_write_leaves_every_file_as_it_was(self, config, tmp_path, monkeypatch,
                                                      capsys, run):
        out = tmp_path / "out"
        assert run_command(run, config, out) == 0
        before = snapshot(out)
        assert sorted(before) == sorted(OUTPUTS[run][1])

        def full_disk(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            return FullDisk(handle) if set(mode) & set("wxa") else handle

        # every file the command opens for writing is on the full disk
        monkeypatch.setattr(cli, "open", full_disk, raising=False)
        capsys.readouterr()
        assert run_command(run, config, out) == 1
        assert snapshot(out) == before  # no staged file either
        assert capsys.readouterr().err == "output error: [Errno 28] No space left on device\n"

    def test_output_links_are_replaced_not_written_through(self, config, tmp_path):
        for link in ("symlink_to", "hardlink_to"):
            out = tmp_path / link
            out.mkdir()
            targets = {name: tmp_path / f"target-{link}-{name}" for name in OUTPUT_NAMES}
            for name, target in targets.items():
                target.write_text("keep\n", encoding="utf-8")
                getattr(out / name, link)(target)
            for run in OUTPUTS:
                assert run_command(run, config, out) == 0
            for name, target in targets.items():
                assert not (out / name).is_symlink()
                assert not (out / name).samefile(target)
                assert target.read_text(encoding="utf-8") == "keep\n"
            assert read_csv(out / "trace.csv")[0] == list(TRACE_HEADER)
            json.loads((out / "balance.json").read_text(encoding="utf-8"))

    def test_outputs_get_the_umask_permission_bits(self, config, tmp_path):
        out = tmp_path / "out"
        umask = os.umask(0o027)
        try:
            for run in OUTPUTS:
                assert run_command(run, config, out) == 0
        finally:
            os.umask(umask)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert modes == dict.fromkeys(OUTPUT_NAMES, 0o640)

    def test_a_staged_file_left_by_a_killed_run_is_replaced(self, config, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        # one left under this process id, one under another's
        ours, theirs = out / f".balance.json.{os.getpid()}", out / ".balance.json.1"
        for left in (ours, theirs):
            left.write_text("partial", encoding="utf-8")
        assert run_command("balance", config, out) == 0
        assert sorted(p.name for p in out.iterdir()) == [theirs.name, "balance.json"]
        json.loads((out / "balance.json").read_text(encoding="utf-8"))

    def test_an_output_path_held_by_a_directory_is_an_output_error(self, config, tmp_path,
                                                                  capsys):
        out = tmp_path / "out"
        (out / "balance.json").mkdir(parents=True)
        assert run_command("balance", config, out) == 1
        assert capsys.readouterr().err == (
            f"output error: [Errno 21] Is a directory: '{out / 'balance.json'}'\n"
        )
        assert [p.name for p in out.iterdir()] == ["balance.json"]

    def test_an_output_that_names_a_file_is_an_output_error(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("keep\n", encoding="utf-8")
        for run in OUTPUTS:
            capsys.readouterr()
            assert run_command(run, config, out) == 1
            assert capsys.readouterr().err == f"output error: [Errno 17] File exists: '{out}'\n"
        assert out.read_text(encoding="utf-8") == "keep\n"


class TestUsage:
    def test_no_arguments(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["audit", "x.yaml"]) == 1

    def test_bad_seed_flag(self, config):
        assert main(["simulate", config, "--seed", "-3"]) == 1
        assert main(["simulate", config, "--seed", str(2**64)]) == 1

    @pytest.mark.parametrize("flag, value, rule", [
        ("--steps", "0", "an integer >= 1"),
        ("--seed", "-1", "an unsigned 64-bit integer"),
        ("--seed", "x", "an unsigned 64-bit integer"),
    ])
    def test_bad_flag_value_states_the_rule(self, config, capsys, flag, value, rule):
        assert main(["simulate", config, flag, value]) == 1
        assert capsys.readouterr().err == (
            f"usage error: argument {flag}: must be {rule}, got '{value}'\n"
        )


class TestSchemas:
    def test_csv_header_lines(self, tmp_path):
        # The headers derive from dataclass fields; their text is pinned here
        config = write(tmp_path, BASE + MARKET)
        out = tmp_path / "out"
        assert main(["simulate", config, "--trace", "--output", str(out)]) == 0
        assert main(["etm", config, "--output", str(out)]) == 0
        assert main(["sweep", config, "--param", "c_en=1:2:2", "--output", str(out)]) == 0
        first_lines = {name: (out / name).read_bytes().partition(b"\n")[0]
                       for name in ("trace.csv", "settlement.csv", "sweep.csv")}
        assert first_lines == {
            "trace.csv": b"replication,step,demand,provisioned,violation,wasted,"
                         b"wastage_cost,penalty_cost",
            "settlement.csv": b"name,cap_kg,emissions_kg,position_kg,cash_flow",
            "sweep.csv": b"mean_demand,max_demand,r_agreed,c_en,c_co2,c_viol,satisfaction,"
                         b"r_provisioned,w,c_wastage,p_viol,expected_penalty,error",
        }

    def test_kind_enums_follow_the_constants(self):
        properties = SCENARIO_SCHEMA["properties"]
        assert properties["demand"]["properties"]["kind"]["enum"] == list(FAMILIES)
        assert properties["policy"]["properties"]["kind"]["enum"] == list(POLICY_KINDS)
