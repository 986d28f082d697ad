"""CLI workflows end to end: exit codes, report files, schemas, and the
strict scenario echo."""

import csv
import io
import itertools
import json
import textwrap
import tracemalloc

import jsonschema
import pytest

import numpy as np

from greenprov import DemandStats, CostRates, balance_closed_form, solve_balance
from greenprov.cli import _ROW_BLOCK, _fmt, main
from greenprov.config import build_scenario, load_config, scenario_from_dict
from greenprov.schemas import (
    BALANCE_RECORD_SCHEMA,
    SETTLEMENT_HEADER,
    SIMULATION_REPORT_SCHEMA,
    SWEEP_HEADER,
    TRACE_HEADER,
)

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

    @pytest.mark.parametrize("extra", ["", "max_method: mean_plus_variance"])
    @pytest.mark.parametrize("mu_log", [400, 800])
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

    def test_missing_file(self, tmp_path):
        assert main(["balance", str(tmp_path / "nope.yaml")]) == 1


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


SWEEP_INPUTS = ("mean_demand", "max_demand", "r_agreed", "c_en", "c_co2", "c_viol")


def reference_sweep_csv(base: dict, satisfaction: float, params) -> bytes:
    """sweep.csv from the per-cell loop: scalar stats, rates and solve per cell."""
    grids = {}
    for text in params:
        name, _, grid = text.partition("=")
        start, stop, count = grid.split(":")
        grids[name] = np.linspace(float(start), float(stop), int(count))
    names = sorted(grids)
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for combo in itertools.product(*(grids[name] for name in names)):
        values = dict(base)
        values.update(zip(names, (float(v) for v in combo)))
        row = [_fmt(values[k]) for k in SWEEP_INPUTS] + [_fmt(satisfaction)]
        try:
            result = solve_balance(
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

    def run(self, tmp_path, satisfaction, params):
        rates = {k: self.BASE[k] for k in ("c_en", "c_co2", "c_viol")}
        stats = {k: self.BASE[k] for k in ("mean_demand", "max_demand", "r_agreed")}
        path = write(
            tmp_path,
            f"stats: {json.dumps(stats)}\n"
            f"rates: {json.dumps({**rates, 'satisfaction': satisfaction})}\n",
        )
        out = tmp_path / "out"
        argv = ["sweep", path, "--output", str(out)]
        for text in params:
            argv += ["--param", text]
        main(argv)
        got = (out / "sweep.csv").read_bytes()
        assert got == reference_sweep_csv(self.BASE, satisfaction, params)
        return got.decode("utf-8")

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

    def test_surcharge_bisection(self, tmp_path):
        # c_en = 0.5 puts the root exactly on max_demand; others have none
        text = self.run(tmp_path, 0.2, [
            "mean_demand=0:100:6", "c_en=0:1:5", "c_viol=0:2:3",
        ])
        assert "does not cross zero" in text

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_and_overflowing_inputs(self, tmp_path):
        self.run(tmp_path, 0.0, ["c_viol=1e300:1e308:3", "c_co2=0:inf:3"])

    @pytest.mark.parametrize("count", [_ROW_BLOCK - 1, _ROW_BLOCK, 2 * _ROW_BLOCK + 1])
    def test_block_edges(self, tmp_path, count):
        self.run(tmp_path, 0.0, [f"mean_demand=0:100:{count}"])

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


class TestUsage:
    def test_no_arguments(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["audit", "x.yaml"]) == 1

    def test_bad_seed_flag(self, config):
        assert main(["simulate", config, "--seed", "-3"]) == 1
        assert main(["simulate", config, "--seed", str(2**64)]) == 1
