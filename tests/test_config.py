"""Strict YAML config parsing, its exact error texts, derived and clamped
stats, seed precedence, the scenario echo round trip, and arbitrary
documents."""

import contextlib
import io
import json
import math
import tempfile
import textwrap
from pathlib import Path

import mpmath
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from greenprov import ConfigError, Policy, make_profile
from greenprov.cli import main
from greenprov.config import (
    MAX_METHODS,
    build_scenario,
    load_config,
    parse_document,
    scenario_from_dict,
    scenario_to_dict,
)
from greenprov.demand import FAMILIES
from greenprov.simulate import POLICY_KINDS

FULL_CONFIG = """
demand:
  kind: uniform
  lower: 0
  upper: 80
  resource_unit: GB

stats:
  r_agreed: 100

rates:
  c_en: 1.5
  c_co2: 0.5
  c_viol: 1.0

policy:
  kind: balance

simulation:
  steps: 500
  replications: 2
  seed: 42
  energy_full: 2.0
  carbon_intensity: 0.5
"""


def write_config(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


@pytest.fixture
def full_config(tmp_path):
    return write_config(tmp_path, FULL_CONFIG)


class TestLoadAndBuild:
    def test_full_scenario(self, full_config):
        scenario = build_scenario(load_config(full_config))
        assert scenario.profile == make_profile("uniform", [0, 80], resource_unit="GB")
        assert scenario.stats.mean_demand == 40.0
        assert scenario.stats.max_demand == 80.0  # true upper bound by default
        assert scenario.stats.r_agreed == 100.0
        assert scenario.rates.c_provision == 2.0
        assert scenario.policy == Policy.balance()
        assert scenario.seed == 42
        assert scenario.clamp_demand_to_agreed is False

    def test_explicit_stats_need_no_demand_section(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            stats: {r_agreed: 100, mean_demand: 40, max_demand: 80}
            rates: {c_en: 1.5, c_co2: 0.5, c_viol: 1}
            """,
        )
        parsed = load_config(path)
        stats = parsed.stats()
        assert (stats.mean_demand, stats.max_demand) == (40.0, 80.0)

    def test_derived_stats_without_demand_fail_with_path(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            stats: {r_agreed: 100}
            rates: {c_en: 1.5, c_co2: 0.5, c_viol: 1}
            """,
        )
        with pytest.raises(ConfigError) as err:
            load_config(path).stats()
        assert "stats.mean_demand" in str(err.value)

    def test_mean_plus_variance_max_method(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            demand: {kind: empirical, values: [30, 50]}
            stats: {r_agreed: 150, max_method: mean_plus_variance}
            """,
        )
        stats = load_config(path).stats()
        assert stats.mean_demand == 40.0
        assert stats.max_demand == 140.0  # mean 40 + variance 100

    def test_quantile_max_method(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            demand: {kind: uniform, lower: 0, upper: 80}
            stats: {r_agreed: 100, max_method: quantile, quantile: 0.95}
            """,
        )
        assert load_config(path).stats().max_demand == pytest.approx(76.0)

    def test_unknown_max_method(self, tmp_path):
        path = write_config(
            tmp_path,
            "stats: {r_agreed: 100, max_method: mode}\n",
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "stats.max_method" in str(err.value)

    def test_lognormal_and_clamp_options(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            demand: {kind: lognormal, mu_log: 3.0, sigma_log: 0.4}
            stats: {r_agreed: 100, max_demand: 80, mean_demand: 21.9}
            rates: {c_en: 1, c_co2: 0, c_viol: 1}
            policy: {kind: fixed_agreed}
            simulation:
              steps: 10
              replications: 1
              seed: 1
              energy_full: 1.0
              carbon_intensity: 0.1
              clamp_demand_to_agreed: true
            """,
        )
        scenario = build_scenario(load_config(path))
        assert scenario.clamp_demand_to_agreed is True
        assert scenario.profile.upper is None

    def test_policy_variants(self, tmp_path):
        path = write_config(
            tmp_path,
            "policy: {kind: balance_band, x_percent: 0.1}\n",
        )
        assert load_config(path).policy == Policy.balance_band(0.1)
        path = write_config(
            tmp_path,
            "policy: {kind: fixed_level, level: 55}\n",
            name="p2.yaml",
        )
        assert load_config(path).policy == Policy.fixed_level(55.0)


class TestStrictness:
    def test_unknown_top_level_section(self, tmp_path):
        path = write_config(tmp_path, "reporting: {}\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "unknown key: reporting" in str(err.value)

    def test_unknown_nested_key_carries_path(self, tmp_path):
        path = write_config(
            tmp_path,
            "demand: {kind: uniform, lower: 0, upper: 80, sigma: 3}\n",
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "unknown key: demand.sigma" in str(err.value)

    def test_unknown_account_key_carries_index(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            market:
              price_per_kg: 0.01
              accounts:
                - {name: a, cap_kg: 1, emissions_kg: 1}
                - {name: b, cap_kg: 1, emissions_kg: 1, color: green}
            """,
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "market.accounts[1].color" in str(err.value)

    def test_missing_required_key(self, tmp_path):
        path = write_config(tmp_path, "simulation: {steps: 5}\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "missing key: simulation.replications" in str(err.value)

    def test_booleans_are_not_numbers(self, tmp_path):
        path = write_config(
            tmp_path, "rates: {c_en: true, c_co2: 0, c_viol: 1}\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "rates.c_en" in str(err.value)

    def test_strings_are_not_numbers(self, tmp_path):
        path = write_config(
            tmp_path, "stats: {r_agreed: plenty}\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "stats.r_agreed" in str(err.value)

    def test_seed_bounds(self, tmp_path):
        for bad in ("-1", str(2**64)):
            path = write_config(
                tmp_path,
                f"""
                simulation:
                  steps: 1
                  replications: 1
                  seed: {bad}
                  energy_full: 1
                  carbon_intensity: 0
                """,
                name=f"seed_{bad}.yaml",
            )
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert "simulation.seed" in str(err.value)

    def test_invalid_domain_values_carry_section_path(self, tmp_path):
        path = write_config(tmp_path, "demand: {kind: uniform, lower: 80, upper: 0}\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "demand" in str(err.value)

    def test_yaml_syntax_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "rates: {c_en: [\n")
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["balance", path, "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: invalid value at config: not parseable (while parsing a flow node "
            f"expected the node content, but found '<stream end>' in \"{path}\", line 2, "
            "column 1)\n"
        )

    def test_non_scalar_key(self, tmp_path, capsys):
        # the duplicate-key check passes it over; the constructor rejects it
        path = write_config(tmp_path, "stats: {? [1, 2] : 3, r_agreed: 100}\n")
        assert main(["balance", path, "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: invalid value at config: not parseable (while constructing a "
            f'mapping in "{path}", line 1, column 8 found unhashable key in "{path}", '
            "line 1, column 11)\n"
        )

    def test_empty_document(self, tmp_path):
        path = write_config(tmp_path, "\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "text, path",
        [
            (
                """
                rates: {c_en: 1.5, c_co2: 0.5, c_viol: 1.0}
                rates: {c_en: 9.0, c_co2: 0.5, c_viol: 1.0}
                """,
                "rates",
            ),
            ("demand: {kind: uniform, lower: 0, upper: 80, upper: 90}\n", "demand.upper"),
            (
                """
                market:
                  price_per_kg: 0.01
                  accounts:
                    - {name: a, cap_kg: 1, emissions_kg: 1}
                    - {name: b, cap_kg: 1, emissions_kg: 1, cap_kg: 2}
                """,
                "market.accounts[1].cap_kg",
            ),
            (
                "stats: {<<: {r_agreed: 100, r_agreed: 90}, mean_demand: 40}\n",
                "stats.<<.r_agreed",
            ),
            # a control character in the key is escaped, so the message is one line
            ('stats: {"x\\ny": 1, "x\\ny": 2}\n', "stats.x\\ny"),
            # keys are built while they are checked, dates included
            ("stats: {2001-01-01: 1, 2001-01-01: 2}\n", "stats.2001-01-01"),
        ],
    )
    def test_duplicate_keys_rejected_with_path(self, tmp_path, capsys, text, path):
        config = write_config(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            load_config(config)
        assert str(err.value) == f"duplicate key: {path}"
        assert err.value.path == path
        assert main(["balance", config]) == 1
        assert capsys.readouterr().err == f"config error: duplicate key: {path}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('"a\\nb": 1\n', "unknown key: a\\nb"),
            ('stats: {"x\\ny": 1}\n', "unknown key: stats.x\\ny"),
            ('stats: {"x\\u2028\\x00\\ty": 1}\n', "unknown key: stats.x\\u2028\\x00\\ty"),
        ],
        ids=["unknown", "nested-unknown", "separators"],
    )
    def test_control_characters_in_keys_are_escaped(self, tmp_path, capsys, text, message):
        config = write_config(tmp_path, text)
        assert main(["balance", config, "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_merge_keys_may_be_overridden(self, tmp_path):
        config = write_config(
            tmp_path,
            "stats: {<<: {r_agreed: 100, mean_demand: 40}, mean_demand: 30, max_demand: 80}\n",
        )
        assert load_config(config).stats().mean_demand == 30

    def test_recursive_alias_is_checked_once(self, tmp_path):
        config = write_config(tmp_path, "stats: &s {r_agreed: *s}\n")
        with pytest.raises(ConfigError) as err:
            load_config(config)
        assert "stats.r_agreed" in str(err.value)

    def test_market_accounts_must_be_nonempty(self, tmp_path):
        path = write_config(tmp_path, "market: {price_per_kg: 0.01, accounts: []}\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "market.accounts" in str(err.value)

    @pytest.mark.parametrize("command", ["balance", "simulate", "etm", "sweep"])
    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "scenario.yaml"
        path.write_bytes(b"stats: {mean_demand: 4\xe9}\n")
        assert main([command, str(path), "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: invalid value at config: not UTF-8 ('utf-8' codec can't decode "
            "byte 0xe9 in position 22: invalid continuation byte)\n"
        )

    @pytest.mark.parametrize(
        "depth, message",
        [
            (300, "invalid value at stats: expected a mapping"),
            (500, "invalid value at config: nested too deeply"),
            (100_000, "invalid value at config: nested too deeply"),
        ],
    )
    @pytest.mark.parametrize("command", ["balance", "simulate", "etm", "sweep"])
    def test_deep_nesting_is_a_config_error(self, tmp_path, capsys, command, depth, message):
        path = write_config(tmp_path, "stats: " + "[" * depth + "]" * depth + "\n")
        assert main([command, path, "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestSeedPrecedence:
    def test_cli_override_wins(self, full_config):
        scenario = build_scenario(load_config(full_config), seed_override=7)
        assert scenario.seed == 7

    def test_config_seed_used_without_override(self, full_config):
        assert build_scenario(load_config(full_config)).seed == 42

    def test_missing_seed_everywhere_is_an_error(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            demand: {kind: uniform, lower: 0, upper: 80}
            stats: {r_agreed: 100}
            rates: {c_en: 1, c_co2: 0, c_viol: 1}
            policy: {kind: balance}
            simulation: {steps: 1, replications: 1, energy_full: 1, carbon_intensity: 0}
            """,
        )
        parsed = load_config(path)
        with pytest.raises(ConfigError) as err:
            build_scenario(parsed)
        assert "simulation.seed" in str(err.value)
        assert build_scenario(parsed, seed_override=5).seed == 5

    def test_steps_override(self, full_config):
        scenario = build_scenario(load_config(full_config), steps_override=77)
        assert scenario.steps == 77


class TestRoundTrip:
    def test_scenario_survives_the_echo(self, full_config):
        scenario = build_scenario(load_config(full_config))
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_round_trip_covers_every_family_and_policy(self, tmp_path):
        documents = [
            """
            demand: {kind: empirical, values: [30, 50, 50, 70], resource_unit: vCPU}
            stats: {r_agreed: 100}
            rates: {c_en: 0.2, c_co2: 0.1, c_viol: 2, satisfaction: 0}
            policy: {kind: balance_band, x_percent: 0.25}
            simulation:
              steps: 3
              replications: 2
              seed: 8
              energy_full: 1.5
              carbon_intensity: 0.3
            """,
            """
            demand: {kind: truncated_normal, mu: 50, sigma: 10, lower: 0, upper: 100}
            stats: {r_agreed: 120}
            rates: {c_en: 1, c_co2: 1, c_viol: 0.5}
            policy: {kind: fixed_level, level: 66}
            simulation:
              steps: 4
              replications: 1
              seed: 9
              energy_full: 2
              carbon_intensity: 0.4
              clamp_demand_to_agreed: true
            """,
            """
            demand: {kind: lognormal, mu_log: 3.0, sigma_log: 0.4}
            stats: {r_agreed: 100, max_demand: 80}
            rates: {c_en: 1, c_co2: 0, c_viol: 1}
            policy: {kind: fixed_agreed}
            simulation: {steps: 2, replications: 1, seed: 1, energy_full: 1, carbon_intensity: 0}
            """,
            """
            demand: {kind: lognormal, mu_log: 3.0, sigma_log: 0.4, upper: 90, resource_unit: GB}
            stats: {r_agreed: 100}
            rates: {c_en: 1, c_co2: 0.5, c_viol: 1}
            policy: {kind: mean_follow}
            simulation: {steps: 2, replications: 3, seed: 0, energy_full: 1, carbon_intensity: 0.2}
            """,
            """
            demand: {kind: truncated_normal, mu: 40, sigma: 15, upper: 90}
            stats: {r_agreed: 100, max_method: quantile, quantile: 0.9}
            rates: {c_en: 1, c_co2: 0.5, c_viol: 1, satisfaction: 0.25}
            policy: {kind: balance}
            simulation: {steps: 2, replications: 1, seed: 18446744073709551615,
                         energy_full: 1, carbon_intensity: 0.2}
            """,
            """
            demand: {kind: uniform, lower: 10, upper: 120}
            stats: {r_agreed: 100}
            rates: {c_en: 2, c_co2: 0, c_viol: 3}
            policy: {kind: balance_band, x_percent: 0}
            simulation:
              steps: 2
              replications: 1
              seed: 3
              energy_full: 1
              carbon_intensity: 0.2
              clamp_demand_to_agreed: true
            """,
        ]
        kinds = set()
        for i, doc in enumerate(documents):
            path = write_config(tmp_path, doc, name=f"rt_{i}.yaml")
            scenario = build_scenario(load_config(path))
            assert scenario_from_dict(scenario_to_dict(scenario)) == scenario
            kinds |= {scenario.profile.kind, scenario.policy.kind}
        assert kinds == set(FAMILIES) | set(POLICY_KINDS)

    def test_echo_dict_is_strictly_parseable(self, full_config):
        scenario = build_scenario(load_config(full_config))
        echoed = scenario_to_dict(scenario)
        parse_document(echoed)  # no unknown-key complaints
        echoed["stats"]["surprise"] = 1
        with pytest.raises(ConfigError):
            parse_document(echoed)


# -- exact error texts ------------------------------------------------------

ONE_ACCOUNT = [{"name": "a", "cap_kg": 1, "emissions_kg": 2}]
SECTIONS = {
    "demand": {"kind": "uniform", "lower": 0, "upper": 80},
    "stats": {"r_agreed": 100},
    "rates": {"c_en": 1.5, "c_co2": 0.5, "c_viol": 1.0},
    "policy": {"kind": "balance"},
    "simulation": {"steps": 5, "replications": 1, "seed": 1, "energy_full": 1.0,
                   "carbon_intensity": 0.5},
    "market": {"price_per_kg": 0.01, "accounts": ONE_ACCOUNT},
}
ABSENT = object()
UNIFORM_120 = {"kind": "uniform", "lower": 0, "upper": 120}


def amended(section, **changes):
    """The valid section with keys changed (to ABSENT: removed)."""
    out = dict(SECTIONS[section], **changes)
    return {key: value for key, value in out.items() if value is not ABSENT}


def invalid(path, problem):
    return f"invalid value at {path}: {problem}", path


def missing(path):
    return f"missing key: {path}", path


def unknown(path):
    return f"unknown key: {path}", path


REAL, FINITE = "expected a real number", "must be finite"

# (sections replacing the valid ones, ABSENT removing one; message; path)
ERROR_TEXTS = [
    ({"bogus": 1}, *unknown("bogus")),
    ({7: {}}, *invalid("config", "non-string key 7")),
    *(
        case
        for section in SECTIONS
        for case in (
            ({section: [1]}, *invalid(section, "expected a mapping")),
            ({section: {None: 1}}, *invalid(section, "non-string key None")),
            ({section: dict(SECTIONS[section], color=1)}, *unknown(f"{section}.color")),
        )
    ),
    # demand: kind first, then unknown keys, resource_unit, the parameters
    ({"demand": {"color": 1}}, *missing("demand.kind")),
    ({"demand": {"kind": 3}}, *invalid("demand.kind", "expected a string")),
    ({"demand": {"kind": "pareto"}}, *invalid(
        "demand.kind",
        "unknown family 'pareto' (expected one of uniform, truncated_normal, lognormal, "
        "empirical)")),
    ({"demand": amended("demand", lower="x", mu=1)}, *unknown("demand.mu")),
    ({"demand": amended("demand", resource_unit=5, lower="x")},
     *invalid("demand.resource_unit", "expected a string")),
    ({"demand": amended("demand", lower=ABSENT, upper="x")}, *missing("demand.lower")),
    ({"demand": amended("demand", upper=True)}, *invalid("demand.upper", REAL)),
    ({"demand": amended("demand", upper=math.inf)}, *invalid("demand.upper", FINITE)),
    ({"demand": {"kind": "truncated_normal", "mu": 1, "lower": "x"}}, *missing("demand.sigma")),
    ({"demand": {"kind": "truncated_normal", "mu": 1, "sigma": 1, "lower": "x"}},
     *invalid("demand.lower", REAL)),
    ({"demand": {"kind": "truncated_normal", "mu": 1, "sigma": 1}}, *missing("demand.upper")),
    ({"demand": {"kind": "lognormal", "mu_log": None}}, *invalid("demand.mu_log", REAL)),
    ({"demand": {"kind": "lognormal", "mu_log": 1, "sigma_log": 1, "upper": "x"}},
     *invalid("demand.upper", REAL)),
    ({"demand": {"kind": "empirical"}}, *missing("demand.values")),
    ({"demand": {"kind": "empirical", "values": "30 50"}},
     *invalid("demand.values", "expected a list")),
    ({"demand": {"kind": "empirical", "values": [1, False]}}, *invalid("demand.values[1]", REAL)),
    ({"demand": {"kind": "empirical", "values": [1, math.nan]}},
     *invalid("demand.values[1]", FINITE)),
    ({"demand": amended("demand", lower=80, upper=0)},
     *invalid("demand", "uniform requires lower < upper, got [80.0, 0.0]")),
    # stats: max_method first; derived values after every section is read
    ({"stats": {"max_method": "mode"}}, *invalid(
        "stats.max_method", "expected one of mean_plus_variance, true_upper_bound, quantile")),
    ({"stats": {"max_method": 1}}, *invalid("stats.max_method", "expected a string")),
    ({"stats": {"mean_demand": "x"}}, *missing("stats.r_agreed")),
    ({"stats": {"r_agreed": "plenty"}}, *invalid("stats.r_agreed", REAL)),
    ({"stats": {"r_agreed": 100, "mean_demand": -math.inf}}, *invalid("stats.mean_demand", FINITE)),
    ({"stats": {"r_agreed": 100, "max_demand": [80]}}, *invalid("stats.max_demand", REAL)),
    ({"stats": {"r_agreed": 100, "quantile": True}}, *invalid("stats.quantile", REAL)),
    ({"stats": ABSENT}, *missing("stats")),
    ({"demand": ABSENT}, "missing key: stats.mean_demand (no demand section to derive it from)",
     "stats.mean_demand"),
    ({"demand": ABSENT, "stats": {"r_agreed": 100, "mean_demand": 40}},
     "missing key: stats.max_demand (no demand section to derive it from)", "stats.max_demand"),
    ({"demand": {"kind": "lognormal", "mu_log": 709.8, "sigma_log": 1}},
     *invalid("demand", "lognormal moment 1 overflows (mu_log=709.8, sigma_log=1.0)")),
    ({"demand": {"kind": "lognormal", "mu_log": 3, "sigma_log": 1},
      "stats": {"r_agreed": 100, "max_method": "true_upper_bound"}},
     *invalid("stats.max_method", "untruncated lognormal demand has no finite upper bound")),
    ({"stats": {"r_agreed": 100, "max_method": "quantile", "quantile": 1.5}},
     *invalid("stats.max_method", "quantile level must be in (0, 1), got 1.5")),
    ({"demand": UNIFORM_120}, *invalid(
        "stats", "max_demand (120.0) exceeds r_agreed (100.0); "
        "clamp demand at the scenario level if this is intended")),
    # rates
    ({"rates": amended("rates", c_co2=ABSENT)}, *missing("rates.c_co2")),
    ({"rates": amended("rates", c_viol="1")}, *invalid("rates.c_viol", REAL)),
    ({"rates": amended("rates", satisfaction=math.nan)}, *invalid("rates.satisfaction", FINITE)),
    ({"rates": amended("rates", c_en=-1)},
     *invalid("rates", "c_en must be finite and >= 0, got -1.0")),
    # policy: kind first
    ({"policy": {}}, *missing("policy.kind")),
    ({"policy": {"kind": None}}, *invalid("policy.kind", "expected a string")),
    ({"policy": {"kind": "greedy"}}, *invalid(
        "policy.kind",
        "unknown policy 'greedy' (expected one of fixed_agreed, mean_follow, balance, "
        "balance_band, fixed_level)")),
    ({"policy": {"kind": "balance", "level": 3}}, *unknown("policy.level")),
    ({"policy": {"kind": "balance_band"}}, *missing("policy.x_percent")),
    ({"policy": {"kind": "fixed_level", "level": "high"}}, *invalid("policy.level", REAL)),
    ({"policy": {"kind": "balance_band", "x_percent": 1.5}},
     *invalid("policy", "balance_band needs x_percent in [0, 1), got 1.5")),
    # simulation
    ({"simulation": amended("simulation", steps=ABSENT, replications="x")},
     *missing("simulation.steps")),
    ({"simulation": amended("simulation", steps=1.5)},
     *invalid("simulation.steps", "expected an integer")),
    ({"simulation": amended("simulation", replications=True)},
     *invalid("simulation.replications", "expected an integer")),
    ({"simulation": amended("simulation", energy_full="x")},
     *invalid("simulation.energy_full", REAL)),
    ({"simulation": amended("simulation", carbon_intensity=-math.inf)},
     *invalid("simulation.carbon_intensity", FINITE)),
    ({"simulation": amended("simulation", seed="x")},
     *invalid("simulation.seed", "expected an integer")),
    ({"simulation": amended("simulation", seed=-1)},
     *invalid("simulation.seed", "seed must be an unsigned 64-bit integer")),
    ({"simulation": amended("simulation", seed=2**64)},
     *invalid("simulation.seed", "seed must be an unsigned 64-bit integer")),
    ({"simulation": amended("simulation", clamp_demand_to_agreed="yes")},
     *invalid("simulation.clamp_demand_to_agreed", "expected true/false")),
    ({"simulation": amended("simulation", seed=ABSENT)},
     "missing key: simulation.seed (set it or pass --seed)", "simulation.seed"),
    ({"simulation": amended("simulation", steps=0)},
     *invalid("simulation", "steps must be >= 1, got 0")),
    ({"policy": ABSENT}, *missing("policy")),
    # market
    ({"market": {"accounts": ONE_ACCOUNT}}, *missing("market.price_per_kg")),
    ({"market": {"price_per_kg": "x"}}, *invalid("market.price_per_kg", REAL)),
    ({"market": {"price_per_kg": 1}}, *missing("market.accounts")),
    ({"market": {"price_per_kg": -1, "accounts": ONE_ACCOUNT}},
     *invalid("market", "price_per_kg must be >= 0, got -1.0")),
    ({"market": {"price_per_kg": 1, "accounts": []}},
     *invalid("market.accounts", "expected a nonempty list")),
    ({"market": {"price_per_kg": 1, "accounts": {"name": "a"}}},
     *invalid("market.accounts", "expected a nonempty list")),
    ({"market": {"price_per_kg": 1, "accounts": [*ONE_ACCOUNT, 3]}},
     *invalid("market.accounts[1]", "expected a mapping")),
    ({"market": {"price_per_kg": 1, "accounts": [{"name": "a", "color": 1}]}},
     *unknown("market.accounts[0].color")),
    ({"market": {"price_per_kg": 1, "accounts": [{"cap_kg": 1}]}},
     *missing("market.accounts[0].name")),
    ({"market": {"price_per_kg": 1, "accounts": [{"name": 5}]}},
     *invalid("market.accounts[0].name", "expected a string")),
    ({"market": {"price_per_kg": 1, "accounts": [{"name": "a", "cap_kg": "x"}]}},
     *invalid("market.accounts[0].cap_kg", REAL)),
    ({"market": {"price_per_kg": 1, "accounts": [{"name": "a", "cap_kg": 1}]}},
     *missing("market.accounts[0].emissions_kg")),
    ({"market": {"price_per_kg": 1, "accounts": [{"name": "", "cap_kg": 1, "emissions_kg": 1}]}},
     *invalid("market.accounts[0]", "account name must be nonempty")),
]


def first_error(document):
    """Parse, derive the stats as `balance` does, and build the scenario."""
    parsed = parse_document(document)
    parsed.stats()
    build_scenario(parsed)


@pytest.mark.parametrize(
    "changes, message, path", ERROR_TEXTS, ids=[case[1] for case in ERROR_TEXTS]
)
def test_error_text_and_path(changes, message, path):
    document = {**SECTIONS, **changes}
    document = {key: value for key, value in document.items() if value is not ABSENT}
    with pytest.raises(ConfigError) as err:
        first_error(document)
    assert (str(err.value), err.value.path) == (message, path)


def test_document_must_be_a_mapping():
    for document in ([], "demand", 3):
        with pytest.raises(ConfigError) as err:
            parse_document(document)
        assert (str(err.value), err.value.path) == ("invalid value at config: expected a mapping",
                                                    "config")


# -- stats of demand clamped at r_agreed ---------------------------------------

CLAMPED_SIMULATION = dict(SECTIONS["simulation"], clamp_demand_to_agreed=True)


def mp_clamped_mean(survival, r):
    """E[min(D, r)] as the integral of P(D > x) over [0, r], in mpmath."""
    with mpmath.workdps(30):
        return float(mpmath.quad(survival, [0, r]))


def tn_survival(mu, sigma, lower, upper):
    lo, hi = mpmath.ncdf((lower - mu) / sigma), mpmath.ncdf((upper - mu) / sigma)
    return lambda x: 1 if x <= lower else (hi - mpmath.ncdf((x - mu) / sigma)) / (hi - lo)


@pytest.mark.parametrize(
    "demand, mean",
    [
        (UNIFORM_120, 175 / 3),
        ({"kind": "truncated_normal", "mu": 80, "sigma": 30, "upper": 150},
         mp_clamped_mean(tn_survival(80, 30, 0, 150), 100)),
        ({"kind": "lognormal", "mu_log": 4, "sigma_log": 0.5},
         mp_clamped_mean(lambda x: mpmath.ncdf(-(mpmath.log(x) - 4) / 0.5), 100)),
        ({"kind": "empirical", "values": [30, 50, 110, 130]}, 70.0),
    ],
    ids=FAMILIES,
)
def test_clamp_derives_the_stats_of_clamped_demand(demand, mean):
    document = {"demand": demand, "stats": {"r_agreed": 100}, "simulation": CLAMPED_SIMULATION}
    stats = parse_document(document).stats()
    assert stats.mean_demand == pytest.approx(mean, rel=1e-12)
    assert stats.max_demand == 100.0
    # without the clamp the same document exceeds r_agreed
    with pytest.raises(ConfigError, match="exceeds r_agreed"):
        parse_document({**document, "simulation": SECTIONS["simulation"]}).stats()


def test_clamp_keeps_explicit_stats_and_a_support_within_r_agreed():
    plain = parse_document({"demand": SECTIONS["demand"], "stats": {"r_agreed": 100}})
    clamped = parse_document({"demand": SECTIONS["demand"], "stats": {"r_agreed": 100},
                              "simulation": CLAMPED_SIMULATION})
    assert clamped.stats() == plain.stats()
    explicit = {"r_agreed": 100, "mean_demand": 70, "max_demand": 90}
    clamped = parse_document({"demand": UNIFORM_120, "stats": explicit,
                              "simulation": CLAMPED_SIMULATION})
    assert (clamped.stats().mean_demand, clamped.stats().max_demand) == (70.0, 90.0)


def test_clamped_config_runs_balance_and_simulate(tmp_path, capsys):
    path = write_config(
        tmp_path,
        """
        demand: {kind: uniform, lower: 0, upper: 120}
        stats: {r_agreed: 100}
        rates: {c_en: 1.5, c_co2: 0.5, c_viol: 1.0}
        policy: {kind: balance}
        simulation:
          steps: 50
          replications: 1
          seed: 5
          energy_full: 2.0
          carbon_intensity: 0.5
          clamp_demand_to_agreed: true
        """,
    )
    out = tmp_path / "out"
    assert main(["balance", path, "--output", str(out)]) == 0
    assert main(["simulate", path, "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    balance = json.loads((out / "balance.json").read_text())
    report = json.loads((out / "report.json").read_text())
    for stats in (balance["stats"], report["scenario"]["stats"]):
        assert stats["mean_demand"] == pytest.approx(175 / 3, rel=1e-15)
        assert stats["max_demand"] == 100.0


# -- arbitrary documents ------------------------------------------------------

# Every key a config knows: per section, and per kind of demand and policy.
SECTION_KEYS = {
    "stats": ["max_method", "r_agreed", "mean_demand", "max_demand", "quantile"],
    "rates": ["c_en", "c_co2", "c_viol", "satisfaction"],
    "simulation": ["steps", "replications", "energy_full", "carbon_intensity", "seed",
                   "clamp_demand_to_agreed"],
    "market": ["price_per_kg", "accounts"],
}
KIND_KEYS = {
    "demand": {"uniform": ["lower", "upper"], "truncated_normal": ["mu", "sigma", "lower", "upper"],
               "lognormal": ["mu_log", "sigma_log", "upper"], "empirical": ["values"]},
    "policy": {"balance_band": ["x_percent"], "fixed_level": ["level"]},
}
KINDS = {"demand": FAMILIES, "policy": POLICY_KINDS}
ACCOUNT_KEYS = ["name", "cap_kg", "emissions_kg"]
VOCABULARY = sorted(
    {*SECTION_KEYS, *KIND_KEYS, *ACCOUNT_KEYS, "kind", "resource_unit"}.union(
        *SECTION_KEYS.values(), *(keys for kinds in KIND_KEYS.values() for keys in kinds.values())
    )
)
WORDS = st.sampled_from([*FAMILIES, *POLICY_KINDS, *MAX_METHODS, "default", "", "x"])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.sampled_from([2**63 - 1, 2**64 - 1, 2**64, -(2**63)]),
    st.floats(), st.floats(0.0, 200.0), st.floats(0.0, 1.0), WORDS, st.text(max_size=3),
)
KEYS = st.one_of(st.sampled_from(VOCABULARY), st.sampled_from([None, 0, 1.5, True]))
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)
# Values of the type and range a valid config holds: demand from LOW to
# HIGH, agreed capacity HIGH, shares and quantiles from 0 to 1; and any
# finite float, whose overflows must end in a one-line error too
ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
NUMBER = st.one_of(st.floats(0.0, 200.0), st.integers(0, 200), st.floats(0.0, 1.0), ANY_FLOAT)
LOW = st.one_of(st.floats(0.0, 60.0), st.integers(0, 60), ANY_FLOAT)
HIGH = st.one_of(st.floats(60.0, 200.0), st.integers(60, 200), ANY_FLOAT)
# Keys a config may leave out
OPTIONAL = {"resource_unit", "max_method", "mean_demand", "max_demand", "quantile",
            "satisfaction", "seed", "clamp_demand_to_agreed"}


@st.composite
def mappings(draw, keys, typed):
    """``keys`` with values of their type (``typed`` per key, else NUMBER);
    an optional key half the time."""
    return {key: draw(typed.get(key, NUMBER)) for key in keys
            if key not in OPTIONAL or draw(st.booleans())}


TYPED = {
    **dict.fromkeys(["lower", "mean_demand", "mu"], LOW),
    **dict.fromkeys(["upper", "max_demand", "r_agreed"], HIGH),
    **dict.fromkeys(["quantile", "x_percent"], st.floats(0.0, 1.0)),
    "values": st.lists(NUMBER, min_size=2, max_size=5),
    "accounts": st.lists(mappings(ACCOUNT_KEYS, {"name": st.text(min_size=1, max_size=3)}),
                         min_size=1, max_size=3),
    "resource_unit": st.text(max_size=3),
    "max_method": st.sampled_from([*MAX_METHODS, ""]),
    "steps": st.integers(1, 5),
    "replications": st.integers(1, 3),
    "seed": st.integers(0, 2**64 - 1),
    "clamp_demand_to_agreed": st.booleans(),
}


@st.composite
def sections(draw, name):
    """A section with all its keys (those of one kind for demand and policy)."""
    if name not in KIND_KEYS:
        return draw(mappings(SECTION_KEYS[name], TYPED))
    kind = draw(st.sampled_from(KINDS[name]))
    keys = ["kind", "resource_unit"] if name == "demand" else ["kind"]
    return draw(mappings(keys + KIND_KEYS[name].get(kind, []), {**TYPED, "kind": st.just(kind)}))


@st.composite
def documents(draw):
    """A config document: some of the sections, each complete and typed, then
    a few keys anywhere removed or set to any value. Rarely any value at all."""
    if draw(st.sampled_from([False] * 19 + [True])):
        return draw(VALUES)
    document = {name: draw(sections(name)) for name in (*KIND_KEYS, *SECTION_KEYS)
                if draw(st.sampled_from([True] * 9 + [False]))}
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        mappings_in = [document, *(v for v in document.values() if isinstance(v, dict))]
        target = draw(st.sampled_from(mappings_in))
        if target and draw(st.booleans()):
            del target[draw(st.sampled_from(list(target)))]
        else:
            target[draw(KEYS)] = draw(VALUES | WORDS)
    return document


def is_short(document):
    """Whether the document's simulation, if any, is short enough to run
    here (a long one is no error)."""
    sim = document.get("simulation") if isinstance(document, dict) else None
    if not isinstance(sim, dict):
        return True
    return all(not isinstance(sim.get(key), int) or sim[key] <= 50
               for key in ("steps", "replications"))


def complete(**sections):
    """A document with every section, ``sections`` replacing the defaults."""
    return {
        "demand": {"kind": "uniform", "lower": 0, "upper": 80},
        "stats": {"r_agreed": 100},
        "rates": {"c_en": 1.5, "c_co2": 0.5, "c_viol": 1.0},
        "policy": {"kind": "balance"},
        "simulation": {"steps": 5, "replications": 2, "energy_full": 2.0,
                       "carbon_intensity": 0.5},
        "market": {"price_per_kg": 0.01,
                   "accounts": [{"name": "a", "cap_kg": 1.0, "emissions_kg": 2.0}]},
    } | sections


# Each example writes into a new directory under tmp_path, so that no
# example reads another's files. The pinned examples once failed; a pin
# keeps them checked whatever the generated draws are.
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(documents())
@example(document=complete(
    demand={"kind": "empirical", "values": [0, 2.68e154]},
    stats={"max_method": "mean_plus_variance", "r_agreed": 100},
))
@example(document=complete(
    demand={"kind": "empirical", "values": [1e308, 1.7e308]}, stats={"r_agreed": 1.7e308},
))
@example(document=complete(demand={"kind": "lognormal", "mu_log": 709, "sigma_log": 1}))
@example(document=complete(market={
    "price_per_kg": -0.01, "accounts": [{"name": "a", "cap_kg": 1.0, "emissions_kg": 2.0}],
}))
def test_any_document_fails_only_with_a_config_error(tmp_path, document):
    try:
        parsed = parse_document(document)
        parsed.stats()
        build_scenario(parsed)
    except ConfigError:
        pass
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    path = directory / "scenario.yaml"
    path.write_text(yaml.safe_dump(document, sort_keys=False), encoding="utf-8")
    commands = ["balance", "etm"] + (["simulate"] if is_short(document) else [])
    for command in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--output", str(directory / "out")])
        assert code in (0, 1, 2)
        assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue()
    for output in (directory / "out").glob("*.json"):
        json.loads(output.read_text(encoding="utf-8"), parse_constant=refuse_constant)


def refuse_constant(name):
    raise AssertionError(f"{name} in a JSON output")


# -- raw config files ---------------------------------------------------------

# Every subcommand, each kept small: a few steps, a two-cell sweep.
RAW_COMMANDS = [
    ["balance"], ["etm"], ["simulate", "--steps", "3"], ["sweep", "--param", "c_en=1:2:2"],
]


@st.composite
def mutated_documents(draw):
    """A document of complete, typed sections written as YAML or JSON, then
    up to three bytes replaced, inserted or deleted."""
    document = complete(simulation={"steps": 5, "replications": 2, "seed": 7,
                                    "energy_full": 2.0, "carbon_intensity": 0.5})
    for name in (*KIND_KEYS, *SECTION_KEYS):
        if draw(st.booleans()):
            document[name] = draw(sections(name))
    dump = draw(st.sampled_from([yaml.safe_dump, json.dumps]))
    data = bytearray(dump(document).encode("utf-8"))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.binary(min_size=1, max_size=1))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        data[at:at + (edit != "insert")] = b"" if edit == "delete" else byte
    return bytes(data)


RAW_FILES = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200).map(lambda text: text.encode("utf-8")),
    mutated_documents(),
)


# Each example writes into a new directory under tmp_path, as above; the
# pinned examples once failed.
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(RAW_FILES)
@example(data=b'"a\\nb": 1\n')
@example(data=b'market: {price_per_kg: 0, accounts: [{name: "\\ud800\\udc00", cap_kg: 0, '
              b'emissions_kg: 0}]}\n')
def test_any_file_fails_only_with_a_one_line_error(tmp_path, data):
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    path = directory / "scenario.yaml"
    path.write_bytes(data)
    for command in RAW_COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command[0], str(path), *command[1:], "--output", str(directory / "out")])
        assert code in (0, 1, 2)
        assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue()


# -- YAML 1.1 scalars ---------------------------------------------------------

# Scalars PyYAML resolves (or is told by a tag) to build as a type but cannot
# build, and an integer beyond the float range; each once gave a traceback.
# Each maps to its tag and the error PyYAML raises building it (None for the
# integer); the test puts it at stats.mean_demand.
UNBUILDABLE = {
    "2001-02-29": "timestamp: ValueError(",
    "0x_": "int: ValueError(",
    '!!float ""': "float: IndexError(",
    '!!int "_"': "int: IndexError(",
    '!!bool ""': "bool: KeyError(",
    '!!timestamp "x"': "timestamp: AttributeError(",
    "1" * 401: None,
}
SCALAR = "SCALAR_UNDER_TEST"
SCALAR_HOST = complete(stats={"r_agreed": 100, "mean_demand": SCALAR, "max_demand": 80})


@pytest.mark.parametrize("command", RAW_COMMANDS, ids=[c[0] for c in RAW_COMMANDS])
@pytest.mark.parametrize("text, problem", UNBUILDABLE.items(),
                         ids=["date", "hex", "float", "int", "bool", "timestamp", "digits"])
def test_unbuildable_scalar_is_one_config_error(tmp_path, capsys, command, text, problem):
    config = yaml.safe_dump(SCALAR_HOST, sort_keys=False).replace(SCALAR, text)
    path = write_config(tmp_path, config)
    assert main([command[0], path, *command[1:], "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    if problem is None:  # an integer beyond the float range
        assert err == "config error: invalid value at stats.mean_demand: must be finite\n"
    else:  # at the scalar's line and column
        assert err.startswith("config error: invalid value at config: not parseable "
                              f"(cannot construct tag:yaml.org,2002:{problem}")
        assert err.endswith(f'in "{path}", line 7, column 16)\n')


def leaf_paths(value, path=()):
    """The key path of every scalar in a document."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from leaf_paths(item, (*path, key))
    else:
        yield path


SCALAR_PATHS = list(leaf_paths(complete()))
# YAML 1.1 scalars as PyYAML's Resolver reads them (https://yaml.org/type/),
# valid and broken: ints in bases 2, 8, 10, 16 and 60 with underscores,
# floats, bools, nulls and timestamps
IMPLICIT = st.one_of(
    st.from_regex(r"[-+]?0b[01_]*", fullmatch=True),
    st.from_regex(r"[-+]?0[0-7_]*", fullmatch=True),
    st.from_regex(r"[-+]?(0|[1-9][0-9_]*)", fullmatch=True),
    st.from_regex(r"[-+]?0x[0-9a-fA-F_]*", fullmatch=True),
    st.from_regex(r"[-+]?[1-9][0-9_]*(:[0-5]?[0-9])+(\.[0-9_]*)?", fullmatch=True),
    st.from_regex(r"[-+]?([0-9][0-9_]*)?\.[0-9_]*([eE][-+][0-9]+)?", fullmatch=True),
    st.sampled_from(["~", "null", "NULL", "", ".inf", "-.Inf", "+.INF", ".nan", ".NaN",
                     "yes", "No", "TRUE", "false", "on", "OFF", "y", "n"]),
    st.from_regex(r"[0-9]{4}-[0-9]{1,2}-[0-9]{1,2}", fullmatch=True),
    st.from_regex(r"[0-9]{4}-[0-9]{1,2}-[0-9]{1,2}([Tt]|[ \t]+)[0-9]{1,2}:[0-9]{2}:[0-9]{2}"
                  r"(\.[0-9]*)?([ \t]*(Z|[-+][0-9]{1,2}(:[0-9]{2})?))?", fullmatch=True),
)
TAGS = ["!!int", "!!float", "!!bool", "!!null", "!!timestamp", "!!binary", "!!set", "!!omap",
        "!!pairs"]
# The explicit tags on any text, written as a double-quoted scalar, and
# integers of up to 400 digits
SCALAR_TEXTS = st.one_of(
    IMPLICIT,
    st.builds(lambda tag, text: f"{tag} {json.dumps(text)}", st.sampled_from(TAGS),
              IMPLICIT | st.text(max_size=8)),
    st.integers(-(10**400) + 1, 10**400 - 1).map(str),
)


def with_scalar(path, text, as_key):
    """complete() as YAML with ``text`` as the value at ``path``, or as the
    key there in place of the last key of ``path``."""
    document = complete()
    *parents, last = path
    parent = document
    for key in parents:
        parent = parent[key]
    if as_key and isinstance(last, str):
        replaced = {SCALAR if key == last else key: value for key, value in parent.items()}
        parent.clear()
        parent.update(replaced)
    else:
        parent[last] = SCALAR
    return yaml.safe_dump(document, sort_keys=False).replace(SCALAR, text)


# Each example writes into a new directory under tmp_path, as above; the
# pinned examples once gave a traceback.
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(SCALAR_PATHS), SCALAR_TEXTS, st.booleans())
@example(path=("stats", "r_agreed"), text="2001-02-29", as_key=False)
@example(path=("stats", "r_agreed"), text="2001-02-29", as_key=True)
@example(path=("stats", "r_agreed"), text="0x_", as_key=False)
@example(path=("rates", "c_en"), text='!!float ""', as_key=False)
@example(path=("simulation", "steps"), text='!!int "_"', as_key=False)
@example(path=("market", "accounts", 0, "name"), text='!!bool ""', as_key=False)
@example(path=("demand", "upper"), text='!!timestamp "x"', as_key=False)
@example(path=("stats", "r_agreed"), text="1" * 401, as_key=False)
@example(path=("demand", "kind"), text='!!set "~"', as_key=True)
def test_any_yaml_scalar_anywhere_fails_only_with_a_one_line_error(tmp_path, path, text,
                                                                   as_key):
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    config = directory / "scenario.yaml"
    config.write_text(with_scalar(path, text, as_key), encoding="utf-8")
    for command in RAW_COMMANDS:
        if command[0] == "simulate" and path[-1] == "replications":
            continue  # a long simulation is no error
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command[0], str(config), *command[1:],
                         "--output", str(directory / "out")])
        assert code in (0, 1, 2)
        assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue()
