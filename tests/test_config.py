"""Strict YAML config parsing, seed precedence, and the scenario echo
round trip."""

import textwrap

import pytest

from greenprov import ConfigError, Policy, make_profile
from greenprov.cli import main
from greenprov.config import (
    build_scenario,
    load_config,
    parse_document,
    scenario_from_dict,
    scenario_to_dict,
)

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

    def test_yaml_syntax_error(self, tmp_path):
        path = write_config(tmp_path, "rates: {c_en: [\n")
        with pytest.raises(ConfigError):
            load_config(path)

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
        ]
        for i, doc in enumerate(documents):
            path = write_config(tmp_path, doc, name=f"rt_{i}.yaml")
            scenario = build_scenario(load_config(path))
            assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_echo_dict_is_strictly_parseable(self, full_config):
        scenario = build_scenario(load_config(full_config))
        echoed = scenario_to_dict(scenario)
        parse_document(echoed)  # no unknown-key complaints
        echoed["stats"]["surprise"] = 1
        with pytest.raises(ConfigError):
            parse_document(echoed)
