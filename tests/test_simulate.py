"""Monte Carlo policy simulation: accounting identities, determinism,
statistical agreement with the demand model, and policy comparison."""

import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from greenprov import (
    CostRates,
    DemandStats,
    InvalidScenario,
    NonFiniteResult,
    Policy,
    PolicyUnresolvable,
    Scenario,
    balance_closed_form,
    balance_numeric,
    compare_policies,
    empirical_optimum,
    heuristic_band,
    make_profile,
    realized_cost,
    resolve_policy,
    run_simulation,
)
from greenprov import balance, simulate
from greenprov.simulate import _CHUNK, _replication_rng


def trace_demand(trace):
    """Every demand draw of a trace, in replication and step order."""
    return np.concatenate([block.demand for block in trace])


@pytest.fixture
def stats():
    return DemandStats(mean_demand=40.0, max_demand=80.0, r_agreed=100.0)


@pytest.fixture
def rates():
    return CostRates(c_en=1.5, c_co2=0.5, c_viol=1.0)


@pytest.fixture
def scenario(stats, rates):
    return Scenario(
        profile=make_profile("uniform", [0, 80]),
        stats=stats,
        rates=rates,
        policy=Policy.balance(),
        steps=2000,
        replications=3,
        seed=42,
        energy_full=2.0,
        carbon_intensity=0.5,
    )


class TestPolicy:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidScenario):
            Policy("surge_pricing")

    def test_band_needs_fraction(self):
        with pytest.raises(InvalidScenario):
            Policy.balance_band(1.0)
        with pytest.raises(InvalidScenario):
            Policy.balance_band(-0.1)
        with pytest.raises(InvalidScenario):
            Policy("balance_band")

    def test_fixed_level_needs_nonnegative_level(self):
        with pytest.raises(InvalidScenario):
            Policy.fixed_level(-5.0)
        with pytest.raises(InvalidScenario):
            Policy("fixed_level")

    def test_labels(self):
        assert Policy.fixed_agreed().label == "fixed_agreed"
        assert Policy.balance_band(0.1).label == "balance_band(0.1)"
        assert Policy.fixed_level(50).label == "fixed_level(50)"


class TestResolvePolicy:
    def test_fixed_agreed_is_the_agreement(self, stats, rates):
        assert resolve_policy(Policy.fixed_agreed(), stats, rates) == 100.0

    def test_mean_follow_is_the_mean(self, stats, rates):
        assert resolve_policy(Policy.mean_follow(), stats, rates) == 40.0

    def test_fixed_level_clamped_to_agreement(self, stats, rates):
        assert resolve_policy(Policy.fixed_level(250), stats, rates) == 100.0
        assert resolve_policy(Policy.fixed_level(30), stats, rates) == 30.0

    def test_balance_uses_closed_form(self, stats, rates):
        expected = balance_closed_form(stats, rates).r_provisioned
        assert resolve_policy(Policy.balance(), stats, rates) == expected

    def test_balance_with_surcharge_uses_numeric(self, stats):
        # the surcharged balance is the closed form too; bisection cross-checks it
        rates = CostRates(2.0, 0.0, 1.0, satisfaction=0.2)
        level = resolve_policy(Policy.balance(), stats, rates)
        assert level == balance_closed_form(stats, rates).r_provisioned
        assert abs(level - balance_numeric(stats, rates).r_provisioned) <= 1e-9 * stats.max_demand

    def test_balance_degenerate_raises(self, stats):
        for policy in (Policy.balance(), Policy.balance_band(0.1)):
            with pytest.raises(PolicyUnresolvable):
                resolve_policy(policy, stats, CostRates(0, 0, 0))

    def test_band_solves_the_balance_once(self, stats, rates, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return balance_closed_form(*args)

        monkeypatch.setattr(simulate, "balance_closed_form", counting)
        resolve_policy(Policy.balance_band(0.1), stats, rates)
        assert len(calls) == 1

    def test_band_level_sits_inside_band(self, stats, rates):
        result = balance_closed_form(stats, rates)
        for x in (0.0, 0.05, 0.1, 0.5):
            lo, hi = heuristic_band(result, x, stats)
            level = resolve_policy(Policy.balance_band(x), stats, rates)
            assert lo <= level <= hi

    def test_band_picks_nearest_edge(self, stats, rates):
        # the balance sits at the band center, so ties go to the low edge
        result = balance_closed_form(stats, rates)
        level = resolve_policy(Policy.balance_band(0.1), stats, rates)
        assert level == pytest.approx(result.r_provisioned * 0.9)

    def test_band_takes_low_edge_unless_high_edge_is_cut(self, stats, rates):
        # balance 14400 / 260 = 55.3846...: the band is symmetric about it,
        # so the low edge r(1 - x), whatever rounding says about distances,
        # until r(1 + x) passes r_agreed and the cut edge 100 is nearer
        def level(x):
            return resolve_policy(Policy.balance_band(x), stats, rates)

        assert level(0.5) == pytest.approx(7200 / 260)  # 27.69...
        assert level(0.8) == pytest.approx(2880 / 260)  # 11.07..., not 99.69...
        assert level(0.9) == 100.0


class TestScenarioValidation:
    def test_counts_must_be_positive(self, scenario):
        with pytest.raises(InvalidScenario):
            replace(scenario, steps=0)
        with pytest.raises(InvalidScenario):
            replace(scenario, replications=0)

    def test_seed_u64(self, scenario):
        with pytest.raises(InvalidScenario):
            replace(scenario, seed=-1)
        with pytest.raises(InvalidScenario):
            replace(scenario, seed=2**64)
        replace(scenario, seed=2**64 - 1)

    def test_physical_rates_nonnegative(self, scenario):
        with pytest.raises(InvalidScenario):
            replace(scenario, energy_full=-1.0)
        with pytest.raises(InvalidScenario):
            replace(scenario, carbon_intensity=-0.5)


class TestRunSimulation:
    def test_provisioning_at_support_max_never_violates(self, scenario):
        report = run_simulation(replace(scenario, policy=Policy.fixed_level(80)))
        assert report.violation_count == 0
        assert report.violation_frequency == 0.0
        assert report.total_penalty_cost == 0.0

    def test_deterministic_given_seed(self, scenario):
        a = run_simulation(scenario)
        b = run_simulation(scenario)
        assert a.aggregate_dict() == b.aggregate_dict()

    def test_different_seeds_differ(self, scenario):
        a = run_simulation(scenario)
        b = run_simulation(replace(scenario, seed=43))
        assert a.total_wastage_cost != b.total_wastage_cost

    def test_violation_frequency_definition(self, scenario):
        report = run_simulation(scenario)
        total = scenario.steps * scenario.replications
        assert report.violation_frequency == report.violation_count / total
        assert report.total_penalty_cost == report.violation_count * 1.0

    def test_energy_and_emission_identities(self, scenario):
        report = run_simulation(replace(scenario, policy=Policy.fixed_level(50)))
        total = scenario.steps * scenario.replications
        assert report.total_energy_kwh == pytest.approx(0.5 * 2.0 * total)
        assert report.total_emissions_kg == report.total_energy_kwh * 0.5
        assert report.energy_saved_kwh == pytest.approx(2.0 * total - report.total_energy_kwh)
        assert report.total_energy_use_cost == pytest.approx(0.5 * 1.5 * total)
        assert report.total_co2_use_cost == pytest.approx(0.5 * 0.5 * total)

    def test_seed_and_scenario_echo(self, scenario):
        report = run_simulation(scenario)
        assert report.seed == 42
        assert report.scenario == scenario

    def test_monetary_aggregates_nonnegative_below_mean(self, scenario):
        # provisioning below mean demand: the linear model's wastage term
        # is floored at zero rather than going negative
        report = run_simulation(replace(scenario, policy=Policy.fixed_level(20)))
        assert report.total_expected_model_cost >= 0.0
        assert report.total_wastage_cost >= 0.0
        for value in report.aggregate_dict().values():
            assert value >= 0.0

    def test_model_cost_formula(self, scenario):
        report = run_simulation(replace(scenario, policy=Policy.fixed_level(60)))
        total = scenario.steps * scenario.replications
        per_step = (60 - 40) / 100 * 2.0 + (1 - 60 / 80) * 1.0
        assert report.total_expected_model_cost == pytest.approx(per_step * total)

    def test_model_and_tail_probabilities_both_reported(self, scenario):
        report = run_simulation(replace(scenario, policy=Policy.fixed_level(60)))
        assert report.model_violation_probability == pytest.approx(0.25)
        # uniform demand anchored at zero: the linear model is the true tail
        assert report.tail_violation_probability == pytest.approx(0.25)

    def test_tail_differs_from_model_for_bell_demand(self, rates):
        profile = make_profile("truncated_normal", [50, 10, 0, 100])
        stats = DemandStats(profile.mean(), 100.0, 100.0)
        scenario = Scenario(
            profile=profile, stats=stats, rates=rates,
            policy=Policy.fixed_level(70), steps=50_000, replications=1,
            seed=9, energy_full=2.0, carbon_intensity=0.5,
        )
        report = run_simulation(scenario)
        # realized frequency tracks the true tail (~0.023 here), not the
        # linear model's 0.3
        p = profile.tail_probability(70.0)
        bound = 3.0 * math.sqrt(p * (1 - p) / 50_000)
        assert abs(report.violation_frequency - p) <= bound
        assert abs(report.model_violation_probability - p) > 10 * bound

    def test_violation_count_matches_the_tail_on_random_profiles(self, rates):
        # Profiles come from a seeded random.Random, not hypothesis, so the
        # same 200 are drawn however the suite is collected.
        rng = random.Random(5_2026)
        families = {"uniform": 0, "truncated_normal": 0, "lognormal": 0, "empirical": 0}
        clamped = 0
        for i in range(200):
            kind = list(families)[i % 4]
            if kind == "uniform":
                lower = rng.uniform(0, 50)
                params = [lower, lower + rng.uniform(1, 100)]
            elif kind == "truncated_normal":
                lower = rng.uniform(0, 30)
                upper = lower + rng.uniform(5, 100)
                sigma = rng.uniform(1, 40)
                params = [rng.uniform(lower - 2 * sigma, upper + 2 * sigma), sigma, lower, upper]
            elif kind == "lognormal":
                params = [rng.uniform(1, 4), rng.uniform(0.1, 1)]
                if rng.random() < 0.5:
                    params.append(math.exp(params[0] + rng.uniform(0, 2) * params[1]))
            else:
                params = [round(rng.uniform(0, 100), 2) for _ in range(rng.randint(2, 30))]
            profile = make_profile(kind, params)
            # a clamped run agrees on less than the demand can reach
            clamp = rng.random() < 0.3
            agreed = profile.quantile(rng.uniform(0.5, 0.95) if clamp else 0.999)
            level = min(profile.quantile(rng.uniform(0.01, 0.99)), agreed)
            scenario = Scenario(
                profile=profile, stats=DemandStats(0.5 * agreed, agreed, agreed),
                rates=rates, policy=Policy.fixed_level(level),
                steps=rng.randint(1000, 10_000), replications=rng.randint(1, 3),
                seed=rng.getrandbits(64), energy_full=1.0, carbon_intensity=0.5,
                clamp_demand_to_agreed=clamp,
            )
            report = run_simulation(scenario)
            n = scenario.steps * scenario.replications
            p = report.tail_violation_probability
            bound = 5.0 * math.sqrt(n * p * (1.0 - p)) + 1.0  # one count where p is near 0 or 1
            assert abs(report.violation_count - n * p) <= bound, (kind, params, clamp, level)
            families[kind] += 1
            clamped += clamp
        assert min(families.values()) == 50 and clamped > 20

    def test_trace_forced_on_and_off(self, scenario):
        assert run_simulation(scenario, trace=True).trace is not None
        assert run_simulation(scenario, trace=False).trace is None
        assert run_simulation(scenario).trace is None

    @pytest.mark.parametrize("steps", [1, _CHUNK, _CHUNK + 1])
    def test_trace_blocks_cover_every_step_in_order(self, scenario, steps):
        run = replace(scenario, steps=steps)
        blocks = list(run_simulation(run, trace=True).trace)
        assert [(b.replication, b.first_step) for b in blocks] == [
            (rep, start) for rep in range(3) for start in range(0, steps, _CHUNK)
        ]
        assert [len(b.demand) for b in blocks] == [
            min(_CHUNK, steps - b.first_step) for b in blocks
        ]

    def test_trace_is_redrawn_on_every_iteration(self, scenario):
        trace = run_simulation(scenario, trace=True).trace
        assert np.array_equal(trace_demand(trace), trace_demand(trace))

    def test_trace_sums_match_aggregates(self, scenario):
        report = run_simulation(scenario, trace=True)
        demand, level = trace_demand(report.trace), report.provision_level
        violation = demand > level
        wasted = np.maximum(level - demand, 0.0)
        wastage_cost = wasted / scenario.stats.r_agreed * scenario.rates.c_provision
        penalty_cost = np.where(violation, scenario.rates.c_viol, 0.0)
        assert int(np.count_nonzero(violation)) == report.violation_count
        assert float(wastage_cost.sum()) == pytest.approx(report.total_wastage_cost)
        assert float(penalty_cost.sum()) == pytest.approx(report.total_penalty_cost)

    def test_replications_are_distinct_streams(self, scenario):
        report = run_simulation(replace(scenario, replications=2), trace=True)
        first, second = report.trace
        assert (first.replication, second.replication) == (0, 1)
        assert not np.array_equal(first.demand, second.demand)

    def test_clamped_demand_never_violates_full_provisioning(self, rates):
        profile = make_profile("uniform", [0, 120])
        stats = DemandStats(mean_demand=60.0, max_demand=100.0, r_agreed=100.0)
        scenario = Scenario(
            profile=profile, stats=stats, rates=rates,
            policy=Policy.fixed_agreed(), steps=5000, replications=1,
            seed=4, energy_full=2.0, carbon_intensity=0.5,
            clamp_demand_to_agreed=True,
        )
        report = run_simulation(scenario, trace=True)
        assert report.violation_count == 0
        assert report.tail_violation_probability == 0.0
        demand = trace_demand(report.trace)
        assert float(demand.max()) == 100.0  # a fifth of the draws are cut

    def test_untraced_memory_independent_of_steps(self, scenario):
        # one replication's 2e6 draws take 16 MB as a single array;
        # chunked evaluation holds a few chunks at a time.
        big = replace(scenario, steps=2_000_000, replications=2)
        tracemalloc.start()
        try:
            run_simulation(big, trace=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_traced_memory_independent_of_steps(self, scenario):
        big = replace(scenario, steps=1_000_000, replications=2)
        tracemalloc.start()
        try:
            report = run_simulation(big, trace=True)
            draws = sum(len(block.demand) for block in report.trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert draws == 2_000_000
        assert peak < 8 * 2**20

    def test_overflowing_total_raises_without_a_warning(self, rates):
        # sum(level - demand) overflows a float: the pass's NaN total must
        # neither warn (warnings are errors here) nor reach the report
        scenario = Scenario(
            profile=make_profile("uniform", [0, 1.6e308]),
            stats=DemandStats(0.8e308, 1.6e308, 1.7e308), rates=rates,
            policy=Policy.fixed_level(1.57e308), steps=400, replications=2,
            seed=42, energy_full=2.0, carbon_intensity=0.5,
        )
        with pytest.raises(NonFiniteResult, match="^simulated total_wastage_cost is nan"):
            run_simulation(scenario)
        comparison = compare_policies(
            scenario, [Policy.fixed_level(1.57e308), Policy.fixed_level(0.0)]
        )
        bad, good = comparison.runs
        assert bad.report is None and bad.error.startswith("simulated total_wastage_cost")
        assert good.error is None and good.report.violation_count == 800
        assert comparison.ranking == ("fixed_level(0)",)
        # a NaN cost is not ranked, whichever grid place it has
        for grid in ([1.57e308, 0.0], [0.0, 1.57e308]):
            with pytest.raises(NonFiniteResult, match="^simulated cost at level 1.57e"):
                empirical_optimum(scenario, grid)


class TestEmpiricalOptimum:
    def test_singleton_grid(self, scenario, stats, rates):
        r_balance = balance_closed_form(stats, rates).r_provisioned
        found = empirical_optimum(scenario, [r_balance])
        assert found.r_star == r_balance
        assert found.balance_gap == 0.0

    def test_no_balance_leaves_the_gap_out(self, scenario):
        # with all three prices 0 no balance exists; the search still runs
        free = replace(scenario, rates=CostRates(0.0, 0.0, 0.0), policy=Policy.fixed_level(30.0))
        found = empirical_optimum(free, [30.0, 60.0])
        assert (found.r_star, found.costs, found.balance_gap) == (30.0, (0.0, 0.0), None)

    def test_zero_grid_forces_every_violation(self, rates):
        profile = make_profile("uniform", [10, 80])  # demand strictly positive
        stats = DemandStats(45.0, 80.0, 100.0)
        scenario = Scenario(
            profile=profile, stats=stats, rates=rates,
            policy=Policy.balance(), steps=400, replications=2,
            seed=21, energy_full=2.0, carbon_intensity=0.5,
        )
        found = empirical_optimum(scenario, [0.0])
        assert found.cost == 400 * 2 * rates.c_viol

    def test_uniform_grid_matches_analytic_curve(self, scenario):
        """For uniform demand on [0,80] the analytic per-step cost at a
        fixed level g is g^2/8000 - g/80 + 1 (with c_en+c_co2=2, c_viol=1,
        r_agreed=100), minimized over {0,10,...,80} at g=50."""
        grid = [float(g) for g in range(0, 90, 10)]
        curve = {g: g * g / 8000 - g / 80 + 1 for g in grid}
        assert min(curve, key=curve.get) == 50.0
        bigger = replace(scenario, steps=10_000, replications=2)
        found = empirical_optimum(bigger, grid)
        assert found.r_star == 50.0
        per_step = found.cost / (10_000 * 2)
        assert per_step == pytest.approx(curve[50.0], abs=0.02)

    def test_costs_use_common_random_numbers(self, scenario):
        found = empirical_optimum(scenario, [30.0, 30.0])
        assert found.costs[0] == found.costs[1]
        assert found.r_star == 30.0  # tie resolves to the first entry

    def test_grid_validation(self, scenario):
        with pytest.raises(ValueError):
            empirical_optimum(scenario, [])
        with pytest.raises(ValueError):
            empirical_optimum(scenario, [150.0])


def reference_costs(scenario, grid):
    """Realized cost per grid level, one level at a time over whole streams:
    the evaluation the one-pass kernel replaced."""
    rates, agreed = scenario.rates, scenario.stats.r_agreed
    costs = [0.0] * len(grid)
    for rep in range(scenario.replications):
        demand = scenario.profile.sample_many(
            _replication_rng(scenario.seed, rep), scenario.steps
        )
        if scenario.clamp_demand_to_agreed:
            demand = np.minimum(demand, agreed)
        for i, g in enumerate(grid):
            wasted = float(np.sum(np.maximum(g - demand, 0.0)))
            costs[i] += (wasted / agreed * rates.c_provision
                         + int(np.count_nonzero(demand > g)) * rates.c_viol)
    return costs


class TestOnePassKernel:
    GRID = [float(g) for g in range(0, 101, 5)]

    @pytest.mark.parametrize(
        "profile, clamp, steps",
        [
            (make_profile("uniform", [0, 80]), False, 2000),
            (make_profile("truncated_normal", [50, 10, 0, 100]), False, 2000),
            # every draw ties with some grid level
            (make_profile("empirical", [10, 20, 20, 35, 50, 80]), False, 2000),
            (make_profile("uniform", [0, 120]), True, 2000),
            (make_profile("uniform", [0, 80]), False, _CHUNK - 1),
            (make_profile("uniform", [0, 80]), False, _CHUNK),
            (make_profile("uniform", [0, 80]), False, 2 * _CHUNK + 1),
        ],
        ids=["uniform", "truncnorm", "ties", "clamped", "chunk-1", "chunk", "2chunk+1"],
    )
    def test_grid_costs_match_per_level_reference(self, scenario, profile, clamp, steps):
        run = replace(
            scenario, profile=profile, clamp_demand_to_agreed=clamp,
            steps=steps, replications=2,
        )
        found = empirical_optimum(run, self.GRID)
        assert list(found.costs) == pytest.approx(reference_costs(run, self.GRID), rel=1e-9)

    def test_comparison_matches_single_runs(self, scenario):
        policies = [
            Policy.fixed_agreed(), Policy.mean_follow(), Policy.balance(),
            Policy.balance_band(0.2), Policy.fixed_level(55),
        ]
        comparison = compare_policies(scenario, policies)
        for policy, run in zip(policies, comparison.runs):
            solo = run_simulation(replace(scenario, policy=policy), trace=False)
            assert run.report.aggregate_dict() == solo.aggregate_dict()


def drawn_demand(scenario):
    """Every draw of the run, from sample_many over the replication streams."""
    draws = []
    for rep in range(scenario.replications):
        demand = scenario.profile.sample_many(
            _replication_rng(scenario.seed, rep), scenario.steps
        )
        if scenario.clamp_demand_to_agreed:
            demand = np.minimum(demand, scenario.stats.r_agreed)
        draws.append(demand)
    return np.concatenate(draws)


def exact_wasted(demand, g):
    """sum(g - d) over the draws d <= g, as an exact Fraction."""
    values, counts = np.unique(demand[demand <= g], return_counts=True)
    return sum(
        (Fraction(g) - Fraction(v)) * int(c) for v, c in zip(values.tolist(), counts.tolist())
    )


class TestEmpiricalTally:
    """Empirical demand is counted per observation instead of sorted per chunk."""

    LEVELS = [0.0, 1e-9, 5.0, 12.5, 20.0, 40.0, 61.0, 77.25, 99.9, 100.0]
    PROFILES = {
        "plain": ([3.0, 12.5, 40.0, 61.0, 77.25, 99.9], False),
        "negative-zero": ([-0.0, 0.0, 12.5, 40.0, 1e-9, 77.25], False),
        "duplicates": ([20.0, 20.0, 20.0, 40.0, 40.0, 99.9, 5.0], False),
        # the observations of the clamped trace test, two of them above r_agreed
        "clamped": ([-0.0, 12.5, 40.0, 77.25, 99.9, 130.0, 1.0e-9], True),
    }

    def run(self, scenario, name, steps):
        values, clamp = self.PROFILES[name]
        return replace(
            scenario, profile=make_profile("empirical", values),
            clamp_demand_to_agreed=clamp, steps=steps, replications=3,
        )

    @pytest.mark.parametrize("steps", [1, _CHUNK, _CHUNK + 1])
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_violations_match_a_count_of_the_draws(self, scenario, name, steps):
        run = self.run(scenario, name, steps)
        demand = drawn_demand(run)
        # the second evaluation of the same object reuses its counts
        for levels in (self.LEVELS, [99.95, 40.0, 2.5, 40.0, 0.5]):
            violations, wasted = simulate._evaluate(run, levels)
            assert violations.tolist() == [int(np.count_nonzero(demand > g)) for g in levels]
            for g, total in zip(levels, wasted.tolist()):
                assert total == pytest.approx(float(exact_wasted(demand, g)), rel=1e-13, abs=0.0)

    def test_one_scenario_draws_its_demand_once(self, scenario, monkeypatch):
        run = self.run(scenario, "plain", 1000)
        opened = []

        def counting_rng(seed, index):
            opened.append(index)
            return _replication_rng(seed, index)

        monkeypatch.setattr(simulate, "_replication_rng", counting_rng)
        empirical_optimum(run, self.LEVELS)
        compare_policies(run, [Policy.fixed_agreed(), Policy.balance(), Policy.fixed_level(40.0)])
        run_simulation(run)
        assert opened == list(range(run.replications))

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 7},
            {"steps": _CHUNK + 1},
            {"replications": 1},
            {"profile": make_profile("empirical", [9.0, 1.0, 2.0, 2.0])},
        ],
        ids=["seed", "steps", "replications", "profile"],
    )
    def test_counts_follow_a_replaced_scenario(self, scenario, change):
        run = self.run(scenario, "duplicates", 1000)
        for current in (run, replace(run, **change)):
            counts = current._draw_counts
            values = np.asarray(current.profile.values)
            demand = drawn_demand(current)
            assert counts.sum() == current.steps * current.replications
            for v in np.unique(values):
                assert counts[values == v].sum() == np.count_nonzero(demand == v)

    def test_counts_are_read_only(self, scenario):
        counts = self.run(scenario, "plain", 10)._draw_counts
        with pytest.raises(ValueError):
            counts[0] = 1

    @pytest.mark.parametrize("seed", [5, 2101, 77])
    def test_wasted_totals_are_no_further_from_exact_than_sorted_chunks(self, scenario, seed):
        observed = np.random.default_rng(seed).gamma(4.0, 12.0, 300)
        agreed = float(observed.max())
        run = replace(
            scenario, profile=make_profile("empirical", observed.tolist()),
            stats=DemandStats(float(observed.mean()), agreed, agreed),
            steps=_CHUNK + 1, replications=3, seed=seed,
        )
        levels = [agreed * i / 20 for i in range(1, 21)]
        demand = drawn_demand(run)
        exact = [exact_wasted(demand, g) for g in levels]

        def worst(wasted):
            # relative error; an exact zero must come out as zero
            return max(
                abs(Fraction(w) - e) / e if e else Fraction(w != 0)
                for w, e in zip(wasted.tolist(), exact)
            )

        tally_violations, tally = simulate._evaluate(run, levels)
        chunk_violations, chunks = simulate._score_chunks(run, np.asarray(levels))
        assert tally_violations.tolist() == chunk_violations.tolist()
        assert worst(tally) <= 1e-13
        assert worst(tally) <= worst(chunks)

    def test_memory_independent_of_steps(self, scenario):
        big = replace(
            scenario, profile=make_profile("empirical", [10.0, 20.0, 35.0, 80.0]),
            steps=2_000_000, replications=2,
        )
        tracemalloc.start()
        try:
            run_simulation(big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_overflowing_total_raises_without_a_warning(self, rates):
        scenario = Scenario(
            profile=make_profile("empirical", [1.6e308, 1.65e308, 1.7e308]),
            stats=DemandStats(1.65e308, 1.7e308, 1.7e308), rates=rates,
            policy=Policy.fixed_level(1.7e308), steps=400, replications=2,
            seed=42, energy_full=2.0, carbon_intensity=0.5,
        )
        with pytest.raises(NonFiniteResult, match="^simulated total_wastage_cost is"):
            run_simulation(scenario)
        with pytest.raises(NonFiniteResult, match="^simulated cost at level 1.7e"):
            empirical_optimum(scenario, [0.0, 1.7e308])


class TestComparePolicies:
    def test_same_policy_twice_is_identical(self, scenario):
        comparison = compare_policies(scenario, [Policy.balance(), Policy.balance()])
        a, b = comparison.runs
        assert a.report.aggregate_dict() == b.report.aggregate_dict()

    @pytest.mark.parametrize("rates", [CostRates(1.5, 0.5, 1.0), CostRates(0, 0, 0)])
    def test_balance_solved_once_per_call(self, scenario, rates, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return balance_closed_form(*args)

        monkeypatch.setattr(simulate, "balance_closed_form", counted)
        policies = [Policy.balance(), Policy.balance_band(0.2), Policy.fixed_agreed()]
        run = replace(scenario, rates=rates)
        comparison = compare_policies(run, policies)
        assert [r.error is None for r in comparison.runs] == [rates.c_viol > 0] * 2 + [True]
        # a failed solve is retried, not cached
        assert len(calls) == (1 if rates.c_viol > 0 else 2)
        compare_policies(run, policies)
        assert len(calls) == (2 if rates.c_viol > 0 else 4)

    def test_full_vs_mean_provisioning(self, scenario):
        comparison = compare_policies(
            scenario, [Policy.fixed_agreed(), Policy.mean_follow()]
        )
        full, mean = comparison.runs
        assert mean.report.total_wastage_cost < full.report.total_wastage_cost
        assert full.report.violation_count < mean.report.violation_count
        assert full.report.violation_count == 0

    def test_ranking_orders_by_realized_cost(self, scenario):
        comparison = compare_policies(
            scenario,
            [Policy.fixed_agreed(), Policy.mean_follow(), Policy.balance()],
        )
        costs = {run.policy.label: run.cost for run in comparison.runs}
        ranked = list(comparison.ranking)
        assert ranked == sorted(costs, key=costs.get)

    def test_unresolvable_policy_recorded_not_fatal(self, scenario):
        broken = replace(scenario, rates=CostRates(0, 0, 0))
        comparison = compare_policies(broken, [Policy.balance(), Policy.fixed_agreed()])
        bad, good = comparison.runs
        assert bad.report is None and bad.error is not None
        assert good.report is not None
        assert comparison.ranking == ("fixed_agreed",)

    def test_realized_cost_helper(self, scenario):
        report = run_simulation(scenario)
        assert realized_cost(report) == report.total_wastage_cost + report.total_penalty_cost
