"""Cost model primitives and the equilibrium solvers.

The closed form is checked against a bisection oracle written inline from
the raw arithmetic (no calls into the package), so the two routes stay
independent.
"""

import itertools
import math

import numpy as np
import pytest

from greenprov import (
    BalanceResult,
    CostRates,
    DegenerateCosts,
    DemandStats,
    DomainError,
    InvalidRates,
    InvalidStats,
    NonzeroSatisfaction,
    NoRootInRange,
    balance_closed_form,
    balance_grid,
    balance_numeric,
    evaluate_balance_cell,
    expected_penalty,
    heuristic_band,
    sensitivity_sweep,
    solve_balance,
    violation_probability_linear,
    wastage_cost,
    wastage_fraction,
)


def oracle_balance(mean, peak, agreed, c_en, c_co2, c_viol, satisfaction=0.0):
    """Bisection on the raw cost gap, independent of the package."""

    def gap(r):
        wastage = (r - mean) / agreed * (c_en + c_co2)
        penalty = (1.0 - r / peak) * c_viol
        return wastage - penalty - satisfaction

    lo, hi = mean, peak
    assert gap(lo) <= 0.0 <= gap(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.fixture
def stats():
    return DemandStats(mean_demand=40.0, max_demand=80.0, r_agreed=100.0)


@pytest.fixture
def rates():
    return CostRates(c_en=1.5, c_co2=0.5, c_viol=1.0)


class TestCostRates:
    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(InvalidRates):
            CostRates(c_en=-1, c_co2=0, c_viol=0)
        with pytest.raises(InvalidRates):
            CostRates(c_en=0, c_co2=float("nan"), c_viol=0)
        with pytest.raises(InvalidRates):
            CostRates(c_en=0, c_co2=0, c_viol=float("inf"))
        with pytest.raises(InvalidRates):
            CostRates(c_en=0, c_co2=0, c_viol=0, satisfaction=-0.1)

    def test_provision_price_is_the_sum(self, rates):
        assert rates.c_provision == 2.0

    def test_all_zero_is_constructible(self):
        # degenerate rates only fail once a balance is requested
        CostRates(c_en=0, c_co2=0, c_viol=0)


class TestDemandStats:
    def test_ordering_enforced(self):
        with pytest.raises(InvalidStats):
            DemandStats(mean_demand=90, max_demand=80, r_agreed=100)
        with pytest.raises(InvalidStats):
            DemandStats(mean_demand=-1, max_demand=80, r_agreed=100)

    def test_max_may_not_exceed_agreement(self):
        with pytest.raises(InvalidStats):
            DemandStats(mean_demand=40, max_demand=120, r_agreed=100)

    def test_agreement_must_be_positive(self):
        with pytest.raises(InvalidStats):
            DemandStats(mean_demand=0, max_demand=0, r_agreed=0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidStats):
            DemandStats(mean_demand=float("nan"), max_demand=80, r_agreed=100)


class TestPrimitives:
    def test_wastage_fraction_anchors(self, stats):
        assert wastage_fraction(40.0, stats) == 0.0
        assert wastage_fraction(100.0, stats) == pytest.approx(0.6)
        assert wastage_fraction(70.0, stats) == pytest.approx(0.3)

    def test_wastage_fraction_negative_below_mean(self, stats):
        assert wastage_fraction(30.0, stats) == pytest.approx(-0.1)

    def test_wastage_cost(self, stats, rates):
        assert wastage_cost(40.0, stats, rates) == 0.0
        assert wastage_cost(70.0, stats, rates) == pytest.approx(0.6)
        assert wastage_cost(70.0, stats, CostRates(0, 0, 1)) == 0.0

    def test_violation_probability_anchors(self, stats):
        assert violation_probability_linear(0.0, stats) == 1.0
        assert violation_probability_linear(80.0, stats) == 0.0
        assert violation_probability_linear(40.0, stats) == pytest.approx(0.5)

    def test_violation_probability_domain(self, stats):
        with pytest.raises(DomainError):
            violation_probability_linear(80.0 + 1e-9, stats)
        with pytest.raises(DomainError):
            violation_probability_linear(-1.0, stats)

    def test_expected_penalty(self):
        assert expected_penalty(0.0, CostRates(0, 0, 7)) == 0.0
        assert expected_penalty(1.0, CostRates(0, 0, 7)) == 7.0
        assert expected_penalty(0.25, CostRates(0, 0, 4)) == pytest.approx(1.0)


class TestClosedForm:
    def test_reference_case_matches_oracle(self, stats, rates):
        result = balance_closed_form(stats, rates)
        oracle = oracle_balance(40, 80, 100, 1.5, 0.5, 1.0)
        assert result.r_provisioned == pytest.approx(14400 / 260, rel=1e-12)
        assert result.r_provisioned == pytest.approx(oracle, abs=1e-9)

    def test_result_fields_are_coherent(self, stats, rates):
        result = balance_closed_form(stats, rates)
        assert result.w == pytest.approx(wastage_fraction(result.r_provisioned, stats))
        assert result.c_wastage == pytest.approx(result.w * rates.c_provision)
        assert result.p_viol == pytest.approx(1 - result.r_provisioned / 80.0)
        assert result.expected_penalty == pytest.approx(result.p_viol * rates.c_viol)
        # the defining property: both cost channels are equal at the level
        assert result.c_wastage == pytest.approx(result.expected_penalty, abs=1e-12)

    def test_free_violations_pull_to_mean(self, stats):
        result = balance_closed_form(stats, CostRates(c_en=2, c_co2=0, c_viol=0))
        assert result.r_provisioned == 40.0
        assert result.c_wastage == 0.0

    def test_free_provisioning_pushes_to_max(self, stats):
        result = balance_closed_form(stats, CostRates(c_en=0, c_co2=0, c_viol=3))
        assert result.r_provisioned == 80.0
        assert result.p_viol == 0.0

    def test_degenerate_rates_raise(self, stats):
        with pytest.raises(DegenerateCosts):
            balance_closed_form(stats, CostRates(0, 0, 0))

    def test_nonzero_satisfaction_refused(self, stats):
        with pytest.raises(NonzeroSatisfaction):
            balance_closed_form(stats, CostRates(1, 0, 1, satisfaction=0.5))

    def test_level_always_between_mean_and_max(self):
        rng = np.random.default_rng(2901)
        for _ in range(1000):
            agreed = 10.0 ** rng.uniform(-1, 3)
            peak = agreed * rng.uniform(0.05, 1.0)
            mean = peak * rng.uniform(0.0, 1.0)
            stats = DemandStats(mean, peak, agreed)
            rates = CostRates(
                10.0 ** rng.uniform(-3, 2),
                10.0 ** rng.uniform(-3, 2),
                10.0 ** rng.uniform(-3, 2),
            )
            r = balance_closed_form(stats, rates).r_provisioned
            assert mean <= r <= peak

    def test_monotone_in_violation_price(self, stats):
        levels = [
            balance_closed_form(stats, CostRates(1.5, 0.5, cv)).r_provisioned
            for cv in np.linspace(0, 10, 21)
        ]
        assert all(a <= b for a, b in zip(levels, levels[1:]))

    def test_monotone_in_provision_price(self, stats):
        levels = [
            balance_closed_form(stats, CostRates(ce, 0.5, 1.0)).r_provisioned
            for ce in np.linspace(0, 10, 21)
        ]
        assert all(a >= b for a, b in zip(levels, levels[1:]))

    def test_only_the_price_sum_matters(self, stats):
        rng = np.random.default_rng(77)
        for _ in range(200):
            a, b = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-2, 2)
            cv = 10.0 ** rng.uniform(-2, 2)
            split = balance_closed_form(stats, CostRates(a, b, cv))
            pooled = balance_closed_form(stats, CostRates(a + b, 0.0, cv))
            swapped = balance_closed_form(stats, CostRates(b, a, cv))
            assert split == pooled
            assert split == swapped


class TestNumeric:
    def test_agrees_with_closed_form(self, stats, rates):
        closed = balance_closed_form(stats, rates).r_provisioned
        numeric = balance_numeric(stats, rates).r_provisioned
        assert abs(closed - numeric) <= 1e-9 * stats.max_demand

    def test_satisfaction_case_against_hand_solve(self, stats):
        # (r-40)/100*2 = (1-r/80) + 0.2  =>  0.0325 r = 2.0
        rates = CostRates(c_en=2.0, c_co2=0.0, c_viol=1.0, satisfaction=0.2)
        result = balance_numeric(stats, rates)
        assert result.r_provisioned == pytest.approx(2.0 / 0.0325, rel=1e-9)
        oracle = oracle_balance(40, 80, 100, 2.0, 0.0, 1.0, satisfaction=0.2)
        assert result.r_provisioned == pytest.approx(oracle, abs=1e-9)

    def test_balance_condition_holds_at_solution(self, stats):
        rates = CostRates(c_en=2.0, c_co2=0.0, c_viol=1.0, satisfaction=0.2)
        result = balance_numeric(stats, rates)
        gap = result.c_wastage - result.expected_penalty - rates.satisfaction
        assert abs(gap) <= 1e-9 * (rates.c_provision + rates.c_viol + rates.satisfaction)

    def test_large_surcharge_has_no_root(self, stats):
        # wastage at max demand is only 0.8 per time unit
        rates = CostRates(c_en=2.0, c_co2=0.0, c_viol=1.0, satisfaction=10.0)
        with pytest.raises(NoRootInRange):
            balance_numeric(stats, rates)

    def test_degenerate_rates_raise(self, stats):
        with pytest.raises(DegenerateCosts):
            balance_numeric(stats, CostRates(0, 0, 0))

    def test_bad_tolerance_rejected(self, stats, rates):
        with pytest.raises(ValueError):
            balance_numeric(stats, rates, tolerance=0.0)

    def test_limit_cases_match_closed_form_exactly(self, stats):
        assert balance_numeric(stats, CostRates(2, 0, 0)).r_provisioned == 40.0
        assert balance_numeric(stats, CostRates(0, 0, 3)).r_provisioned == 80.0


class TestHeuristicBand:
    def test_zero_width(self, stats, rates):
        result = balance_closed_form(stats, rates)
        band = heuristic_band(result, 0.0, stats)
        assert band == (result.r_provisioned, result.r_provisioned)

    def test_ten_percent_band(self, stats, rates):
        result = balance_closed_form(stats, rates)
        lo, hi = heuristic_band(result, 0.10, stats)
        assert lo == pytest.approx(result.r_provisioned * 0.9)
        assert hi == pytest.approx(result.r_provisioned * 1.1)

    def test_upper_end_clamped_to_agreement(self, stats):
        result = BalanceResult(
            r_provisioned=95.0, w=0.55, c_wastage=1.1, p_viol=0.0, expected_penalty=0.0
        )
        assert heuristic_band(result, 0.10, stats) == (85.5, 100.0)

    def test_x_range_enforced(self, stats, rates):
        result = balance_closed_form(stats, rates)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                heuristic_band(result, bad, stats)


class TestSweep:
    def test_free_violations_everywhere(self, stats):
        cells = sensitivity_sweep(
            [stats], [CostRates(c, 0, 0) for c in (0.5, 1.0, 2.0)]
        )
        assert all(cell.result.r_provisioned == 40.0 for cell in cells)

    def test_grid_cardinality_and_order(self, rates):
        grid = [
            DemandStats(10, 50, 100),
            DemandStats(20, 60, 100),
        ]
        cells = sensitivity_sweep(grid, [rates, CostRates(1, 0, 2)])
        assert len(cells) == 4
        # stats-major ordering
        assert cells[0].stats == grid[0] and cells[1].stats == grid[0]
        assert cells[2].stats == grid[1] and cells[3].stats == grid[1]

    def test_errors_recorded_per_cell(self, stats, rates):
        cells = sensitivity_sweep([stats], [CostRates(0, 0, 0), rates])
        assert cells[0].result is None
        assert "zero" in cells[0].error
        assert cells[1].error is None

    def test_monotone_across_violation_price(self, stats):
        cells = sensitivity_sweep(
            [stats], [CostRates(1.5, 0.5, cv) for cv in np.linspace(0, 10, 11)]
        )
        levels = [cell.result.r_provisioned for cell in cells]
        assert all(a <= b for a, b in zip(levels, levels[1:]))

    def test_single_cell(self, stats, rates):
        cell = evaluate_balance_cell(stats, rates)
        assert cell.result.r_provisioned == pytest.approx(14400 / 260, rel=1e-12)
        assert cell.error is None


class TestSolveBalance:
    def test_dispatches_on_satisfaction(self, stats, rates):
        assert solve_balance(stats, rates) == balance_closed_form(stats, rates)
        surcharged = CostRates(2.0, 0.0, 1.0, satisfaction=0.2)
        assert solve_balance(stats, surcharged) == balance_numeric(stats, surcharged)


class TestBalanceGrid:
    # Every validation rule, both closed-form endpoints, degenerate prices,
    # sums and products that overflow to inf/NaN, a closed form that rounds
    # above max_demand (c_en 1e-200, c_viol 0.009), bisection with and
    # without a root, and an exact endpoint root ((80 - 40) / 100 * 0.5 == 0.2).
    AXES = (
        (0.0, 20.0, 40.0, 79.9, 80.0, 90.0, -1.0, math.nan),  # mean_demand
        (0.0, 80.0, 100.0, 120.0, math.inf),  # max_demand
        (100.0, 0.0),  # r_agreed
        (0.0, 0.5, 1.5, -1.0, 1e308, 1e-200),  # c_en
        (0.0, 0.5, 1e308),  # c_co2
        (0.0, 1.0, 1e308, 0.009),  # c_viol
        (0.0, 0.05, 0.2),  # satisfaction
    )

    def test_matches_scalar_dispatcher_bit_for_bit(self):
        cells = list(itertools.product(*self.AXES))
        solved, columns = balance_grid(*np.array(cells).T)
        table = np.column_stack(columns)
        outcomes = set()
        for i, (mean, peak, agreed, c_en, c_co2, c_viol, sat) in enumerate(cells):
            try:
                result = solve_balance(
                    DemandStats(mean, peak, agreed), CostRates(c_en, c_co2, c_viol, sat)
                )
            except ValueError as exc:
                outcomes.add(type(exc).__name__)
                assert not solved[i], cells[i]
                assert np.isnan(table[i]).all()
                continue
            outcomes.add("solved")
            assert solved[i], cells[i]
            expected = np.array(
                [result.r_provisioned, result.w, result.c_wastage, result.p_viol,
                 result.expected_penalty]
            )
            assert expected.view(np.int64).tolist() == table[i].view(np.int64).tolist(), cells[i]
        assert outcomes == {
            "solved", "InvalidStats", "InvalidRates", "DegenerateCosts", "NoRootInRange"
        }

    def test_inputs_broadcast(self, stats, rates):
        solved, columns = balance_grid(40.0, 80.0, 100.0, 1.5, 0.5, [0.0, 1.0], 0.0)
        assert solved.tolist() == [True, True]
        assert columns[0][0] == 40.0
        assert columns[0][1] == balance_closed_form(stats, rates).r_provisioned
        no_root, columns = balance_grid(79.9, 80.0, 100.0, 1.5, 0.5, 1.0, 5.0)
        assert not no_root and np.isnan(columns[0])

    def test_two_dimensional_bisection(self):
        means = np.array([[40.0, 90.0], [20.0, 60.0]])
        solved, columns = balance_grid(means, 80.0, 100.0, 1.5, 0.5, 1.0, 0.05)
        assert solved.tolist() == [[True, False], [True, True]]
        for index in ((0, 0), (1, 0), (1, 1)):
            expected = solve_balance(
                DemandStats(means[index], 80.0, 100.0), CostRates(1.5, 0.5, 1.0, 0.05)
            )
            assert columns[0][index] == expected.r_provisioned
