"""Cost model primitives and the equilibrium solvers.

The closed form is checked against a bisection oracle written inline from
the raw arithmetic (no calls into the package), so the two routes stay
independent.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenprov import (
    FAILURES,
    BalanceResult,
    CostRates,
    DegenerateCosts,
    DemandStats,
    InvalidRates,
    InvalidStats,
    NonzeroSatisfaction,
    NoRootInRange,
    balance_closed_form,
    balance_grid,
    balance_numeric,
    heuristic_band,
    solve_balance,
    violation_probability_linear,
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
    def test_violation_probability_anchors(self):
        assert violation_probability_linear(0.0, 80.0) == 1.0
        assert violation_probability_linear(80.0, 80.0) == 0.0
        assert violation_probability_linear(40.0, 80.0) == 0.5
        levels = np.array([0.0, 20.0, 40.0, 80.0])
        assert violation_probability_linear(levels, 80.0).tolist() == [1.0, 0.75, 0.5, 0.0]

    def test_violation_probability_domain(self):
        # 0 at and above max demand, and for demand that is a.s. zero
        assert violation_probability_linear(80.0 + 1e-9, 80.0) == 0.0
        assert violation_probability_linear(1e308, 1e-310) == 0.0
        for r in (0.0, 5.0):
            assert violation_probability_linear(r, 0.0) == 0.0
            assert violation_probability_linear(r, -1.0) == 0.0
        p = violation_probability_linear(np.array([0.0, 100.0]), np.array([[0.0], [80.0]]))
        assert p.tolist() == [[0.0, 0.0], [1.0, 0.0]]


class TestClosedForm:
    def test_reference_case_matches_oracle(self, stats, rates):
        result = balance_closed_form(stats, rates)
        oracle = oracle_balance(40, 80, 100, 1.5, 0.5, 1.0)
        assert result.r_provisioned == pytest.approx(14400 / 260, rel=1e-12)
        assert result.r_provisioned == pytest.approx(oracle, abs=1e-9)

    def test_result_fields_are_coherent(self, stats, rates):
        result = balance_closed_form(stats, rates)
        assert result.w == pytest.approx((result.r_provisioned - 40.0) / 100.0)
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

    def test_overflowing_weights_raise(self, stats):
        # r_agreed * c_viol, or c_en + c_co2, overflows to inf: the level
        # would be inf / inf, a NaN
        for rates in (CostRates(0.5, 0, 1e308), CostRates(1e308, 1e308, 0)):
            with pytest.raises(DegenerateCosts, match="overflow"):
                solve_balance(stats, rates)

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


class TestScalarContract:
    """What callers of the scalar solvers see: Python floats, and the full
    texts of the solver errors."""

    def test_fields_are_python_floats(self, stats):
        results = (
            balance_closed_form(stats, CostRates(1.5, 0.5, 1.0)),
            balance_closed_form(stats, CostRates(2.0, 0.0, 0.0)),  # endpoint
            balance_numeric(stats, CostRates(2.0, 0.0, 1.0, satisfaction=0.2)),
            balance_numeric(stats, CostRates(0.5, 0.0, 0.0, satisfaction=0.2)),  # endpoint
        )
        for result in results:
            for field in dataclasses.fields(result):
                assert type(getattr(result, field.name)) is float, (result, field.name)

    def test_zero_cost_channels_text(self, stats):
        for solver, rates in (
            (balance_closed_form, CostRates(0, 0, 0)),
            (balance_numeric, CostRates(0, 0, 0, satisfaction=0.1)),
        ):
            with pytest.raises(DegenerateCosts) as caught:
                solver(stats, rates)
            assert str(caught.value) == "both cost channels are zero; no balance exists"

    def test_overflowing_weights_text(self, stats):
        prefix = "cost weights overflow: max_demand * c_provision + r_agreed * c_viol is "
        for stats_, rates, total in (
            (stats, CostRates(0.5, 0, 1e308), "inf"),
            (DemandStats(0.0, 0.0, 1.0), CostRates(1e308, 1e308, 1.0), "nan"),  # 0 * inf
        ):
            with pytest.raises(DegenerateCosts) as caught:
                balance_closed_form(stats_, rates)
            assert str(caught.value) == prefix + total

    def test_no_root_text(self, stats):
        # gaps: 0 - 0.5 - 10 at the mean, 0.8 - 0 - 10 at the max
        with pytest.raises(NoRootInRange) as caught:
            balance_numeric(stats, CostRates(2.0, 0.0, 1.0, satisfaction=10.0))
        assert str(caught.value) == (
            "cost difference does not cross zero on [40.0, 80.0] (endpoints -10.5, -9.2)"
        )
        # fields print as given, as in the DemandStats and CostRates errors
        with pytest.raises(NoRootInRange, match=r"on \[40, 80\]"):
            balance_numeric(DemandStats(40, 80, 100), CostRates(2, 0, 1, satisfaction=10))

    def test_residual_above_tolerance_text(self):
        # a one-ulp demand range: bisection cannot move off the low end
        stats = DemandStats(0.0, 5e-324, 5e-324)
        with pytest.raises(NoRootInRange) as caught:
            balance_numeric(stats, CostRates(1.0, 0.0, 1.0, satisfaction=0.5))
        assert str(caught.value) == "bisection residual -1.5 exceeds tolerance 2.5e-09"


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
        failure, columns, values = balance_grid(*np.array(cells).T)
        outcomes = {type(scalar_outcome(*cell)).__name__ for cell in cells}
        assert outcomes == {
            "BalanceResult", "InvalidStats", "InvalidRates", "DegenerateCosts", "NoRootInRange"
        }
        assert_grid_matches_scalar_path(cells, failure, columns, values)

    def test_inputs_broadcast(self, stats, rates):
        failure, columns, _ = balance_grid(40.0, 80.0, 100.0, 1.5, 0.5, [0.0, 1.0], 0.0)
        assert failure.tolist() == [-1, -1]
        assert columns[0][0] == 40.0
        assert columns[0][1] == balance_closed_form(stats, rates).r_provisioned
        no_root, columns, _ = balance_grid(79.9, 80.0, 100.0, 1.5, 0.5, 1.0, 5.0)
        assert FAILURES[no_root].error is NoRootInRange and np.isnan(columns[0])

    def test_overflowing_weights_are_unsolved(self):
        failure, columns, values = balance_grid(40.0, 80.0, 100.0, 0.5, 0.0, [1e300, 1e308], 0.0)
        assert failure[0] == -1 and FAILURES[failure[1]].error is DegenerateCosts
        assert values["total"][1] == math.inf
        assert columns[0][0] == 80.0 and np.isnan(columns[0][1])

    def test_two_dimensional_bisection(self):
        means = np.array([[40.0, 90.0], [20.0, 60.0]])
        failure, columns, values = balance_grid(means, 80.0, 100.0, 1.5, 0.5, 1.0, 0.05)
        assert (failure >= 0).tolist() == [[False, True], [False, False]]
        assert "< mean_demand (90.0)" in str(grid_error(failure, values, (0, 1)))
        for index in ((0, 0), (1, 0), (1, 1)):
            expected = solve_balance(
                DemandStats(means[index], 80.0, 100.0), CostRates(1.5, 0.5, 1.0, 0.05)
            )
            assert columns[0][index] == expected.r_provisioned


def scalar_outcome(mean, peak, agreed, c_en, c_co2, c_viol, satisfaction):
    """One cell through the scalar path: its BalanceResult, or the error it raises."""
    try:
        stats = DemandStats(mean, peak, agreed)
        rates = CostRates(c_en, c_co2, c_viol, satisfaction)
        return solve_balance(stats, rates)
    except ValueError as exc:
        return exc


def grid_error(failure, values, index):
    """The error balance_grid reports for one cell."""
    return FAILURES[failure[index]].exception(
        {name: column[index].item() for name, column in values.items()}
    )


def assert_grid_matches_scalar_path(cells, failure, columns, values):
    """Each cell of the grid is the scalar path's outcome: the same result
    bits, or the same error class and text."""
    table = np.column_stack(columns)
    for i, cell in enumerate(cells):
        outcome = scalar_outcome(*cell)
        if isinstance(outcome, ValueError):
            assert failure[i] >= 0, cell
            error = grid_error(failure, values, i)
            assert (type(error), str(error)) == (type(outcome), str(outcome)), cell
            assert np.isnan(table[i]).all(), cell
            continue
        assert failure[i] == -1, cell
        expected = np.array(dataclasses.astuple(outcome))
        assert expected.view(np.int64).tolist() == table[i].view(np.int64).tolist(), cell


PROPERTY = settings(max_examples=300)

# Any float (subnormals, +-0, +-inf, NaN included), special values drawn
# often, and plain demand-sized values.
ANY_FLOAT = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 1e308,
         math.inf, -math.inf, math.nan]
    ),
    st.floats(),
    st.floats(0.0, 100.0),
)


@st.composite
def grid_cells(draw):
    """One balance_grid cell: the seven DemandStats and CostRates fields.

    Half the cells drop the signs (not of zeros) and order the demand
    fields, so that many pass validation and reach a solver.
    """
    fields = [draw(ANY_FLOAT) for _ in range(7)]
    if draw(st.booleans()):
        fields = [abs(x) if x else x for x in fields]
        fields[:3] = sorted(fields[:3])
    if draw(st.booleans()):
        fields[6] = 0.0  # the closed form
    return tuple(fields)


@PROPERTY
@given(st.lists(grid_cells(), min_size=1, max_size=6))
@example([(40.0, 80.0, 100.0, 1.5, 0.5, 1.0, 0.0), (79.9, 80.0, 100.0, 1.5, 0.5, 1.0, 5.0)])
# a one-ulp demand range, whose bisection leaves a residual above tolerance
@example([(0.0, 5e-324, 5e-324, 1.0, 0.0, 1.0, 0.5)])
def test_grid_solves_exactly_what_the_scalar_path_solves(cells):
    assert_grid_matches_scalar_path(cells, *balance_grid(*np.array(cells).T))


POSITIVE = st.floats(1e-6, 1e6)
PRICE = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))


@PROPERTY
@given(
    agreed=POSITIVE,
    peak_share=st.floats(0.0, 1.0),
    mean_share=st.floats(0.0, 1.0),
    c_en=PRICE,
    c_co2=PRICE,
    c_viol=PRICE,
    satisfaction=st.one_of(st.just(0.0), PRICE),
)
def test_solved_level_lies_in_demand_range(
    agreed, peak_share, mean_share, c_en, c_co2, c_viol, satisfaction
):
    peak = agreed * peak_share
    mean = peak * mean_share
    stats = DemandStats(mean, peak, agreed)
    try:
        r = solve_balance(stats, CostRates(c_en, c_co2, c_viol, satisfaction)).r_provisioned
    except (DegenerateCosts, NoRootInRange):
        return  # not solved
    assert mean <= r <= peak
    if satisfaction == 0.0 and peak > 0.0:
        oracle = oracle_balance(mean, peak, agreed, c_en, c_co2, c_viol)
        assert r == pytest.approx(oracle, rel=1e-9)
