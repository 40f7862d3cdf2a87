"""Tests for series inversion and the large-dimension approximations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispbound import asymptotics as am
from dispbound.asymptotics import (
    AsymptoticReport,
    InverseEvaluation,
    InverseSeries,
    ThresholdReport,
    asymptotic_ab_ratio,
    asymptotic_c_n,
    asymptotic_log_h_n,
    asymptotic_rho_star,
    compare,
    evaluate_inverse,
    forward_map,
    inverse_series,
    inversion_radius,
    measured_thresholds,
    phi_n,
    term_log_magnitudes,
)
from dispbound.constants import c_n, solve_crossing
from dispbound.errors import ConfigurationError, DivergenceError, DomainError

# ---------------------------------------------------------------------------
# series construction
# ---------------------------------------------------------------------------


def test_radius_formula():
    assert inversion_radius(2) == 2.0 / 3.0**1.5
    assert inversion_radius(1) == 1.0 / 4.0
    s = inverse_series(2, 10)
    assert s.radius == 2.0 / 3.0**1.5


def test_degree_two_coefficient_is_minus_one_over_order():
    for order in (1, 2, 3, 7, 50):
        s = inverse_series(order, 5)
        assert s.coefficients[2] == pytest.approx(-1.0 / order, rel=1e-14)


def test_order_one_coefficients_are_signed_catalan():
    # f_1(rho) = rho(rho-1); its inverse is (1 + sqrt(1+4y))/2 whose
    # series coefficients are Catalan numbers with alternating signs
    s = inverse_series(1, 11)
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    for k in range(2, 12):
        expected = (-1) ** (k - 1) * catalan[k - 1]
        assert s.coefficients[k] == pytest.approx(expected, rel=1e-12)


def test_low_degree_coefficients_are_exactly_one():
    s = inverse_series(3, 4)
    assert s.coefficients[0] == 1.0
    assert s.coefficients[1] == 1.0


def test_large_degree_coefficients_stay_representable_in_log_form():
    s = inverse_series(1, 1200)
    assert np.all(np.isfinite(s.log_coefficient_magnitudes))
    # the linear view overflows far before degree 1200 for order 1
    assert np.isinf(s.coefficients[700])


def test_coefficient_ratio_approaches_inverse_radius():
    for order in (1, 2, 5):
        s = inverse_series(order, 1100)
        lm = s.log_coefficient_magnitudes
        ratio = math.exp(lm[1001] - lm[1000])
        target = (order + 1.0) ** (1.0 + 1.0 / order) / order
        assert abs(ratio - target) / target < 0.01
        assert target == pytest.approx(1.0 / s.radius, rel=1e-14)


def test_inverse_series_validation():
    with pytest.raises(ConfigurationError):
        inverse_series(0, 10)
    with pytest.raises(ConfigurationError):
        inverse_series(2, 1)
    with pytest.raises(ConfigurationError):
        inverse_series(2.5, 10)


# ---------------------------------------------------------------------------
# forward map and evaluation
# ---------------------------------------------------------------------------


def test_forward_map_values():
    assert forward_map(1, 1.0) == 0.0
    assert forward_map(1, 2.0) == pytest.approx(2.0, rel=1e-15)
    assert forward_map(4, 3.0) == pytest.approx(3.0**0.25 * 2.0, rel=1e-15)
    with pytest.raises(DomainError):
        forward_map(2, 0.0)
    with pytest.raises(DomainError):
        forward_map(2, math.nan)


def test_evaluate_at_zero_returns_one():
    s = inverse_series(3, 20)
    ev = evaluate_inverse(s, 0.0)
    assert ev.value == 1.0
    assert ev.residual == 0.0


def test_order_one_matches_quadratic_formula():
    s = inverse_series(1, 60)
    ev = evaluate_inverse(s, 0.1)
    oracle = (1.0 + math.sqrt(1.4)) / 2.0
    assert ev.value == pytest.approx(oracle, abs=1e-12)


@given(y=st.floats(min_value=-0.24, max_value=0.24))
@settings(max_examples=200)
def test_order_one_quadratic_oracle_property(y):
    s = inverse_series(1, 2000)
    ev = evaluate_inverse(s, y)
    oracle = (1.0 + math.sqrt(1.0 + 4.0 * y)) / 2.0
    assert ev.value == pytest.approx(oracle, abs=1e-11)


def test_residual_matches_forward_map():
    s = inverse_series(5, 100)
    y = 0.4 * s.radius
    ev = evaluate_inverse(s, y)
    assert ev.residual == abs(forward_map(5, ev.value) - y)
    assert ev.residual < 1e-14


def test_truncation_residual_decreases_until_floor():
    y = 0.8 * inversion_radius(3)
    residuals = [
        evaluate_inverse(inverse_series(3, terms), y).residual
        for terms in (8, 16, 32, 64, 128)
    ]
    for earlier, later in zip(residuals, residuals[1:]):
        if earlier < 1e-14:
            break
        assert later < earlier


def test_divergence_outside_radius():
    for order in (1, 2, 10):
        s = inverse_series(order, 400)
        with pytest.raises(DivergenceError) as exc:
            evaluate_inverse(s, 1.05 * s.radius)
        diag = exc.value.diagnostics
        assert diag["radius"] == s.radius
        probes = diag["log_term_magnitudes"]
        # deep terms dominate shallow ones: genuine growth, not rounding
        assert probes[max(probes)] > probes[2] + 1.0


def test_divergence_exactly_at_radius():
    s = inverse_series(2, 50)
    with pytest.raises(DivergenceError):
        evaluate_inverse(s, s.radius)
    with pytest.raises(DivergenceError):
        evaluate_inverse(s, -s.radius)


def test_convergence_across_orders_at_095_radius():
    for order in range(1, 201):
        s = inverse_series(order, 1500)
        ev = evaluate_inverse(s, 0.95 * s.radius)
        assert ev.residual < 1e-10


def test_negative_argument_converges_to_small_root():
    s = inverse_series(1, 1500)
    ev = evaluate_inverse(s, -0.95 * s.radius)
    # oracle: smaller quadratic root stays above the fold point 1/2
    oracle = (1.0 + math.sqrt(1.0 + 4.0 * (-0.95 * 0.25))) / 2.0
    assert ev.value == pytest.approx(oracle, abs=1e-12)


def test_crossing_coefficient_roundtrip():
    for n in (50, 500, 5000):
        series = inverse_series(n - 1, 200)
        y = c_n(n).to_float()
        ev = evaluate_inverse(series, y)
        back = forward_map(n - 1, ev.value)
        assert abs(back - y) / y < 1e-8
        # the recovered point is the crossing point itself
        assert ev.value == pytest.approx(solve_crossing(n).rho_star, rel=1e-10)


def test_term_log_magnitudes_shape_and_zero():
    s = inverse_series(2, 30)
    mags = term_log_magnitudes(s, 0.0)
    assert mags[0] == 0.0 and math.isinf(mags[1])
    mags = term_log_magnitudes(s, 0.1)
    assert len(mags) == 31


# ---------------------------------------------------------------------------
# term-ratio bound
# ---------------------------------------------------------------------------


def test_phi_small_values():
    assert phi_n(1, 2) == pytest.approx(0.5, rel=1e-15)
    assert phi_n(2, 2) == pytest.approx((6.0 / 5.0) * (2.0 / 3.0), rel=1e-15)


def test_phi_nonincreasing():
    for order in (1, 2, 5, 50):
        values = [phi_n(order, k) for k in range(2, 10_001)]
        assert all(b <= a for a, b in zip(values, values[1:]))


def test_phi_limit():
    for order in (1, 2, 10, 100):
        limit = order / ((order + 1.0) * math.e)
        assert abs(phi_n(order, 10**6) - limit) <= 1e-5


def test_phi_validation():
    with pytest.raises(ConfigurationError):
        phi_n(2, 1)
    with pytest.raises(ConfigurationError):
        phi_n(0, 5)


def test_phi_bounds_actual_coefficient_ratios():
    # |c_{k+1}|/|c_k| <= 1/phi_n(N, k), which is why term magnitudes
    # decrease whenever |y| is below the limit N/((N+1)e)
    for order in (1, 3, 10):
        s = inverse_series(order, 300)
        lm = s.log_coefficient_magnitudes
        for k in range(2, 300):
            actual = math.exp(lm[k + 1] - lm[k])
            assert actual <= (1.0 + 1e-12) / phi_n(order, k)


def test_terms_decrease_below_phi_limit():
    order = 4
    s = inverse_series(order, 400)
    y = 0.99 * order / ((order + 1.0) * math.e)
    mags = term_log_magnitudes(s, y)
    assert all(b < a for a, b in zip(mags[2:], mags[3:]))


# ---------------------------------------------------------------------------
# closed-form approximations
# ---------------------------------------------------------------------------


def test_hand_evaluations_at_n4():
    n = 4
    ln = math.log
    e, pi = math.e, math.pi
    assert asymptotic_c_n(n) == pytest.approx(
        math.sqrt(2 * e / (pi * n)) * (1 + ln(n) / n), rel=1e-15
    )
    assert asymptotic_rho_star(n) == pytest.approx(
        1 + math.sqrt(2 * e / (pi * n)) + math.sqrt(2 * e / pi) * ln(n) / n**1.5,
        rel=1e-15,
    )
    assert asymptotic_log_h_n(n) == pytest.approx(
        -n * ln(n) + n - math.sqrt(2 * e * n / pi) + 0.5 * ln(4 / (3 * e))
        + e / pi - math.sqrt(2 * e / pi) * ln(n) / math.sqrt(n),
        rel=1e-15,
    )
    assert asymptotic_ab_ratio(n) == pytest.approx(
        math.exp(ln(2 * math.sqrt(e)) + ln(n) / (2 * n) - 1 / math.sqrt(2 * pi * n)),
        rel=1e-15,
    )
    # even improved-kind variants at n = 4
    assert asymptotic_c_n(n, "bezdek") == pytest.approx(
        math.sqrt(e / n) * (1 + 0.75 * ln(n) / n), rel=1e-15
    )
    assert asymptotic_rho_star(n, "bezdek") == pytest.approx(
        1 + math.sqrt(e / n) + 0.75 * math.sqrt(e) * ln(n) / n**1.5, rel=1e-15
    )
    assert asymptotic_log_h_n(n, "bezdek") == pytest.approx(
        0.5 * (e - 1) + 0.25 * ln(9 / (2 * pi * n)) + 0.5 * n * ln(pi / 2)
        + n * (1 - ln(n)) - math.sqrt(e * n)
        + math.log1p(-0.75 * math.sqrt(e) * ln(n) / math.sqrt(n)),
        rel=1e-15,
    )


def test_odd_improved_kind_hand_evaluation():
    n = 101
    ln = math.log
    e, pi = math.e, math.pi
    assert asymptotic_c_n(n, "bezdek") == pytest.approx(
        math.sqrt(2 * e / n) * (1 + 0.75 * ln(n) / n), rel=1e-15
    )
    assert asymptotic_log_h_n(n, "bezdek") == pytest.approx(
        e + 0.25 * ln(9 / (8 * pi**3 * n)) + 0.5 * n * ln(pi)
        + n * (1 - ln(n)) - math.sqrt(2 * e * n)
        + math.log1p(-0.75 * math.sqrt(2 * e) * ln(n) / math.sqrt(n)),
        rel=1e-15,
    )


def test_odd_improved_kind_rejects_small_dimensions():
    for n in (3, 5, 21, 43):
        with pytest.raises(DomainError):
            asymptotic_log_h_n(n, "bezdek")
    # even dimensions of the same size are fine
    assert math.isfinite(asymptotic_log_h_n(4, "bezdek"))


def test_log_h_dominated_by_n_log_n():
    ratios = [
        asymptotic_log_h_n(n) / (-n * math.log(n)) for n in (10**3, 10**4, 10**5, 10**6)
    ]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 1.0) < 0.08


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_c_n_error_decreases():
    reports = compare([100, 1000, 10000], "c_n")
    rels = [r.rel_error for r in reports]
    assert all(b < a for a, b in zip(rels, rels[1:]))


def test_compare_log_h_error_bound_at_1e4():
    (report,) = compare([10_000], "log_h_n")
    assert report.abs_error <= 10.0 * math.log(10_000)


def test_compare_ab_ratio_at_1e5():
    (report,) = compare([100_000], "ab_ratio")
    assert report.rel_error <= 0.02


def test_compare_report_construction():
    (report,) = compare([500], "rho_star")
    assert isinstance(report, AsymptoticReport)
    assert report.abs_error == abs(report.exact - report.asymptotic)
    assert report.rel_error == report.abs_error / abs(report.exact)
    assert report.quantity == "rho_star"


def test_compare_bezdek_quantity_pins_kind():
    (a,) = compare([100], "bezdek_log_h_n", kind="pal_firey")
    (b,) = compare([100], "bezdek_log_h_n", kind="bezdek")
    assert a == b
    assert a.exact == pytest.approx(solve_crossing(100, "bezdek").log_h, abs=1e-12)


def test_compare_ab_ratio_pins_pal_firey():
    (a,) = compare([100], "ab_ratio", kind="bezdek")
    (b,) = compare([100], "ab_ratio")
    assert a == b


def test_compare_validation():
    with pytest.raises(ConfigurationError):
        compare([10], "h_n")
    with pytest.raises(DomainError):
        compare([1], "c_n")


def test_compare_preserves_input_order():
    reports = compare([300, 100, 200], "c_n")
    assert [r.n for r in reports] == [300, 100, 200]


# ---------------------------------------------------------------------------
# measured thresholds
# ---------------------------------------------------------------------------


def test_measured_thresholds_frozen_values():
    report = measured_thresholds()
    assert isinstance(report, ThresholdReport)
    assert report.bracket_start == 2
    assert report.radius_entry == 9
    assert report.monotone_terms_entry == 21
    assert report.scan_limit == 2000


def test_measured_thresholds_stable_across_runs():
    assert measured_thresholds(n_max=300) == measured_thresholds(n_max=300)


def test_threshold_semantics():
    # just below each threshold the property genuinely fails
    assert not c_n(8).to_float() < inversion_radius(7)
    assert c_n(9).to_float() < inversion_radius(8)
    assert not c_n(20).to_float() < 19.0 / (20.0 * math.e)
    assert c_n(21).to_float() < 20.0 / (21.0 * math.e)


def test_bracket_holds_everywhere_scanned():
    for n in (2, 3, 10, 100, 1500):
        c = c_n(n).to_float()
        rho = solve_crossing(n).rho_star
        assert 1.0 + c - c * c / (n - 1.0) <= rho <= 1.0 + c
