"""Tests for the large-dimension approximations."""

import math

import numpy as np
import pytest

from dispbound.asymptotics import (
    AsymptoticReport,
    asymptotic_ab_ratio,
    asymptotic_c_n,
    asymptotic_log_h_n,
    asymptotic_rho_star,
    compare,
)
from dispbound.constants import constants_table, solve_crossing
from dispbound.errors import ConfigurationError, DomainError


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
# the two-sided crossing bracket
# ---------------------------------------------------------------------------


def test_bracket_holds_everywhere_scanned():
    ns = np.array([2, 3, 10, 100, 1500])
    table = constants_table(ns)
    c, rho = np.exp(table.log_c), table.rho_star
    assert np.all(1.0 + c - c * c / (ns - 1.0) <= rho)
    assert np.all(rho <= 1.0 + c)
