"""Tests for the closed-form constants and the crossing solver."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispbound import constants as cmod
from dispbound import numerics
from dispbound.constants import (
    AbScan,
    constants_row,
    constants_table,
    envelope_b_n,
    h_n,
    i_bar_n,
    i_n,
    i_n_limit,
    i_star_n,
    j_n,
    pal_constant,
    quoted_closed_form_h2,
    rho_n,
    rho_star,
    scan_ab,
    solve_crossing,
    sphere_reference,
    suboptimality_factor,
)
from dispbound.errors import ConfigurationError, DomainError, NumericalError

TWO_SQRT_E = 2.0 * math.sqrt(math.e)

# ---------------------------------------------------------------------------
# Branch point rho_n
# ---------------------------------------------------------------------------


def test_rho_n_small_dimensions():
    assert rho_n(2) == pytest.approx(2.0, rel=1e-14)
    assert rho_n(3) == pytest.approx(math.pi / (math.pi - 1.0), rel=1e-13)


def test_rho_n_decreases_toward_one():
    values = [rho_n(n) for n in range(2, 501)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.1
    assert all(v > 1.0 for v in values)


# ---------------------------------------------------------------------------
# The piecewise envelope i_n and its relatives
# ---------------------------------------------------------------------------


def test_i_n_infinite_rho_limit_n2():
    # second branch tends to w_0 / (2 * 1 * 2^0) = 1/2
    assert i_n(2, 1e9).to_float() == pytest.approx(0.5, abs=1e-8)


def test_i_n_branch_value_at_rho_two_dim_three():
    # rho_3 = pi/(pi-1) ~ 1.467 < 2, so the second branch applies:
    # w_1 / (3 * 2 * 2) * (1/2)^2 = 1/24
    assert i_n(3, 2.0).to_float() == pytest.approx(1.0 / 24.0, rel=1e-13)


def test_i_n_branches_continuous_at_branch_point():
    for n in range(2, 51):
        rho = rho_n(n)
        log_q = math.log(rho - 1.0) - math.log(rho)
        row = cmod._envelope(n, "pal_firey")
        b1 = row.i_first + n * log_q
        b2 = row.i_limit + (n - 1) * log_q
        tol = 1e-14 if n == 2 else 1e-13
        assert abs(b1 - b2) <= tol


def test_i_n_domain_errors():
    for bad in (1.0, 0.5, -2.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            i_n(2, bad)
    with pytest.raises(DomainError):
        i_n(1, 2.0)


def test_i_n_nondecreasing_j_n_strictly_decreasing():
    grid = np.geomspace(1.0 + 1e-6, 1e4, 160)
    for n in range(2, 51):
        i_vals = [i_n(n, float(r)).log_magnitude for r in grid]
        j_vals = [j_n(n, float(r)).log_magnitude for r in grid]
        assert all(b >= a - 1e-12 for a, b in zip(i_vals, i_vals[1:]))
        assert all(b < a for a, b in zip(j_vals, j_vals[1:]))


def test_i_n_range_bound():
    # i_n stays strictly below w_n / 2^(n-1)
    from dispbound.numerics import LOG_2, log_unit_ball_volume

    grid = np.geomspace(1.0 + 1e-6, 1e4, 60)
    for n in range(2, 51):
        cap = log_unit_ball_volume(n) - (n - 1) * LOG_2
        assert all(i_n(n, float(r)).log_magnitude < cap for r in grid)


def test_i_bar_value_and_limit():
    assert i_bar_n(2, 2.0).to_float() == pytest.approx(3 * math.pi / 8, rel=1e-13)
    from dispbound.numerics import LOG_2, log_unit_ball_volume

    for n in (2, 3, 5):
        limit = log_unit_ball_volume(n) - (n - 1) * LOG_2
        assert i_bar_n(n, 1e12).log_magnitude == pytest.approx(limit, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("rho", [1.5, 2.0, 5.0, 20.0])
def test_cylinder_ratio_identity(n, rho):
    # for rho on the outer branch, i_bar/i = (n-1) pi + (n-1)^2 pi / rho;
    # at n = 2 this reads pi + pi/rho
    if rho < rho_n(n):
        pytest.skip("identity only holds past the branch point")
    ratio = math.exp(i_bar_n(n, rho).log_magnitude - i_n(n, rho).log_magnitude)
    expected = (n - 1) * math.pi + (n - 1) ** 2 * math.pi / rho
    assert ratio == pytest.approx(expected, rel=1e-12)


def test_i_star_value_and_vanishing():
    assert i_star_n(2, 2.0).to_float() == pytest.approx(math.pi / 8, rel=1e-13)
    assert i_star_n(2, 1.0 + 1e-12).log_magnitude < -25.0


def test_i_star_over_i_on_first_branch():
    # the quotient on branch 1 is n w_n / (2 w_{n-1}) >= 1
    from dispbound.numerics import log_unit_ball_volume

    for n in (2, 3, 7, 20):
        rho = 1.0 + 0.25 * (rho_n(n) - 1.0)
        got = i_star_n(n, rho).log_magnitude - i_n(n, rho).log_magnitude
        expected = (
            math.log(n) + log_unit_ball_volume(n) - math.log(2.0) - log_unit_ball_volume(n - 1)
        )
        assert got == pytest.approx(expected, abs=1e-12)
        assert got >= -1e-12


# ---------------------------------------------------------------------------
# Width-volume constants
# ---------------------------------------------------------------------------


def test_pal_firey_constants():
    assert pal_constant(2).to_float() == pytest.approx(1 / math.sqrt(3), rel=1e-13)
    assert pal_constant(3).to_float() == pytest.approx(1 / (3 * math.sqrt(3)), rel=1e-13)


def test_bezdek_small_dimensions():
    # odd d = 3: sqrt(3 * 4!! / (2 * (3!!)^5)) = sqrt(24/486) = 2/9
    assert pal_constant(3, "bezdek").to_float() == pytest.approx(2.0 / 9.0, rel=1e-13)
    # even d = 4: sqrt(3 pi 6!! / (5^2 (4!!)^2 (3!!)^3))
    direct = math.sqrt(3 * math.pi * 48 / (25 * 64 * 27))
    assert pal_constant(4, "bezdek").to_float() == pytest.approx(direct, rel=1e-13)


def test_bezdek_beats_pal_firey():
    for d in range(3, 21):
        bezdek = pal_constant(d, "bezdek").log_magnitude
        assert bezdek > pal_constant(d, "pal_firey").log_magnitude


def test_pal_constant_validation():
    with pytest.raises(DomainError):
        pal_constant(2, "bezdek")
    with pytest.raises(ConfigurationError):
        pal_constant(3, "improved")
    with pytest.raises(DomainError):
        pal_constant(1)


# ---------------------------------------------------------------------------
# j_n
# ---------------------------------------------------------------------------


def test_j_n_at_rho_one_dim_two():
    # 4 pi (K_3 / w_3)^(2/3) with K_3/w_3 = 1/(4 sqrt(3) pi)
    expected = 4 * math.pi * (1.0 / (4 * math.sqrt(3) * math.pi)) ** (2.0 / 3.0)
    assert j_n(2, 1.0).to_float() == pytest.approx(expected, rel=1e-13)
    assert j_n(2, 1.0).to_float() == pytest.approx(1.6119919540164696, rel=1e-12)


@given(rho=st.floats(min_value=1.0, max_value=1e8), n=st.integers(min_value=2, max_value=40))
@settings(max_examples=150)
def test_j_n_scaling_homogeneity(rho, n):
    doubled = j_n(n, 2.0 * rho).log_magnitude
    base = j_n(n, rho).log_magnitude - n * math.log(2.0)
    assert doubled == pytest.approx(base, abs=1e-12)


def test_j_n_bezdek_dominates_for_n3():
    for rho in (1.0, 1.3, 2.0, 10.0, 1e4):
        bezdek = j_n(3, rho, "bezdek").log_magnitude
        assert bezdek > j_n(3, rho, "pal_firey").log_magnitude


def test_j_n_validation():
    with pytest.raises(DomainError):
        j_n(2, 0.999)


# ---------------------------------------------------------------------------
# a_n, b_n, c_n
# ---------------------------------------------------------------------------


def test_a_b_small_values():
    table = constants_table(np.array([2, 3]))
    a, b = np.exp(table.log_a), np.exp(table.log_b)
    assert a[0] == pytest.approx(1.2696424512501422, rel=1e-12)
    assert b[0] == pytest.approx(1.0, rel=1e-12)
    assert b[1] == pytest.approx(1.0 / (math.pi - 1.0), rel=1e-12)


def test_ab_ratio_trend_toward_limit():
    # approach is from below and (past n ~ 10^3) the gap shrinks steadily;
    # between 10^2 and 10^3 a log-term hump makes the gap grow briefly
    ratios = constants_table(np.array([1_000, 10_000, 100_000])).ab_ratio
    assert all(r < TWO_SQRT_E for r in ratios)
    gaps = [TWO_SQRT_E - r for r in ratios]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.005


def test_c_n_solves_crossing_equation_dim2():
    # at n = 2, c_2 equals the right-hand side rho(rho-1) itself
    k3_over_w3 = 1.0 / (4 * math.sqrt(3) * math.pi)
    rhs = 8 * math.pi * k3_over_w3 ** (2.0 / 3.0)
    log_c2 = constants_table(np.array([2])).log_c[0]
    assert math.exp(log_c2) == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# rho_star / h_n
# ---------------------------------------------------------------------------


def test_rho_star_dim2_residual_oracle():
    rho, branch = rho_star(2)
    k3_over_w3 = 1.0 / (4 * math.sqrt(3) * math.pi)
    rhs = 8 * math.pi * k3_over_w3 ** (2.0 / 3.0)
    assert branch == "second"
    assert rho * (rho - 1.0) == pytest.approx(rhs, rel=1e-10)
    assert rho == pytest.approx(2.3638626312131855, rel=1e-12)


def test_crossing_equality_within_tol():
    for n in (2, 3, 5, 17, 101, 1000):
        for kind in ("pal_firey", "bezdek"):
            result = solve_crossing(n, kind)
            assert result.residual <= 1e-12
            gap = abs(
                i_n(n, result.rho_star).log_magnitude
                - j_n(n, result.rho_star, kind).log_magnitude
            )
            assert gap <= 1e-10


def test_solve_crossing_is_the_cached_table_of_one():
    for n in (2, 3, 40):
        for kind in ("pal_firey", "bezdek"):
            assert solve_crossing(n, kind) == constants_table(np.array([n]), kind).crossing(0)
    calls = cmod._table_of_one.cache_info().hits
    solve_crossing(7), h_n(7), rho_star(7), suboptimality_factor(7)
    assert cmod._table_of_one.cache_info().hits >= calls + 3


def test_branch_flag_matches_coefficient_comparison():
    table = constants_table(np.arange(2, 1001))
    for n, expects_second in zip(range(2, 1001), table.log_a > table.log_b):
        result = solve_crossing(n)
        assert (result.branch == "second") == expects_second
        # equivalent characterization: past the branch point iff second branch
        assert (result.rho_star > rho_n(n)) == expects_second


def test_rho_star_bracketed_by_c_n():
    ns = (50, 500, 5000)
    for n, log_c in zip(ns, constants_table(np.array(ns)).log_c):
        c = math.exp(log_c)
        rho, _ = rho_star(n)
        assert 1.0 + c - c * c / (n - 1.0) <= rho <= 1.0 + c + 1e-15


def test_an_unbracketed_crossing_reports_the_searched_rho_window():
    # n = 1 has nm1 = 0, so g > 0 over the whole bracket; with c_n = 1 the
    # solver searched rho in [1 + c/(1 + c), 1 + c] = [1.5, 2]
    with pytest.raises(NumericalError, match="failed to bracket") as excinfo:
        cmod._solve_second_branch(np.array([1]), np.array([0.0]), "pal_firey")
    diagnostics = excinfo.value.diagnostics
    assert (diagnostics["n"], diagnostics["rho_window"]) == (1, (1.5, 2.0))


def _gather_loop_crossing(ns, log_c):
    """_solve_second_branch as a per-row oracle: each bisection step gathers
    the live rows' brackets and coefficients by index and scatters the new
    brackets back.  Also returns the step at which each row converged."""
    nm1 = ns - 1.0

    def g(v, log_c, nm1):
        return np.log1p(np.exp(v + log_c)) + nm1 * v

    lo = -np.log1p(np.exp(log_c))
    hi = np.zeros_like(lo)
    steps = np.full(len(ns), -1)
    live = np.arange(len(ns))
    for step in range(120):
        if not live.size:
            break
        l, h = lo[live], hi[live]
        mid = 0.5 * (l + h)
        below = g(mid, log_c[live], nm1[live]) <= 0.0
        l, h = np.where(below, mid, l), np.where(below, h, mid)
        lo[live], hi[live] = l, h
        done = h - l <= 1e-15 * np.maximum(1.0, np.abs(l))
        steps[live[done]] = step
        live = live[~done]
    v = 0.5 * (lo + hi)
    for _ in range(2):
        w = np.exp(v + log_c)
        v = v - g(v, log_c, nm1) / (w / (1.0 + w) + nm1)
    return v + log_c, steps


@pytest.mark.parametrize("kind", ["pal_firey", "bezdek"])
@pytest.mark.parametrize("ns", [
    np.array([2, 3, 10, 10**3, 10**5, 10**6]),
    np.arange(5000, 1, -1),
], ids=["spread", "dense-reversed"])
def test_bisection_equals_the_gather_loop_bit_for_bit(kind, ns):
    log_c = constants_table(ns, kind).log_c
    oracle, steps = _gather_loop_crossing(ns, log_c)
    # every row converged, and not all at one step, so rows leave the
    # working copies while others still bisect
    assert steps.min() >= 0 and len(set(steps.tolist())) > 1
    assert cmod._solve_second_branch(ns, log_c, kind).tobytes() == oracle.tobytes()


def test_h2_pipeline_value():
    assert h_n(2).log_magnitude == pytest.approx(-1.2431233256961722, abs=1e-12)
    assert h_n(2).to_float() == pytest.approx(0.28848178680188825, rel=1e-12)


def test_h_n_decreasing():
    values = [h_n(n).log_magnitude for n in range(2, 51)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_quoted_closed_form_differs_from_pipeline():
    quoted = quoted_closed_form_h2()
    assert quoted == pytest.approx(0.22379194175891923, rel=1e-15)
    pipeline = h_n(2).to_float()
    # the two are genuinely different quantities; neither overrides the other
    assert abs(quoted - pipeline) > 0.06


def test_deep_dimension_log_value():
    assert solve_crossing(150).log_h == pytest.approx(-617.8318009855368, abs=1e-8)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------


def test_envelope_matches_j_at_one():
    for n in (2, 3, 10):
        assert envelope_b_n(n, 1.0).log_magnitude == j_n(n, 1.0).log_magnitude


def test_envelope_at_crossing_equals_h():
    for n in (2, 3, 10, 50):
        result = solve_crossing(n)
        env = envelope_b_n(n, result.rho_star).log_magnitude
        assert env == pytest.approx(result.log_h, abs=1e-10)


def test_envelope_large_rho_limit():
    # i_n's outer branch tends to w_{n-2} / (n (n-1) 2^(n-2))
    from dispbound.numerics import LOG_2, log_unit_ball_volume

    for n in (2, 3, 6):
        limit = (
            log_unit_ball_volume(n - 2)
            - math.log(n)
            - math.log(n - 1)
            - (n - 2) * LOG_2
        )
        assert envelope_b_n(n, 1e9).log_magnitude == pytest.approx(limit, abs=1e-8)


def test_single_sign_change_of_crossing_gap():
    grid = np.geomspace(1.0 + 1e-9, 1e6, 4000)
    for n in (2, 3, 10, 50):
        signs = np.sign(
            [i_n(n, float(r)).log_magnitude - j_n(n, float(r)).log_magnitude for r in grid]
        )
        flips = int(np.count_nonzero(np.diff(signs) != 0))
        assert flips == 1


def test_envelope_minimum_is_h():
    # the envelope is the max of an increasing and a decreasing curve, so
    # its global minimum sits exactly at the crossing
    for n in (2, 5):
        result = solve_crossing(n)
        grid = np.concatenate([np.geomspace(1.0 + 1e-9, 1e5, 3000), [result.rho_star]])
        env = np.array([envelope_b_n(n, float(r)).log_magnitude for r in grid])
        assert float(env.min()) >= result.log_h - 1e-9
        assert int(env.argmin()) == len(grid) - 1


ORACLE_RHOS = (1.0001, 1.1, 1.5, 1.796, 2.0, 3.0, 7.5, 100.0, 1e6)


def _envelope_oracle(n: int, rho: float) -> dict:
    """ln i_n, ln i_bar_n, ln i*_n and ln j_n (both kinds) at 40 digits,
    from their closed forms; rho = 1 gives j_n alone."""
    with mpmath.workdps(40):
        n, rho = mpmath.mpf(n), mpmath.mpf(rho)
        log_pi, log_2 = mpmath.log(mpmath.pi), mpmath.log(2)

        def log_w(k):  # unit k-ball volume
            return k / 2 * log_pi - mpmath.loggamma(k / 2 + 1)

        d = n + 1  # the width-volume constant's dimension
        df = mpmath.fac2
        if d % 2 == 0:
            bezdek = (mpmath.log(3) + (d - 3) * log_pi + mpmath.log(df(d + 2))
                      - 2 * mpmath.log(d + 1) - 2 * mpmath.log(df(d)) - 3 * mpmath.log(df(d - 1)))
        else:
            bezdek = (mpmath.log(3) + (d - 3) * log_pi + mpmath.log(df(d + 1))
                      - (d - 2) * log_2 - 5 * mpmath.log(df(d)))
        log_widths = {
            "pal_firey": log_2 - mpmath.log(3) / 2 - mpmath.loggamma(d + 1),
            "bezdek": bezdek / 2,
        }
        log_sphere = mpmath.log(2 * mpmath.pi) + log_w(n - 1)
        out = {
            ("j_n", kind): float(log_sphere + n / d * (lw - log_w(d)) - n * mpmath.log(rho))
            for kind, lw in log_widths.items()
        }
        if rho == 1:
            return out
        log_q = mpmath.log((rho - 1) / rho)
        branch_point = (n - 1) * mpmath.exp(log_w(n - 1)) / (
            (n - 1) * mpmath.exp(log_w(n - 1)) - mpmath.exp(log_w(n - 2))
        )
        if rho <= branch_point:
            log_i = log_w(n - 1) - mpmath.log(n) - (n - 2) * log_2 + n * log_q
        else:
            log_i = (log_w(n - 2) - mpmath.log(n) - mpmath.log(n - 1) - (n - 2) * log_2
                     + (n - 1) * log_q)
        log_star = log_w(n) - (n - 1) * log_2
        out["i_n"] = float(log_i)
        out["i_bar_n"] = float(log_star + (n - 1) * log_q + mpmath.log1p((n - 1) / rho))
        out["i_star_n"] = float(log_star + n * log_q)
        return out


@pytest.mark.parametrize("n", range(2, 41))
def test_envelope_matches_forty_digit_closed_forms(n):
    functions = {"i_n": i_n, "i_bar_n": i_bar_n, "i_star_n": i_star_n}
    for rho in (1.0, *ORACLE_RHOS):
        for key, want in _envelope_oracle(n, rho).items():
            if key in functions:
                got = functions[key](n, rho).log_magnitude
            else:
                got = j_n(n, rho, key[1]).log_magnitude
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (key, rho)


def test_envelope_functions_read_one_cached_row_per_kind():
    cmod._envelope.cache_clear()
    grid = np.geomspace(1.0 + 1e-6, 1e4, 50).tolist()
    for rho in grid:
        for envelope in (i_n, i_bar_n, i_star_n):
            envelope(7, rho)
    i_n_limit(7)
    assert cmod._envelope.cache_info().misses == 1  # all on the default kind
    for kind in ("pal_firey", "bezdek"):
        for rho in grid:
            j_n(7, rho, kind)
            envelope_b_n(7, rho, kind)
    assert cmod._envelope.cache_info().misses == 2


# ---------------------------------------------------------------------------
# reference constants
# ---------------------------------------------------------------------------


def test_sphere_reference_dim2():
    assert sphere_reference(2).to_float() == pytest.approx(4.0 / math.pi, rel=1e-13)


def test_suboptimality_times_sqrt_factorial_bounded_on_window():
    from dispbound.numerics import log_gamma

    for n in range(2, 61):
        value = math.exp(
            suboptimality_factor(n).log_magnitude + 0.5 * log_gamma(n + 1.0)
        )
        assert 0.0 < value <= 100.0


# ---------------------------------------------------------------------------
# rows and scans
# ---------------------------------------------------------------------------


def test_constants_row_invariants():
    for n in (2, 3, 10, 30):
        for kind in ("pal_firey", "bezdek"):
            row = constants_row(n, kind)
            assert row.rho_star > 1.0
            assert (row.branch == "second") == (row.a_n > row.b_n)
            gap = abs(
                i_n(n, row.rho_star).log_magnitude
                - j_n(n, row.rho_star, kind).log_magnitude
            )
            assert gap <= 1e-10
            assert math.exp(row.log_h_n) == pytest.approx(
                j_n(n, row.rho_star, kind).to_float(), rel=1e-10
            )


def test_scan_ab_no_violations_and_min_at_two():
    scan = scan_ab(2, 2000)
    assert isinstance(scan, AbScan)
    assert scan.violations == 0
    assert scan.argmin_n == 2
    assert scan.min_ratio == pytest.approx(1.2696424512501422, rel=1e-10)
    assert scan.ratios is not None and len(scan.ratios) == 1999
    assert scan.ratios.min() > 1.0


def test_scan_ab_matches_scalar_endpoints():
    scan = scan_ab(2, 5000)
    scalar = constants_table(np.array([5000])).ab_ratio[0]
    assert scan.ratio_at_max == pytest.approx(scalar, rel=1e-12)
    assert scan.ratios is None  # range too large to retain


def test_scan_branch_criterion_sampled_to_1e5():
    scan = scan_ab(2, 100_000)
    assert scan.violations == 0
    ns = (2, 3, 17, 1_000, 31_623, 100_000)
    table = constants_table(np.array(ns))
    for n, ratio_positive in zip(ns, table.log_a > table.log_b):
        _, branch = rho_star(n)
        assert (branch == "second") == ratio_positive


def test_scan_validation():
    with pytest.raises(ConfigurationError):
        scan_ab(5, 4)
    with pytest.raises(ConfigurationError):
        scan_ab(2, 10**6 + 1)


# ---------------------------------------------------------------------------
# the constants table
# ---------------------------------------------------------------------------

TABLE_NS = np.array(list(range(2, 401)) + [1000, 5000])

# ln h_n as computed by the scalar per-n pipeline this table replaced
SCALAR_LOG_H = {
    2: -1.2431233256961758,
    3: -2.9520264550055977,
    45: -135.4965696188905,
    354: -1748.4551574595241,
    1000: -5949.181598177608,
    5000: -37678.65907624153,
    10_000: -82234.58272743683,
    100_000: -1051708.0855953703,
}


@pytest.mark.parametrize("kind", ["pal_firey", "bezdek"])
def test_table_rows_equal_tables_of_one(kind):
    # exact equality: a row must not depend on the batch it was computed in
    table = constants_table(TABLE_NS, kind)
    assert table.kind == kind and list(table.n) == list(TABLE_NS)
    for i, n in enumerate(TABLE_NS):
        assert table.row(i) == constants_row(int(n), kind)
        assert table.crossing(i) == solve_crossing(int(n), kind)


def test_table_keeps_input_order():
    forward = constants_table(np.array([7, 300, 2]))
    backward = constants_table(np.array([2, 300, 7]))
    assert list(forward.log_h) == list(backward.log_h[::-1])


def test_scan_ratios_are_the_table_ratios():
    table = constants_table(np.arange(2, 1501))
    scan = scan_ab(2, 1500)
    assert scan.ratios.tobytes() == table.ab_ratio.tobytes()


@pytest.mark.parametrize("n, expected", sorted(SCALAR_LOG_H.items()))
def test_log_h_within_two_ulp_of_scalar_pipeline(n, expected):
    (log_h,) = constants_table(np.array([n])).log_h
    assert abs(log_h - expected) <= 2 * math.ulp(expected)


def test_table_residual_failure_names_first_n(monkeypatch):
    # a root off by 1e-12 relative in ln(rho - 1) is hundreds of rounding
    # bounds away from the crossing, from n = 40 on
    solve = cmod._solve_second_branch

    def perturbed(ns, log_c, kind):
        v = solve(ns, log_c, kind)
        return np.where(ns >= 40, v * (1.0 + 1e-12), v)

    monkeypatch.setattr(cmod, "_solve_second_branch", perturbed)
    with pytest.raises(NumericalError) as excinfo:
        constants_table(np.arange(2, 60))
    assert excinfo.value.diagnostics["n"] == 40
    assert excinfo.value.diagnostics["residual"] > 100 * excinfo.value.diagnostics["bound"]
    # solve_crossing reads the cached table of one: drop any entry for n = 41
    # that an earlier test computed with the unpatched solver
    cmod._table_of_one.cache_clear()
    with pytest.raises(NumericalError) as excinfo:
        solve_crossing(41)
    assert excinfo.value.diagnostics["n"] == 41


def test_dimension_1e18_raises_no_float_warning():
    # at n = 10^18 the gap g of b_n = 1/expm1(g) rounds to 0, so log1p(-1)
    # is -inf; under filterwarnings = error no divide warning may escape.
    # The envelope values are those computed with warnings ignored, and the
    # table still refuses the row as a_n <= b_n.
    import warnings

    n = 10**18
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cmod._envelope.cache_clear()
        quiet = (i_n_limit(n), i_star_n(n, 2.0), i_bar_n(n, 2.0))
    cmod._envelope.cache_clear()
    assert (i_n_limit(n), i_star_n(n, 2.0), i_bar_n(n, 2.0)) == quiet
    assert all(math.isfinite(v.log_magnitude) for v in quiet)
    with pytest.raises(NumericalError, match="a_n <= b_n") as excinfo:
        constants_table(np.array([n]))
    assert excinfo.value.diagnostics["log_b"] == math.inf


def test_a_first_branch_crossing_is_refused(monkeypatch):
    # no n in 2..1e6 has a_n <= b_n (scan-ab reports one as a violation), so
    # the table refuses such an n instead of solving the first branch
    log_a_b = cmod._log_a_b

    def first_branch(ns, kind, *log_df):
        log_a, _, *rest = log_a_b(ns, kind, *log_df)
        return (log_a, log_a + 1.0, *rest)

    monkeypatch.setattr(cmod, "_log_a_b", first_branch)
    with pytest.raises(NumericalError, match="n = 2") as excinfo:
        constants_table(np.arange(2, 2001))
    diagnostics = excinfo.value.diagnostics
    assert (diagnostics["n"], diagnostics["kind"]) == (2, "pal_firey")
    assert diagnostics["log_b"] == diagnostics["log_a"] + 1.0


def test_residuals_stay_under_their_rounding_bound_to_one_million():
    # an absolute 1e-10 gate failed first at n = 71,784, where one ulp of
    # the terms is ~5.8e-11; the gate now scales with the terms.  Chunked
    # to keep memory down: rows do not depend on each other.
    for start in range(2, 10**6 + 1, 250_000):
        table = constants_table(np.arange(start, min(start + 250_000, 10**6 + 1)))
        # a_n > b_n puts every crossing on the second branch
        assert np.all(table.log_a > table.log_b)
        assert [table.crossing(i).branch for i in (0, -1)] == ["second", "second"]
        assert np.all(np.isfinite(table.log_h))
    assert table.n[-1] == 10**6


def _crossing_oracle(n: int) -> tuple[float, float]:
    """rho* and ln h_n (Pal-Firey) from a 50-digit solve of
    rho (rho-1)^(n-1) = pi n (n-1) 2^(n-1) (w_{n-1}/w_{n-2}) (C_{n+1}/w_{n+1})^(n/(n+1)),
    with ln h_n taken from i_n's second branch, not from j_n."""
    with mpmath.workdps(50):
        n = mpmath.mpf(n)
        log_pi, log_2 = mpmath.log(mpmath.pi), mpmath.log(2)

        def log_w(k):  # unit k-ball volume
            return k / 2 * log_pi - mpmath.loggamma(k / 2 + 1)

        log_c_over_w = log_2 - mpmath.log(3) / 2 - mpmath.loggamma(n + 2) - log_w(n + 1)
        log_rhs = (
            log_pi + mpmath.log(n) + mpmath.log(n - 1) + (n - 1) * log_2
            + log_w(n - 1) - log_w(n - 2) + n / (n + 1) * log_c_over_w
        )
        log_delta = mpmath.findroot(
            lambda u: (n - 1) * u + mpmath.log1p(mpmath.exp(u)) - log_rhs,
            log_rhs / (n - 1),
        )
        rho = 1 + mpmath.exp(log_delta)
        log_h = (
            log_w(n - 2) - mpmath.log(n) - mpmath.log(n - 1) - (n - 2) * log_2
            + (n - 1) * (log_delta - mpmath.log(rho))
        )
        return float(rho), float(log_h)


@pytest.mark.parametrize("n", [71_784, 10**5, 5 * 10**5, 10**6])
def test_crossing_matches_fifty_digit_oracle(n):
    result = solve_crossing(n)
    rho, log_h = _crossing_oracle(n)
    assert abs(result.rho_star - rho) <= cmod.RESIDUAL_EPS * math.ulp(rho)
    assert abs(result.log_h - log_h) <= cmod.RESIDUAL_EPS * math.ulp(log_h)


def test_table_validation():
    for bad in ([1, 2], [2.0, 3.0], [[2, 3]], [True, True]):
        with pytest.raises(DomainError):
            constants_table(np.array(bad))
    with pytest.raises(ConfigurationError):
        constants_table(np.array([2, 3]), kind="improved")
    assert len(constants_table(np.array([], dtype=np.int64)).log_h) == 0


def test_table_validation_names_the_refused_entry():
    # numpy's repr of this array is [2, 3, 4, ..., 1997, 1998, 1999]: the 1
    # is elided, so the message names it and its index
    with pytest.raises(DomainError, match=r"got 1 at index 998$"):
        constants_table(np.r_[2:1000, 1, 1000:2000])
    with pytest.raises(DomainError, match=r"got 'x' at index 1$"):
        constants_table(np.array([2, "x"], dtype=object))
    with pytest.raises(DomainError, match=r"got a 1-d float64 array$"):
        constants_table(np.arange(2.0, 2000.0))


# ---------------------------------------------------------------------------
# The ball volumes behind a_n and b_n: one pass over a dense range
# ---------------------------------------------------------------------------

BALL_VOLUME_INPUTS = {
    "contiguous": np.arange(2, 3001),
    "reversed": np.arange(3000, 1, -1),
    "sparse": np.array([100, 1000, 10_000, 100_000, 1_000_000]),
    "single": np.array([41]),
    "two": np.array([2]),  # needs ln w_0 = 0
    "empty": np.array([], dtype=np.int64),
}


@pytest.mark.parametrize("name", sorted(BALL_VOLUME_INPUTS))
def test_dense_ball_volume_pass_equals_one_pass_per_shift(monkeypatch, name):
    ns = BALL_VOLUME_INPUTS[name]
    monkeypatch.setattr(cmod, "DENSE_SPAN_PER_N", 10**9)  # every nonempty input dense
    dense = cmod._log_a_b(ns, "pal_firey")
    monkeypatch.setattr(cmod, "DENSE_SPAN_PER_N", 0)  # every input per shift
    per_shift = cmod._log_a_b(ns, "pal_firey")
    for a, b in zip(dense, per_shift, strict=True):
        assert a.shape == ns.shape
        assert np.array_equal(a, b)


def test_ball_volume_route_follows_the_input_span(monkeypatch):
    sizes = []
    volumes = cmod.log_unit_ball_volume_array

    def counted(n):
        sizes.append(len(n))
        return volumes(n)

    monkeypatch.setattr(cmod, "log_unit_ball_volume_array", counted)
    for ns, expected in (
        (np.arange(2, 5001), [5002]),  # 2-2 .. 5000+1
        (np.arange(5000, 1, -1), [5002]),
        (np.array([2, 2 * 10**6]), [2, 2, 2]),
        (np.array([7]), [1, 1, 1]),
    ):
        sizes.clear()
        cmod._log_a_b(ns, "pal_firey")
        assert sizes == expected


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_stays_within_one_block():
    # a 16,384-row block's float64 temporaries are 128 KiB each; at most
    # 24 are alive at once (about 20 are), whatever the range
    peaks = {n_max: _traced_peak(lambda: scan_ab(2, n_max)) for n_max in (10**5, 10**6)}
    assert peaks[10**6] <= 24 * 16_384 * 8
    assert peaks[10**6] <= 1.1 * peaks[10**5]


def test_a_huge_sparse_span_is_never_allocated():
    # a dense pass over 2 - 2 .. 2e6 + 1 would hold several 16 MB arrays
    tracemalloc.start()
    try:
        table = constants_table(np.array([2, 2 * 10**6]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert [table.crossing(i).branch for i in range(2)] == ["second", "second"]


@pytest.mark.parametrize("call", [
    lambda n: constants_table(np.array([2, n]), "bezdek"),
    lambda n: pal_constant(n + 1, "bezdek"),
    lambda n: j_n(n, 2.0, "bezdek"),
], ids=["constants_table", "pal_constant", "j_n"])
def test_a_huge_bezdek_dimension_is_refused_before_any_allocation(call):
    # the Bezdek route builds every ln k!! up to its top in a Python loop;
    # past the 10^6 dimensions it is checked on, it is refused up front
    tracemalloc.start()
    try:
        for n in (10**6 + 1, 10**15):
            with pytest.raises(DomainError, match=r"up to 10\^6 \+ 3"):
                call(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(DomainError, match=r"up to 10\^6 \+ 3, got 1000004"):
        numerics.log_double_factorials(10**6 + 4)


# ---------------------------------------------------------------------------
# Blocks: every kernel runs BLOCK rows at a time, and no row's bits or any
# error depend on where the blocks fall
# ---------------------------------------------------------------------------

BLOCK_SIZES = (1, 7, 4096)
ONE_BLOCK = 10**9
TABLE_COLUMNS = (
    "n", "rho_n", "log_a", "log_b", "log_c", "log_delta", "rho_star",
    "residual", "log_h", "log_sphere",
)


def _in_blocks(monkeypatch, block, run):
    monkeypatch.setattr(cmod, "BLOCK", block)
    try:
        return run()
    finally:
        monkeypatch.setattr(cmod, "BLOCK", ONE_BLOCK)


def test_row_blocks_cover_the_rows_once(monkeypatch):
    monkeypatch.setattr(cmod, "BLOCK", 7)
    assert cmod.row_blocks(0) == []
    assert cmod.row_blocks(7) == [slice(0, 7)]
    assert cmod.row_blocks(16) == [slice(0, 7), slice(7, 14), slice(14, 16)]


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_scan_in_blocks_equals_one_block(monkeypatch, block):
    for n_min, n_max in ((2, 2000), (2, 2), (1990, 6000) if block > 1 else (1990, 2600)):
        whole = _in_blocks(monkeypatch, ONE_BLOCK, lambda: scan_ab(n_min, n_max))
        split = _in_blocks(monkeypatch, block, lambda: scan_ab(n_min, n_max))
        for field in ("n_min", "n_max", "violations", "argmin_n"):
            assert getattr(split, field) == getattr(whole, field)
        for field in ("min_ratio", "ratio_at_max", "limit_gap_at_max"):
            assert getattr(split, field).hex() == getattr(whole, field).hex()
        if n_max - n_min + 1 < cmod.SCAN_KEEP_RATIOS_BELOW:
            assert split.ratios.tobytes() == whole.ratios.tobytes()
        else:
            assert split.ratios is None and whole.ratios is None


@pytest.mark.parametrize("kind", ["pal_firey", "bezdek"])
@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_table_in_blocks_equals_one_block_bit_for_bit(monkeypatch, kind, block):
    # ranges that straddle block edges, start and end mid-block, and a
    # sparse, unordered input
    span = {1: 70, 7: 400, 4096: 9000}[block]
    for ns in (np.arange(2, span), np.arange(5, span + 3), np.array([9, 2, 10**5, 40, 3])):
        whole = _in_blocks(monkeypatch, ONE_BLOCK, lambda: constants_table(ns, kind))
        split = _in_blocks(monkeypatch, block, lambda: constants_table(ns, kind))
        for name in TABLE_COLUMNS:
            a, b = getattr(split, name), getattr(whole, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_bezdek_table_builds_its_double_factorials_once(monkeypatch):
    tops = []
    build = cmod.log_double_factorials

    def counted(top):
        tops.append(top)
        return build(top)

    # the table's own call and any through log_double_factorial_array
    monkeypatch.setattr(cmod, "log_double_factorials", counted)
    monkeypatch.setattr(numerics, "log_double_factorials", counted)
    monkeypatch.setattr(cmod, "BLOCK", 100)
    constants_table(np.arange(2, 2000), "bezdek")
    assert tops == [2002]  # (n+1)+2 at the largest n, for 20 blocks
    constants_table(np.arange(2, 2000), "pal_firey")
    assert tops == [2002]


def _nan_at(ns, values, n):
    return np.where(ns == n, np.nan, values)


def _doctor(monkeypatch, first_branch_at=None, unbracketed_at=None, residual_from=None):
    """Make a_n <= b_n, an unbracketable crossing, or a residual past its
    bound appear at chosen n."""
    log_a_b, solve = cmod._log_a_b, cmod._solve_second_branch

    def doctored_a_b(ns, kind, *log_df):
        log_a, log_b, log_nm1, lv_nm1, lv_nm2, log_width = log_a_b(ns, kind, *log_df)
        if first_branch_at is not None:
            log_b = np.where(ns == first_branch_at, log_a + 1.0, log_b)
        if unbracketed_at is not None:  # a NaN c_n has no sign change
            lv_nm1 = _nan_at(ns, lv_nm1, unbracketed_at)
        return log_a, log_b, log_nm1, lv_nm1, lv_nm2, log_width

    def doctored_solve(ns, log_c, kind):
        v = solve(ns, log_c, kind)
        if residual_from is None:
            return v
        return np.where(ns >= residual_from, v * (1.0 + 1e-12), v)

    monkeypatch.setattr(cmod, "_log_a_b", doctored_a_b)
    monkeypatch.setattr(cmod, "_solve_second_branch", doctored_solve)


@pytest.mark.parametrize(
    "faults, message, first_n",
    [
        # a_n <= b_n wins over an unbracketed crossing in an earlier block
        ({"first_branch_at": 60, "unbracketed_at": 20}, "a_n <= b_n", 60),
        # an unbracketed crossing wins over a residual failure in an earlier block
        ({"unbracketed_at": 50, "residual_from": 40}, "failed to bracket", 50),
        ({"residual_from": 40}, "residual exceeds", 40),
    ],
)
def test_a_later_block_fails_with_the_one_block_error(monkeypatch, faults, message, first_n):
    _doctor(monkeypatch, **faults)
    errors = []
    for block in (ONE_BLOCK, *BLOCK_SIZES):
        monkeypatch.setattr(cmod, "BLOCK", block)
        with pytest.raises(NumericalError, match=message) as excinfo:
            constants_table(np.arange(2, 80))
        errors.append((str(excinfo.value), repr(excinfo.value.diagnostics)))
    assert errors == [errors[0]] * len(errors)
    assert f"'n': {first_n}," in errors[0][1]
