"""Tests for the log-domain values and special functions."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dispbound.constants import constants_table
from dispbound.errors import DomainError
from dispbound.numerics import (
    BINET_COEFFICIENTS,
    DECODE_LIMIT,
    LogReal,
    decode_logs,
    log_double_factorial_array,
    log_double_factorials,
    log_gamma,
    log_gamma_array,
    log_unit_ball_volume,
    log_unit_ball_volume_array,
    log_unit_sphere_area,
)

# ---------------------------------------------------------------------------
# log_gamma
# ---------------------------------------------------------------------------


def test_log_gamma_integer_factorial():
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)


def test_log_gamma_half():
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


def test_log_gamma_large_against_log_factorial_sum():
    oracle = math.fsum(math.log(k) for k in range(1, 1001))  # ln 1000!
    assert abs(log_gamma(1001.0) - oracle) <= 1e-12 * abs(oracle)


@pytest.mark.parametrize("z", [10.0, 50.0, 100.0, 1000.0])
def test_binet_error_decreases_with_series_terms(z):
    oracle = math.lgamma(z)
    stirling = (z - 0.5) * math.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    errors = []
    for k in range(2, 6):  # the first k module coefficients
        tail = sum(c / z ** (2 * j + 1) for j, c in enumerate(BINET_COEFFICIENTS[:k]))
        errors.append(abs(stirling + tail - oracle) / abs(oracle))
    for prev, cur in zip(errors, errors[1:]):
        if prev <= 1e-13:
            break
        assert cur < prev
    assert abs(log_gamma(z) - oracle) <= 1e-13 * abs(oracle)


def test_binet_coefficients_are_bernoulli_ratios():
    # B_2k / (2k (2k-1)) for k = 1..5, each the float nearest the rational
    expected = tuple(
        float(sympy.bernoulli(2 * k) / (2 * k * (2 * k - 1))) for k in range(1, 6)
    )
    assert BINET_COEFFICIENTS == expected


def test_log_gamma_matches_stdlib_on_grid():
    for z in np.geomspace(0.05, 5e5, 200):
        assert log_gamma(float(z)) == pytest.approx(math.lgamma(z), abs=1e-10, rel=1e-12)


def test_log_gamma_array_matches_scalar():
    zs = np.geomspace(0.1, 1e6, 50)
    assert [log_gamma(z) for z in zs.tolist()] == log_gamma_array(zs).tolist()


def _log_gamma_oracle(zs):
    """The Binet kernel written plainly: the shift as a loop over a boolean
    mask of the whole array, every array zero-filled, and the power of z
    carried one term past the last."""
    work, shift = zs.copy(), np.zeros_like(zs)
    mask = work < 10.0
    while np.any(mask):
        shift[mask] += np.log(work[mask])
        work[mask] += 1.0
        mask = work < 10.0
    tail, z_sq, z_pow = np.zeros_like(work), work * work, work.copy()
    for coeff in BINET_COEFFICIENTS:
        tail += coeff / z_pow
        z_pow *= z_sq
    return (work - 0.5) * np.log(work) - work + 0.5 * math.log(2.0 * math.pi) + tail - shift


LOG_GAMMA_INPUTS = {
    "mixed": np.concatenate([np.geomspace(0.01, 20.0, 5000), np.arange(1, 40) * 0.5]),
    "block-at-least-10": np.geomspace(10.0, 1e6, 16_384),  # no shift at all
    "one": np.array([3.25]),
    "one-at-least-10": np.array([12.5]),
    "min-just-below-10": np.linspace(9.999, 30.0, 64),
    "empty": np.array([]),
}


def test_log_gamma_array_shift_equals_the_mask_loop():
    for name, zs in LOG_GAMMA_INPUTS.items():
        before = zs.tobytes()
        got = log_gamma_array(zs)
        assert got.tobytes() == _log_gamma_oracle(zs).tobytes(), name
        assert zs.tobytes() == before, name  # the caller's array is never written


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("at", [0, 2_000, -1])
def test_log_gamma_array_refuses_one_bad_entry(bad, at):
    zs = np.geomspace(0.5, 1e6, 4_000)
    zs[at] = bad
    with pytest.raises(DomainError):
        log_gamma_array(zs)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, "x"])
def test_log_gamma_domain_errors(bad):
    with pytest.raises(DomainError):
        log_gamma(bad)


# ---------------------------------------------------------------------------
# Balls, spheres, double factorials
# ---------------------------------------------------------------------------


def test_unit_ball_volumes_small_dimensions():
    assert log_unit_ball_volume(0) == 0.0
    assert log_unit_ball_volume(1) == pytest.approx(math.log(2.0), rel=1e-14)
    assert log_unit_ball_volume(2) == pytest.approx(math.log(math.pi), rel=1e-14)
    assert log_unit_ball_volume(3) == pytest.approx(math.log(4 * math.pi / 3), rel=1e-14)


def test_scalar_ball_volumes_are_the_array_route_bit_for_bit():
    ns = np.arange(10**4 + 1)
    assert [log_unit_ball_volume(n) for n in ns.tolist()] == (
        log_unit_ball_volume_array(ns).tolist()
    )


def _ball_volume_oracle(n):
    # (n/2) ln pi - ln Gamma(n/2 + 1), and exactly 0 at n = 0
    nf = n.astype(float)
    out = 0.5 * nf * math.log(math.pi) - log_gamma_array(0.5 * nf + 1.0)
    return np.where(nf == 0, 0.0, out)


@pytest.mark.parametrize("ns", [
    np.arange(10**4 + 1), np.arange(1, 10**4 + 1), np.arange(10**5, 10**5 + 16_384),
    np.array([7, 0, 3, 0]),
], ids=["from-0", "from-1", "no-shift", "unordered"])
def test_ball_volumes_equal_the_plain_oracle(ns):
    assert log_unit_ball_volume_array(ns).tobytes() == _ball_volume_oracle(ns).tobytes()


def test_unit_sphere_areas_small_dimensions():
    assert log_unit_sphere_area(1) == pytest.approx(math.log(2 * math.pi), rel=1e-14)
    assert log_unit_sphere_area(2) == pytest.approx(math.log(4 * math.pi), rel=1e-14)
    assert log_unit_sphere_area(3) == pytest.approx(math.log(2 * math.pi**2), rel=1e-14)


def test_dimension_validation():
    with pytest.raises(DomainError):
        log_unit_ball_volume(-1)
    with pytest.raises(DomainError):
        log_unit_sphere_area(0)
    with pytest.raises(DomainError):
        log_double_factorial_array(np.array([0]))


def test_sphere_ball_identity_to_one_million():
    # area(n-sphere) = 2 pi * volume((n-1)-ball), on the log scale: the
    # constants table's sphere column against a separate ball-volume pass.
    # Chunked to keep memory down: rows do not depend on each other.
    for start in range(2, 10**6 + 1, 250_000):
        n = np.arange(start, min(start + 250_000, 10**6 + 1), dtype=np.int64)
        lhs = constants_table(n).log_sphere
        rhs = math.log(2 * math.pi) + log_unit_ball_volume_array(n - 1)
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-10
    assert n[-1] == 10**6


def test_sphere_area_matches_direct_gamma_formula():
    # ln 2 + ((n+1)/2) ln pi - ln Gamma((n+1)/2), assembled independently
    for n in (1, 2, 3, 10, 101, 10_000, 1_000_000):
        direct = (
            math.log(2.0)
            + 0.5 * (n + 1) * math.log(math.pi)
            - math.lgamma(0.5 * (n + 1))
        )
        assert log_unit_sphere_area(n) == pytest.approx(direct, abs=2e-9, rel=1e-12)


def test_ball_volume_ratio_bound_to_one_million():
    # 2 w_{n-1} <= n w_n for every n >= 1
    n = np.arange(1, 1_000_001, dtype=np.int64)
    lhs = math.log(2.0) + log_unit_ball_volume_array(n - 1)
    rhs = np.log(n.astype(float)) + log_unit_ball_volume_array(n)
    assert float(np.max(lhs - rhs)) <= 1e-12


def test_consecutive_ball_volume_recurrence():
    # w_n = (2 pi / n) w_{n-2}
    for n in (2, 3, 10, 101, 1000):
        lhs = log_unit_ball_volume(n)
        rhs = math.log(2 * math.pi / n) + log_unit_ball_volume(n - 2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_double_factorial_small():
    one, five, six = log_double_factorial_array(np.array([1, 5, 6]))
    assert one == 0.0
    assert five == pytest.approx(math.log(15.0), rel=1e-14)
    assert six == pytest.approx(math.log(48.0), rel=1e-14)


def test_double_factorial_identity_at_101():
    # 100!! = 2^50 * 50!, and 101!! = 101!/100!!
    log_100_dfact = 50 * math.log(2.0) + math.fsum(math.log(k) for k in range(1, 51))
    log_101_fact = math.fsum(math.log(k) for k in range(1, 102))
    at_100, at_101 = log_double_factorial_array(np.array([100, 101]))
    assert abs(at_100 - log_100_dfact) <= 1e-12 * log_100_dfact
    oracle = log_101_fact - log_100_dfact
    assert abs(at_101 - oracle) <= 1e-12 * oracle


def test_double_factorials_equal_fsum_of_logs():
    # the integer prefix sums round once, exactly as math.fsum does
    ds = np.arange(1, 5001)
    batch = log_double_factorial_array(ds)
    for d, value in zip(ds.tolist(), batch):
        assert value == math.fsum(math.log(k) for k in range(d, 1, -2))
    # a batch of one has the bits of the same d in a long batch
    assert [log_double_factorial_array(np.array([d]))[0] for d in (1, 2, 4999, 5000)] == [
        batch[0], batch[1], batch[4998], batch[4999]
    ]


def _double_factorial_loop(top):
    """ln k!! for k = 0..top by a Python loop of exact integer sums, one per
    parity class: kept as the oracle for the two-limb prefix sums."""
    prefix = np.zeros(top + 1)
    exact = [0, 0]
    for k in range(2, top + 1):
        exact[k & 1] += int(math.ldexp(math.log(k), 53))
        prefix[k] = float(exact[k & 1])
    return np.ldexp(prefix, -53)


@pytest.mark.parametrize("top", [0, 1, 2, 3, 4, 5, 17, 1000, 10**5])
def test_double_factorial_limbs_equal_the_integer_loop(top):
    want = _double_factorial_loop(top)
    assert log_double_factorials(top).tobytes() == want.tobytes()


def test_double_factorial_limbs_equal_the_integer_loop_at_the_top():
    top = 10**6 + 3
    got = log_double_factorials(top)
    ends = list(range(top - 5, top + 1))
    for k in ends:
        exact = sum(int(math.ldexp(math.log(j), 53)) for j in range(k, 1, -2))
        assert got[k] == math.ldexp(float(exact), -53), k
        assert got[k] == math.fsum(math.log(j) for j in range(k, 1, -2)), k


def test_double_factorial_array_validation():
    for bad in ([0, 3], [2.0, 3.0], [-1]):
        with pytest.raises(DomainError):
            log_double_factorial_array(np.array(bad))
    ks = np.array([[3, 4], [5, 6]])
    assert log_double_factorial_array(ks).shape == (2, 2)


# ---------------------------------------------------------------------------
# LogReal
# ---------------------------------------------------------------------------

positive_floats = st.floats(
    min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False
)


def test_logreal_log_validation():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            LogReal.from_log(bad)


def test_logreal_decode_guard():
    ok = LogReal.from_log(DECODE_LIMIT - 1.0)
    assert math.isfinite(ok.to_float())
    for mag in (DECODE_LIMIT, 1200.0, -DECODE_LIMIT, -1200.0):
        with pytest.raises(DomainError):
            LogReal.from_log(mag).to_float()


def test_decode_logs_is_to_float_over_a_column():
    logs = np.array([0.0, -3.5, 1.0 / 3.0, DECODE_LIMIT - 1.0, -(DECODE_LIMIT - 1.0)])
    assert decode_logs(logs) == [LogReal.from_log(x).to_float() for x in logs]
    assert decode_logs(np.array([])) == []
    for bad in (DECODE_LIMIT, -1200.0, math.inf, math.nan):
        with pytest.raises(DomainError) as scalar:
            LogReal.from_log(bad).to_float()
        with pytest.raises(DomainError) as column:
            decode_logs(np.array([1.0, bad, 2.0 * DECODE_LIMIT]))
        assert str(column.value) == str(scalar.value)  # the first refused entry


@given(x=positive_floats)
@settings(max_examples=300)
def test_logreal_roundtrip_full_range(x):
    decoded = LogReal.from_log(math.log(x)).to_float()
    # one float64 log field carries ~|ln x| * eps/2 of round-trip error,
    # so the achievable full-range bound is ~1.5e-13
    assert abs(decoded - x) <= 1.5e-13 * x


@given(x=st.floats(min_value=math.exp(-60.0), max_value=math.exp(60.0)))
@settings(max_examples=300)
def test_logreal_roundtrip_moderate_range(x):
    decoded = LogReal.from_log(math.log(x)).to_float()
    assert abs(decoded - x) <= 1e-14 * x
