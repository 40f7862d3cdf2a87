"""Log-domain values and the special functions everything else uses.

All factorial-scale quantities in this package (unit-ball volumes, unit-sphere
areas, width-volume constants, the dimensional constants of the displacement
bounds) are carried as natural logarithms, and the public constants hand them
out as :class:`LogReal` values.  Linear-scale decoding is only offered while
``|ln x| < 700``; beyond that a float64 either overflows or degrades to a
subnormal with no relative accuracy.

The log-gamma here is a Stirling/Binet series with five fixed Bernoulli
coefficients and an upward recurrence shift for small arguments.  It is the
basis for ball volumes and sphere areas.  Each is written once, on arrays;
a scalar value (:func:`log_gamma`, :func:`log_unit_ball_volume`,
:func:`log_unit_sphere_area`) is the array route on a batch of one.  Double
factorials come only as arrays (:func:`log_double_factorials`,
:func:`log_double_factorial_array`): exact sums of ``ln k``, rounded once,
for every k up to a top in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

LOG_2 = math.log(2.0)
LOG_PI = math.log(math.pi)
LOG_TWO_PI = math.log(2.0 * math.pi)

# exp() is useless beyond this magnitude (overflow on one side, total loss of
# relative precision on the other), so LogReal refuses to decode there.
DECODE_LIMIT = 700.0


# ---------------------------------------------------------------------------
# LogReal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogReal:
    """A positive real number stored as the natural log of its magnitude."""

    log_magnitude: float

    def __post_init__(self):
        if not math.isfinite(self.log_magnitude):
            raise DomainError(f"log magnitude must be finite, got {self.log_magnitude!r}")

    @classmethod
    def from_log(cls, log_magnitude: float) -> "LogReal":
        return cls(float(log_magnitude))

    def to_float(self) -> float:
        """Decode to a linear-scale float; only valid while |ln x| < 700."""
        if abs(self.log_magnitude) >= DECODE_LIMIT:
            raise DomainError(
                f"refusing to decode log magnitude {self.log_magnitude:.6g} "
                f"(limit {DECODE_LIMIT:g}); use the log-scale value instead"
            )
        return math.exp(self.log_magnitude)


def check_decodable(log_magnitudes: np.ndarray) -> None:
    """Raise the DomainError :meth:`LogReal.to_float` raises for the first
    entry of a column it would refuse; one vectorized check for all."""
    refused = np.flatnonzero(~(np.abs(log_magnitudes) < DECODE_LIMIT))
    if refused.size:
        LogReal.from_log(log_magnitudes[refused[0]]).to_float()  # raises


def decode_logs(log_magnitudes: np.ndarray) -> list[float]:
    """:meth:`LogReal.to_float` over a column, with one limit check for all.

    The first entry that LogReal would refuse raises the same DomainError;
    the rest decode with ``math.exp``, so each value has to_float's bits.
    """
    check_decodable(log_magnitudes)
    return [math.exp(x) for x in log_magnitudes.tolist()]


# ---------------------------------------------------------------------------
# Log-gamma via the Binet/Stirling series
# ---------------------------------------------------------------------------

#: B_2k / (2k (2k-1)) for k = 1..5, B_2k the Bernoulli numbers 1/6, -1/30,
#: 1/42, -1/30, 5/66
BINET_COEFFICIENTS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)

# arguments below this are raised with Gamma(z+1) = z Gamma(z) first; from
# here on the five-term series' remainder is O(z^-11) < 1e-12
_BINET_SHIFT = 10.0


def log_gamma(z: float) -> float:
    """ln Gamma(z) for z > 0: :func:`log_gamma_array` on a batch of one."""
    try:
        z = float(z)
    except (TypeError, ValueError):
        raise DomainError(f"log_gamma needs a real argument, got {z!r}") from None
    return float(log_gamma_array(np.array([z]))[0])


def log_gamma_array(z: np.ndarray) -> np.ndarray:
    """ln Gamma(z) over an array of finite z > 0.

    For z >= 10 this is the Binet expansion
    (z - 1/2) ln z - z + ln(2 pi)/2 + sum_k B_{2k} / (2k (2k-1) z^{2k-1});
    smaller arguments are shifted up through the recurrence first and the
    logs of the shift factors subtracted at the end.  z is never written.
    """
    z = np.asarray(z, dtype=float)
    lo = z.min() if z.size else math.inf
    if z.size and not (lo > 0.0 and z.max() < math.inf):  # a NaN min() fails too
        raise DomainError("log_gamma_array needs finite entries > 0")
    work, shift = z, None
    if lo < _BINET_SHIFT:
        work, shift = z.copy(), np.zeros_like(z)
        # the entries still below the shift bound, by index: a boolean mask
        # over the whole array costs more, on one entry or a block of them
        small = np.flatnonzero(work < _BINET_SHIFT)
        while small.size:
            raised = work[small]
            shift[small] += np.log(raised)
            raised += 1.0
            work[small] = raised
            small = small[raised < _BINET_SHIFT]
    z_sq, term = work * work, np.empty_like(work)
    tail, z_pow = BINET_COEFFICIENTS[0] / work, work
    for coeff in BINET_COEFFICIENTS[1:]:
        z_pow = z_pow * z_sq
        tail += np.divide(coeff, z_pow, out=term)
    # (work - 0.5) ln work - work + ln(2 pi)/2 + tail - shift, left to right
    out = np.log(work)
    out *= np.subtract(work, 0.5, out=term)
    out -= work
    out += 0.5 * LOG_TWO_PI
    out += tail
    if shift is not None:  # else every shift is 0, and x - 0.0 is x
        out -= shift
    return out


# ---------------------------------------------------------------------------
# Unit balls, unit spheres, double factorials
# ---------------------------------------------------------------------------


def log_unit_ball_volume(n: int) -> float:
    """ln of the volume of the unit n-ball: (n/2) ln pi - ln Gamma(n/2 + 1)."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise DomainError(f"ball dimension must be an integer >= 0, got {n!r}")
    return float(log_unit_ball_volume_array(np.array([n]))[0])


def log_unit_sphere_area(n: int) -> float:
    """ln of the area of the unit n-sphere: ln 2 + ((n+1)/2) ln pi - ln Gamma((n+1)/2).

    Evaluated in the regrouped-but-identical form ln(2 pi) + ln w_{n-1} so the
    relation between consecutive sphere areas and ball volumes holds to the
    last bit even at n ~ 1e6, where independently rounded 1e5-scale products
    would differ by ~2e-10.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise DomainError(f"sphere dimension must be an integer >= 1, got {n!r}")
    return LOG_TWO_PI + log_unit_ball_volume(n - 1)


def log_unit_ball_volume_array(n: np.ndarray) -> np.ndarray:
    """:func:`log_unit_ball_volume` over an integer array of n >= 0."""
    n = np.asarray(n)
    lo = n.min() if n.size else 1
    if lo < 0:
        raise DomainError("ball dimensions must be >= 0")
    half = 0.5 * n.astype(float)
    out = half * LOG_PI - log_gamma_array(half + 1.0)
    return np.where(n == 0, 0.0, out) if lo == 0 else out


def log_double_factorials(top: int) -> np.ndarray:
    """ln k!! for every k = 0..top (0!! = 1!! = 1): the float logs ln k for
    k, k-2, ..., 2 or 3, summed exactly and rounded once.

    For k >= 2 the float ln k is at least ln 2 > 1/2, so it is an integer
    multiple of 2^-53 below 2^57.  Prefix sums of those integers along each
    parity class are exact, so each value has the same bits as
    ``math.fsum`` of its logs, for O(top) work in all instead of O(k) per
    value.  The sums pass 2^63, so each integer is split into a high and a
    low 32-bit limb, each limb summed as int64 (neither sum can overflow),
    and the low sum carried into the high one before the single rounding.
    The logs are ``math.log``'s: ``np.log`` differs from it in the last bit
    for some k.

    ``top`` is at most 10^6 + 3, what the Bezdek constants read over the
    dimensions 2..10^6 that ``constants.RESIDUAL_EPS`` is checked on; past
    it the array would grow with ``top`` for no checked value.
    """
    if top > 10**6 + 3:
        raise DomainError(f"double factorials are tabulated up to 10^6 + 3, got {top}")
    logs = np.zeros(top + 1)
    logs[2:] = np.fromiter(map(math.log, range(2, top + 1)), np.float64, max(top - 1, 0))
    scaled = np.ldexp(logs, 53).astype(np.int64)  # ln k * 2^53, exactly
    high, low = scaled >> 32, scaled & 0xFFFFFFFF
    for limb in (high, low):
        for parity in (0, 1):
            np.cumsum(limb[parity::2], out=limb[parity::2])
    high += low >> 32
    low &= 0xFFFFFFFF
    # hi * 2^32 + lo, rounded once, then scaled back by 2^-53
    return np.ldexp(np.ldexp(high.astype(np.float64), 32) + low, -53)


def log_double_factorial_array(d) -> np.ndarray:
    """ln d!! over an integer array of d >= 1 (see :func:`log_double_factorials`)."""
    d = np.asarray(d)
    if d.dtype.kind not in "iu" or (d.size and d.min() < 1):
        raise DomainError(f"double factorials need integers >= 1, got {d!r}")
    return log_double_factorials(int(d.max()) if d.size else 1)[d]
