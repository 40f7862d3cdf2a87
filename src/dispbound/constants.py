"""Closed-form constants and the crossing equation behind the area bounds.

This module evaluates, entirely in the log domain, every constant of the
displacement/area machinery: the branch point ``rho_n`` of the piecewise area
envelope ``i_n``, the cylinder-area form ``i_bar_n``, the supported-slab form
``i_star_n``, the width-volume constants (Pal-Firey ``2/(sqrt(3) d!)`` and the
Bezdek double-factorial improvements), the isoperimetric comparison ``j_n``,
the crossing coefficients ``a_n``/``b_n``/``c_n``, and the crossing point
``rho_star`` whose common value ``h_n = i_n(rho*) = j_n(rho*)`` is the
dimensional constant of the main area bound.

Every per-dimension constant is computed array-first by
:func:`constants_table`; ``a_n``, ``b_n`` and ``c_n`` are its ``log_a``,
``log_b`` and ``log_c`` columns.  ``rho_n``, ``solve_crossing`` and the
other scalar functions of n are tables of one; the envelope functions of
(n, rho) read one cached coefficient row per (n, kind).

The crossing is solved on ``u = ln(rho - 1)`` where the defining equation
``rho (rho-1)^(n-1) = RHS`` becomes ``log1p(e^u) + (n-1) (u - ln c_n) = 0``,
a strictly increasing function with a guaranteed analytic bracket, so plain
bisection plus a Newton polish is exact to the last bit regardless of n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .numerics import (
    LOG_2,
    LOG_PI,
    LOG_TWO_PI,
    LogReal,
    log_double_factorial_array,
    log_double_factorials,
    log_gamma_array,
    log_unit_ball_volume,
    log_unit_ball_volume_array,
    log_unit_sphere_area,
)

Kind = Literal["pal_firey", "bezdek"]
KINDS: tuple[str, ...] = ("pal_firey", "bezdek")
DEFAULT_KIND: Kind = "pal_firey"

LOG_3 = math.log(3.0)

def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ConfigurationError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


def _check_dim(n: int, minimum: int = 2) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < minimum:
        raise DomainError(f"dimension must be an integer >= {minimum}, got {n!r}")
    return int(n)


def _check_dims(ns) -> np.ndarray:
    ns = np.asarray(ns)  # an n past int64 arrives as uint64 or object
    if ns.ndim != 1 or ns.dtype.kind not in "iu" or (
            ns.size and not 2 <= ns.min() <= ns.max() < 2**63):
        raise DomainError(f"dimensions must be a 1-d integer array of 2 <= n < 2^63, got {ns!r}")
    return ns.astype(np.int64, copy=False)


def _check_rho(rho: float, allow_one: bool = False) -> float:
    try:
        rho = float(rho)
    except (TypeError, ValueError):
        raise DomainError(f"rho must be a real number, got {rho!r}") from None
    if not math.isfinite(rho):
        raise DomainError(f"rho must be finite, got {rho!r}")
    if allow_one:
        if rho < 1.0:
            raise DomainError(f"rho must be >= 1, got {rho!r}")
    elif rho <= 1.0:
        raise DomainError(f"rho must be > 1, got {rho!r}")
    return rho


def _log_gap_ratio(rho: float) -> float:
    """ln((rho - 1)/rho).

    Written as log(rho - 1) - log(rho): for 1 < rho < 2 the subtraction
    rho - 1 is exact (Sterbenz), so there is no cancellation for rho near 1.
    """
    return math.log(rho - 1.0) - math.log(rho)


# ---------------------------------------------------------------------------
# The constants table: int64 arrays of n >= 2 in, one array per column out
# ---------------------------------------------------------------------------


def _log_width_constant(
    d: np.ndarray, kind: str, log_df: np.ndarray | None = None
) -> np.ndarray:
    """ln of the width-volume constant C_d (see :func:`pal_constant`);
    ``log_df``, if given, is ``log_double_factorials`` up to max(d) + 2 or
    beyond."""
    df = d.astype(float)
    if kind == "pal_firey":
        return LOG_2 - 0.5 * LOG_3 - log_gamma_array(df + 1.0)
    # ln (d-1)!!, d!!, (d+1)!!, (d+2)!! from one pass over 2..d+2
    shifts = d[:, None] + np.arange(-1, 3)
    logs = log_double_factorial_array(shifts) if log_df is None else log_df[shifts]
    ldm1, ld, ldp1, ldp2 = logs.T
    head = LOG_3 + (df - 3.0) * LOG_PI
    even = head + ldp2 - 2.0 * np.log(df + 1.0) - 2.0 * ld - 3.0 * ldm1
    odd = head + ldp1 - (df - 2.0) * LOG_2 - 5.0 * ld
    return 0.5 * np.where(d % 2 == 0, even, odd)


#: _log_a_b evaluates ln w_k once over min(ns)-2 .. max(ns)+1 when that
#: range holds at most this many entries per requested n
DENSE_SPAN_PER_N = 3


def _log_ball_volume_shifts(ns: np.ndarray) -> tuple[np.ndarray, ...]:
    """ln w_{n-2}, ln w_{n-1} and ln w_{n+1} (w_k = unit k-ball volume).

    A dense input takes all three from one pass over its range; a sparse
    one, such as [2, 10**9], makes one pass per shift and never allocates
    the range.  The volumes are elementwise, so both give the same bits.
    """
    lv = log_unit_ball_volume_array
    if ns.size:
        lo, hi = int(ns.min()) - 2, int(ns.max()) + 1
        if hi - lo + 1 <= DENSE_SPAN_PER_N * ns.size:
            span, at = lv(np.arange(lo, hi + 1)), ns - lo  # span[at] = ln w_n
            return span[at - 2], span[at - 1], span[at + 1]
    return lv(ns - 2), lv(ns - 1), lv(ns + 1)


def _log_a_b(
    ns: np.ndarray, kind: str, log_df: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """ln a_n and ln b_n, then the terms the crossing reuses: ln(n-1),
    ln w_{n-1}, ln w_{n-2} (w_k = unit k-ball volume) and ln(C_{n+1}/w_{n+1})."""
    nf = ns.astype(float)
    lv_nm2, lv_nm1, lv_np1 = _log_ball_volume_shifts(ns)
    log_nm1 = np.log(nf - 1.0)
    log_width = _log_width_constant(ns + 1, kind, log_df) - lv_np1
    # a_n = (2^(n-1) pi n)^(1/n) (C_{n+1}/w_{n+1})^(1/(n+1))
    log_a = ((nf - 1.0) * LOG_2 + LOG_PI + np.log(nf)) / nf + log_width / (nf + 1.0)
    # b_n = 1/expm1(g) with g = ln((n-1) w_{n-1}/w_{n-2}) > 0, so
    # ln expm1(g) = g + log1p(-exp(-g)) is stable.  Once g rounds to 0
    # (n near 10^18) log1p(-1) is -inf and log_b is +inf, which the table's
    # a_n > b_n check refuses; only the divide warning is silenced.
    g = log_nm1 + lv_nm1 - lv_nm2
    with np.errstate(divide="ignore"):
        log_b = -(g + np.log1p(-np.exp(-g)))
    return log_a, log_b, log_nm1, lv_nm1, lv_nm2, log_width


@dataclass(frozen=True)
class CrossingResult:
    """Solution of i_n(rho) = j_n(rho): location, branch, value, residual."""

    n: int
    kind: str
    rho_star: float
    branch: str  # always "second": rho* > rho_n at every n
    log_delta: float  # ln(rho_star - 1), the solver's native variable
    log_h: float  # ln of the common crossing value
    residual: float  # log-scale defect |ln i_n - ln j_n| at the solution


@dataclass(frozen=True)
class ConstantsRow:
    """One dimension's worth of crossing data (linear scale where safe)."""

    n: int
    rho_n: float
    a_n: float
    b_n: float
    c_n: float
    rho_star: float
    log_h_n: float
    branch: str
    pal_constant_kind: str


@dataclass(frozen=True)
class ConstantsTable:
    """Per-dimension crossing data, one array entry per requested n."""

    n: np.ndarray
    kind: str
    rho_n: np.ndarray
    log_a: np.ndarray
    log_b: np.ndarray
    log_c: np.ndarray
    log_delta: np.ndarray  # ln(rho_star - 1)
    rho_star: np.ndarray
    residual: np.ndarray  # |ln i_n - ln j_n| at the solution
    log_h: np.ndarray  # ln h_n = ln i_n(rho*) = ln j_n(rho*)
    log_sphere: np.ndarray  # ln sigma_n, the unit n-sphere's area

    @property
    def ab_ratio(self) -> np.ndarray:
        """a_n / b_n; the crossing lies past the branch point iff it is > 1."""
        return np.exp(self.log_a - self.log_b)

    def crossing(self, i: int) -> CrossingResult:
        return CrossingResult(
            int(self.n[i]), self.kind, float(self.rho_star[i]), "second",
            float(self.log_delta[i]), float(self.log_h[i]), float(self.residual[i]),
        )

    def row(self, i: int) -> ConstantsRow:
        linear = [LogReal.from_log(c[i]).to_float() for c in (self.log_a, self.log_b, self.log_c)]
        return ConstantsRow(
            int(self.n[i]), float(self.rho_n[i]), *linear, float(self.rho_star[i]),
            float(self.log_h[i]), "second", self.kind,
        )


def _solve_second_branch(ns: np.ndarray, log_c: np.ndarray, kind: str) -> np.ndarray:
    """ln(rho* - 1) for crossings past the branch point.

    Solves rho (rho-1)^(n-1) = c_n^(n-1) in v = ln(rho-1) - ln c_n, where it
    reads g(v) = log1p(c_n e^v) + (n-1) v = 0: strictly increasing, with a
    sign change guaranteed on [-log1p(c_n), 0].  Each n bisects until its own
    bracket is below 1e-15 relative, then takes two Newton steps.
    """
    nm1 = ns - 1.0

    def g(v, log_c, nm1):
        return np.log1p(np.exp(v + log_c)) + nm1 * v

    lo = -np.log1p(np.exp(log_c))
    hi = np.zeros_like(lo)
    g_lo, g_hi = g(lo, log_c, nm1), g(hi, log_c, nm1)
    unbracketed = np.flatnonzero(~((g_lo <= 0.0) & (0.0 <= g_hi)))
    if unbracketed.size:
        i = unbracketed[0]
        raise NumericalError(
            "failed to bracket the crossing equation",
            diagnostics={
                "n": int(ns[i]), "kind": kind, "log_c": float(log_c[i]),
                "g_lo": float(g_lo[i]), "g_hi": float(g_hi[i]),
                "rho_window": (1.0 + 1e-12, 1e6),
            },
        )
    live = np.arange(len(ns))
    for _ in range(120):
        if not live.size:
            break
        l, h = lo[live], hi[live]
        mid = 0.5 * (l + h)
        below = g(mid, log_c[live], nm1[live]) <= 0.0
        l, h = np.where(below, mid, l), np.where(below, h, mid)
        lo[live], hi[live] = l, h
        live = live[~(h - l <= 1e-15 * np.maximum(1.0, np.abs(l)))]
    v = 0.5 * (lo + hi)
    for _ in range(2):  # Newton polish: g' = w/(1+w) + (n-1), w = c e^v
        w = np.exp(v + log_c)
        v = v - g(v, log_c, nm1) / (w / (1.0 + w) + nm1)
    return v + log_c


#: the crossing residual may reach this many units of float64 rounding
#: (eps) of its terms' summed magnitude; over 2..10^6 both kinds stay below 1
RESIDUAL_EPS = 4.0

#: rows per block of every large-array kernel here: numpy's per-call cost is
#: amortized over 16,384 rows, and each temporary is 128 KiB.  In one
#: process, scan_ab over 2..10^6 grows RSS by 1.5 MiB at this size against
#: 4.8 MiB at 32,768 rows, and runs no slower; 8,192 rows hold 0.5 MiB less
#: but read 3-5 % more constants-sweep wall_ref_s, in every benchmark pair
BLOCK = 16_384


def row_blocks(size: int) -> list[slice]:
    """Consecutive slices of BLOCK rows (the last may be shorter) covering
    0..size.  Every kernel here is row-independent, so each row's bits do
    not depend on where a block starts or ends."""
    return [slice(start, min(start + BLOCK, size)) for start in range(0, size, BLOCK)]


def constants_table(ns, kind: Kind = DEFAULT_KIND) -> ConstantsTable:
    """Every per-dimension constant and the crossing, over an integer array.

    The crossing is the unique rho > 1 with i_n(rho) = j_n(rho).  Since
    a_n > b_n at every n (``scan_ab`` checks it to 10^6), it lies past the
    branch point (see :func:`_solve_second_branch`).  Raises NumericalError
    naming the first n with a_n <= b_n, whose crossing cannot be bracketed,
    or whose residual exceeds RESIDUAL_EPS units of rounding (eps) of its
    terms' summed magnitude; the first of these checks to fail anywhere
    wins, in that order.

    Runs in two passes of BLOCK rows: the coefficients, then the crossing.
    """
    ns = _check_dims(ns)
    _check_kind(kind)
    size = len(ns)
    # the Bezdek constant's double factorials, up to (n+1)+2, built once
    log_df = log_double_factorials(int(ns.max()) + 3) if kind == "bezdek" and size else None
    rho_n, log_a, log_b, log_c, log_h, log_sphere = (np.empty(size) for _ in range(6))
    for rows in row_blocks(size):
        n, nf = ns[rows], ns[rows].astype(float)
        log_a[rows], log_b[rows], log_nm1, lv_nm1, lv_nm2, log_width = _log_a_b(n, kind, log_df)
        # right side of rho (rho-1)^(n-1) = pi n (n-1) 2^(n-1) (w_{n-1}/w_{n-2})
        # (C_{n+1}/w_{n+1})^(n/(n+1)), and the exponent shared with j_n
        log_kind_ratio = nf / (nf + 1.0) * log_width
        log_rhs = (
            LOG_PI + np.log(nf) + log_nm1 + (nf - 1.0) * LOG_2 + lv_nm1 - lv_nm2
            + log_kind_ratio
        )
        log_c[rows] = log_rhs / (nf - 1.0)
        # sigma_n = 2 pi w_{n-1}; log_h holds ln j_n(1) until the crossing is known
        log_sphere[rows] = LOG_TWO_PI + lv_nm1
        log_h[rows] = log_sphere[rows] + log_kind_ratio
        # rho_n = 1/(1 - t) with t = w_{n-2} / ((n-1) w_{n-1}) < 1; t rounds
        # to 1 where log_b is inf, and that row is refused below
        with np.errstate(divide="ignore"):
            rho_n[rows] = 1.0 / (1.0 - np.exp(lv_nm2 - log_nm1 - lv_nm1))

    first = np.flatnonzero(log_a <= log_b)
    if first.size:
        i = first[0]
        raise NumericalError(
            f"a_n <= b_n at n = {int(ns[i])}: the crossing would lie on the first branch",
            diagnostics={
                "n": int(ns[i]), "kind": kind,
                "log_a": float(log_a[i]), "log_b": float(log_b[i]),
            },
        )

    log_delta, rho_star, residual = (np.empty(size) for _ in range(3))
    failed = None  # (row, bound) of the first residual past its bound
    for rows in row_blocks(size):
        nf = ns[rows].astype(float)
        # raises on the first unbracketed n of this block, and no earlier
        # block had one; residual failures wait until every bracket is known
        log_delta[rows] = _solve_second_branch(ns[rows], log_c[rows], kind)
        delta = np.exp(log_delta[rows])
        log1p_delta = np.log1p(delta)
        rho_star[rows] = 1.0 + delta
        log_h[rows] = log_h[rows] - nf * log1p_delta  # ln j_n(rho*), ln rho* = log1p(delta)
        # The defect ln i_n(rho*) - ln j_n(rho*) collapses past the branch
        # point to the solver's (n-1) ln delta + ln rho* - (n-1) ln c_n, a sum
        # of terms that cancel at the crossing, so rounding alone keeps it
        # within a few eps of their summed magnitude.
        terms = ((nf - 1.0) * log_delta[rows], log1p_delta, -(nf - 1.0) * log_c[rows])
        residual[rows] = np.abs(sum(terms))
        bound = RESIDUAL_EPS * np.finfo(float).eps * sum(np.abs(t) for t in terms)
        over = np.flatnonzero(residual[rows] > bound)
        if failed is None and over.size:
            failed = (rows.start + over[0], bound[over[0]])
    if failed is not None:
        i, bound = failed
        diagnostics = {
            "n": int(ns[i]), "kind": kind,
            "residual": float(residual[i]), "bound": float(bound),
        }
        raise NumericalError("crossing residual exceeds its rounding bound", diagnostics=diagnostics)
    return ConstantsTable(
        ns, kind, rho_n, log_a, log_b, log_c, log_delta, rho_star, residual, log_h,
        log_sphere,
    )


# ---------------------------------------------------------------------------
# Per-dimension constants, each a table of one
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _table_of_one(n: int, kind: str) -> ConstantsTable:
    """Cached: one costs ~1 ms, and i_n evaluates grids of rho at a fixed n."""
    return constants_table(np.array([n]), kind)


def rho_n(n: int) -> float:
    """Branch point (n-1) w_{n-1} / ((n-1) w_{n-1} - w_{n-2}) of the envelope."""
    return float(_table_of_one(_check_dim(n), DEFAULT_KIND).rho_n[0])


def pal_constant(d: int, kind: Kind = DEFAULT_KIND) -> LogReal:
    """Width-volume constant in dimension d.

    kind="pal_firey": 2 / (sqrt(3) d!), valid for d >= 2.
    kind="bezdek": the double-factorial improvement, valid for d >= 3 —
    sqrt(3 pi^(d-3) (d+2)!! / ((d+1)^2 (d!!)^2 ((d-1)!!)^3)) for even d and
    sqrt(3 pi^(d-3) (d+1)!! / (2^(d-2) (d!!)^5)) for odd d.
    """
    d = _check_dim(d)
    if _check_kind(kind) == "bezdek" and d < 3:
        raise DomainError(f"bezdek constant needs d >= 3, got {d}")
    return LogReal.from_log(_log_width_constant(np.array([d]), kind)[0])


def solve_crossing(n: int, kind: Kind = DEFAULT_KIND) -> CrossingResult:
    """Locate the unique rho > 1 with i_n(rho) = j_n(rho) (a table of one)."""
    return _table_of_one(_check_dim(n), _check_kind(kind)).crossing(0)


def rho_star(n: int, kind: Kind = DEFAULT_KIND) -> tuple[float, str]:
    """Crossing location and branch flag (always "second", see constants_table)."""
    result = solve_crossing(n, kind)
    return result.rho_star, result.branch


def h_n(n: int, kind: Kind = DEFAULT_KIND) -> LogReal:
    """The common crossing value i_n(rho*) = j_n(rho*), as a LogReal."""
    return LogReal.from_log(solve_crossing(n, kind).log_h)


def constants_row(n: int, kind: Kind = DEFAULT_KIND) -> ConstantsRow:
    return _table_of_one(_check_dim(n), _check_kind(kind)).row(0)


def sphere_reference(n: int) -> LogReal:
    """sigma_n / pi^n — the value the round sphere's antipodal map attains."""
    n = _check_dim(n, minimum=1)
    return LogReal.from_log(log_unit_sphere_area(n) - n * LOG_PI)


def suboptimality_factor(n: int, kind: Kind = DEFAULT_KIND) -> LogReal:
    """h_n / (sigma_n / pi^n): how far the pipeline constant sits below the
    sphere-optimal one."""
    n = _check_dim(n)
    return LogReal.from_log(
        solve_crossing(n, kind).log_h - sphere_reference(n).log_magnitude
    )


def quoted_closed_form_h2() -> float:
    """The quoted radical closed form for n = 2: (pi/6)^(1/3) / (1 + (pi/6)^(1/6))^2.

    Computed independently of the crossing pipeline; the two disagree (this
    expression equals the first-branch crossing against a halved j_2) and are
    always reported side by side.  See README for the comparison.
    """
    r = (math.pi / 6.0) ** (1.0 / 6.0)
    return r * r / (1.0 + r) ** 2


# ---------------------------------------------------------------------------
# The envelope, scalar in (n, rho)
# ---------------------------------------------------------------------------


class _Envelope(NamedTuple):
    """ln of the envelope coefficients at one (n, kind), q and rho aside."""

    i_first: float  # ln(w_{n-1} / (n 2^(n-2))): i_n up to rho_n
    i_limit: float  # ln(w_{n-2} / (n (n-1) 2^(n-2))): i_n past rho_n, and its supremum
    i_star: float  # ln(w_n / 2^(n-1)): i*_n and the cylinder form
    j_one: float  # ln j_n(1) = ln(sigma_n (C_{n+1}/w_{n+1})^(n/(n+1)))


@lru_cache(maxsize=1024)
def _envelope(n: int, kind: str) -> _Envelope:
    """The coefficients from the table's own terms (sigma_n = 2 pi w_{n-1}),
    cached like _table_of_one.  ln n and ln(n-1) are ``math.log``'s: the
    table's ``np.log`` differs from it in the last bit at some n."""
    _, _, _, lv_nm1, lv_nm2, log_width = (float(t[0]) for t in _log_a_b(np.array([n]), kind))
    log_n, halvings = math.log(n), (n - 2) * LOG_2
    return _Envelope(
        lv_nm1 - log_n - halvings,
        lv_nm2 - log_n - math.log(n - 1) - halvings,
        log_unit_ball_volume(n) - (n - 1) * LOG_2,
        LOG_TWO_PI + lv_nm1 + (n / (n + 1.0)) * log_width,
    )


def i_n(n: int, rho: float) -> LogReal:
    """Piecewise area envelope: branch 1 for rho <= rho_n, branch 2 above.

    Branch 1 is w_{n-1}/(n 2^(n-2)) ((rho-1)/rho)^n; branch 2 is
    w_{n-2}/(n (n-1) 2^(n-2)) ((rho-1)/rho)^(n-1).  The two branches agree at
    rho_n by construction of the branch point.
    """
    n = _check_dim(n)
    rho = _check_rho(rho)
    log_q = _log_gap_ratio(rho)
    first = rho <= rho_n(n)
    row = _envelope(n, DEFAULT_KIND)
    return LogReal.from_log(row.i_first + n * log_q if first else row.i_limit + (n - 1) * log_q)


def i_n_limit(n: int) -> LogReal:
    """Supremum of i_n: its limit w_{n-2}/(n (n-1) 2^(n-2)) as rho grows
    (branch 2 at (rho-1)/rho = 1), which it approaches from below."""
    return LogReal.from_log(_envelope(_check_dim(n), DEFAULT_KIND).i_limit)


def i_bar_n(n: int, rho: float) -> LogReal:
    """Cylinder-boundary area form: w_n/2^(n-1) q^(n-1) (1 + (n-1)/rho)."""
    n = _check_dim(n)
    rho = _check_rho(rho)
    log_q = _log_gap_ratio(rho)
    return LogReal.from_log(
        _envelope(n, DEFAULT_KIND).i_star + (n - 1) * log_q + math.log1p((n - 1) / rho)
    )


def i_star_n(n: int, rho: float) -> LogReal:
    """Supported-pair envelope: w_n/2^(n-1) ((rho-1)/rho)^n."""
    n = _check_dim(n)
    rho = _check_rho(rho)
    log_q = _log_gap_ratio(rho)
    return LogReal.from_log(_envelope(n, DEFAULT_KIND).i_star + n * log_q)


def j_n(n: int, rho: float, kind: Kind = DEFAULT_KIND) -> LogReal:
    """Isoperimetric comparison: sigma_n (C_{n+1}/w_{n+1})^(n/(n+1)) rho^-n."""
    n = _check_dim(n)
    rho = _check_rho(rho, allow_one=True)
    _check_kind(kind)
    return LogReal.from_log(_envelope(n, kind).j_one - n * math.log(rho))


def envelope_b_n(n: int, rho: float, kind: Kind = DEFAULT_KIND) -> LogReal:
    """max(i_n(rho), j_n(rho)) with i_n extended by 0 at rho = 1."""
    n = _check_dim(n)
    rho = _check_rho(rho, allow_one=True)
    _check_kind(kind)
    j_val = j_n(n, rho, kind)
    if rho == 1.0:
        return j_val
    i_val = i_n(n, rho)
    return i_val if i_val.log_magnitude > j_val.log_magnitude else j_val


# ---------------------------------------------------------------------------
# The a/b scan
# ---------------------------------------------------------------------------


#: scan_ab keeps the per-n ratios only for ranges shorter than this
SCAN_KEEP_RATIOS_BELOW = 2_001


@dataclass(frozen=True)
class AbScan:
    """Summary of an a_n > b_n scan over a contiguous dimension range."""

    n_min: int
    n_max: int
    violations: int
    min_ratio: float
    argmin_n: int
    ratio_at_max: float
    ratios: np.ndarray | None  # per-n a/b, kept only for small ranges

    @property
    def limit_gap_at_max(self) -> float:
        """|ratio(n_max) - 2 sqrt(e)|, the distance to the limiting value."""
        return abs(self.ratio_at_max - 2.0 * math.sqrt(math.e))


def scan_ab(n_min: int = 2, n_max: int = 100_000) -> AbScan:
    """Vectorized scan of the Pal-Firey ratio a_n/b_n over n = n_min..n_max.

    Only ln a_n and ln b_n are computed, BLOCK dimensions at a time, so
    memory stays bounded up to n = 1e6.  Per-n ratios are retained only
    when the range is short enough to be worth printing.
    """
    n_min, n_max = _check_dim(n_min), _check_dim(n_max)
    if n_max < n_min:
        raise ConfigurationError(f"empty scan range [{n_min}, {n_max}]")
    if n_max > 10**6:
        raise ConfigurationError(f"scan range capped at 1e6, got n_max={n_max}")

    keep = (n_max - n_min + 1) < SCAN_KEEP_RATIOS_BELOW
    kept: list[np.ndarray] = []
    violations = 0
    min_ratio = math.inf
    argmin_n = n_min
    for rows in row_blocks(n_max - n_min + 1):
        ns = np.arange(n_min + rows.start, n_min + rows.stop, dtype=np.int64)
        log_a, log_b = _log_a_b(ns, DEFAULT_KIND)[:2]
        ratios = np.exp(log_a - log_b)
        violations += int(np.count_nonzero(ratios <= 1.0))
        idx = int(np.argmin(ratios))
        if ratios[idx] < min_ratio:
            min_ratio = float(ratios[idx])
            argmin_n = int(ns[idx])
        if keep:
            kept.append(ratios)
    return AbScan(
        n_min=n_min,
        n_max=n_max,
        violations=violations,
        min_ratio=min_ratio,
        argmin_n=argmin_n,
        ratio_at_max=float(ratios[-1]),
        ratios=np.concatenate(kept) if keep else None,
    )
