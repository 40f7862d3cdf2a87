"""Series inversion and large-dimension approximations.

Implements the power-series inverse of the one-parameter family of maps
``f_N(rho) = rho**(1/N) * (rho - 1)`` together with closed-form
large-``n`` approximations for the crossing constants of
:mod:`dispbound.constants`.  Every approximation here can be checked
against the exact log-domain pipeline via :func:`compare`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import DEFAULT_KIND, Kind, _check_dim, _check_kind, constants_table
from .errors import ConfigurationError, DivergenceError, DomainError
from .numerics import LogReal, log_gamma_array

__all__ = [
    "QUANTITIES",
    "AsymptoticReport",
    "InverseEvaluation",
    "InverseSeries",
    "ThresholdReport",
    "asymptotic_ab_ratio",
    "asymptotic_c_n",
    "asymptotic_log_h_n",
    "asymptotic_rho_star",
    "compare",
    "evaluate_inverse",
    "forward_map",
    "inverse_series",
    "inversion_radius",
    "measured_thresholds",
    "phi_n",
    "term_log_magnitudes",
]

#: quantity tags accepted by :func:`compare`
QUANTITIES: tuple[str, ...] = ("c_n", "rho_star", "log_h_n", "ab_ratio", "bezdek_log_h_n")

_MAX_EVAL_TERMS = 10_000
_TRUNCATION_FLOOR = 1e-16


def _check_order(order_n: int) -> int:
    if not isinstance(order_n, (int, np.integer)) or isinstance(order_n, bool):
        raise ConfigurationError(f"series order must be an integer, got {order_n!r}")
    if order_n < 1:
        raise ConfigurationError(f"series order must be >= 1, got {order_n}")
    return int(order_n)


def inversion_radius(order_n: int) -> float:
    """Convergence radius of the inverse series: N / (N+1)^(1 + 1/N)."""
    return _inversion_radius(_check_order(order_n))


def _inversion_radius(n):
    """N / (N+1)^(1 + 1/N) for a validated order, or an array of them."""
    return n / (n + 1.0) ** (1.0 + 1.0 / n)


def forward_map(order_n: int, rho: float) -> float:
    """The forward map f_N(rho) = rho^(1/N) * (rho - 1) for rho > 0."""
    n = _check_order(order_n)
    rho = float(rho)
    if not math.isfinite(rho) or rho <= 0.0:
        raise DomainError(f"forward map requires rho > 0, got {rho!r}")
    return math.exp(math.log(rho) / n) * (rho - 1.0)


@dataclass(frozen=True)
class InverseSeries:
    """Truncated power series for the inverse of ``f_N`` about y = 0.

    Coefficient magnitudes are stored in log form because the linear
    values overflow float64 near degree 500 for small orders.  The
    ``coefficients`` property decodes them (overflowed entries decode
    to +/-inf).
    """

    order_n: int
    log_coefficient_magnitudes: np.ndarray
    signs: np.ndarray
    radius: float

    @property
    def max_degree(self) -> int:
        return len(self.log_coefficient_magnitudes) - 1

    @property
    def coefficients(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self.signs * np.exp(self.log_coefficient_magnitudes)


def inverse_series(order_n: int, max_terms: int) -> InverseSeries:
    """Build the inverse series 1 + y + sum_{k>=2} c_k y^k up to degree max_terms.

    The degree-k coefficient is (-1)^(k-1) * (k/N)^rising(k-1) / k!,
    evaluated via log-gamma so arbitrary degrees stay representable.
    """
    n = _check_order(order_n)
    if not isinstance(max_terms, (int, np.integer)) or isinstance(max_terms, bool):
        raise ConfigurationError(f"max_terms must be an integer, got {max_terms!r}")
    if max_terms < 2:
        raise ConfigurationError(f"max_terms must be >= 2, got {max_terms}")

    ks = np.arange(2, max_terms + 1, dtype=np.float64)
    # rising factorial (k/N)^rising(k-1) = Gamma(k/N + k - 1) / Gamma(k/N)
    log_mags = (
        log_gamma_array(ks / n + ks - 1.0)
        - log_gamma_array(ks / n)
        - log_gamma_array(ks + 1.0)
    )
    log_all = np.concatenate(([0.0, 0.0], log_mags))
    signs = np.ones(max_terms + 1, dtype=np.float64)
    signs[2::2] = -1.0  # (-1)^(k-1) for k >= 2
    signs[1] = 1.0
    return InverseSeries(
        order_n=n,
        log_coefficient_magnitudes=log_all,
        signs=signs,
        radius=inversion_radius(n),
    )


def term_log_magnitudes(series: InverseSeries, y: float) -> np.ndarray:
    """log |c_k y^k| for every stored degree k (useful divergence diagnostics)."""
    y = float(y)
    if y == 0.0:
        out = np.full(series.max_degree + 1, -math.inf)
        out[0] = 0.0
        return out
    ks = np.arange(series.max_degree + 1, dtype=np.float64)
    return series.log_coefficient_magnitudes + ks * math.log(abs(y))


@dataclass(frozen=True)
class InverseEvaluation:
    """Truncated series sum with its forward-map residual."""

    value: float
    residual: float
    terms_used: int


def evaluate_inverse(series: InverseSeries, y: float) -> InverseEvaluation:
    """Sum the inverse series at y, reporting the residual |f_N(sum) - y|.

    Truncation stops once the next term falls below 1e-16 of the running
    sum, or after 10^4 terms, whichever comes first.  Outside the
    convergence radius the terms eventually grow, so evaluation refuses
    to start and raises :class:`DivergenceError` with a growth probe.
    """
    y = float(y)
    if not math.isfinite(y):
        raise DomainError(f"evaluation point must be finite, got {y!r}")
    if abs(y) >= series.radius:
        log_terms = term_log_magnitudes(series, y)
        probe = {
            int(k): float(log_terms[k])
            for k in (2, 10, 100, series.max_degree)
            if k <= series.max_degree
        }
        raise DivergenceError(
            "series evaluation point is outside the convergence radius; "
            "term magnitudes grow without bound",
            diagnostics={
                "y": y,
                "radius": series.radius,
                "order_n": series.order_n,
                "log_term_magnitudes": probe,
            },
        )
    if y == 0.0:
        return InverseEvaluation(value=1.0, residual=0.0, terms_used=1)

    limit = min(series.max_degree, _MAX_EVAL_TERMS)
    ks = np.arange(limit + 1)
    log_terms = series.log_coefficient_magnitudes[: limit + 1] + ks * math.log(abs(y))
    term_signs = series.signs[: limit + 1].copy()
    if y < 0.0:
        term_signs[1::2] *= -1.0
    terms = term_signs * np.exp(log_terms)
    partials = np.cumsum(terms)
    mags = np.exp(log_terms)

    small = np.nonzero(mags[1:] < _TRUNCATION_FLOOR * np.abs(partials[:-1]))[0]
    last = int(small[0]) if small.size else limit
    value = math.fsum(terms[: last + 1])
    residual = abs(forward_map(series.order_n, value) - y)
    return InverseEvaluation(value=value, residual=residual, terms_used=last + 1)


def phi_n(order_n: int, k: int) -> float:
    """Bound for the ratio of consecutive inverse-series terms.

    Equals (Nk + N) / ((N+1)k + 1 - N) * (k/(k+1))^(k-1); nonincreasing
    in k for k >= 2 with limit N / ((N+1) e).
    """
    n = _check_order(order_n)
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ConfigurationError(f"k must be an integer, got {k!r}")
    if k < 2:
        raise ConfigurationError(f"k must be >= 2, got {k}")
    rational = (n * k + n) / ((n + 1.0) * k + 1.0 - n)
    power = math.exp(-(k - 1.0) * math.log1p(1.0 / k))
    return rational * power


# ---------------------------------------------------------------------------
# closed-form large-n approximations
# ---------------------------------------------------------------------------


def asymptotic_c_n(n: int, kind: Kind = DEFAULT_KIND) -> float:
    """Leading-plus-correction approximation of the crossing coefficient."""
    n = _check_dim(n)
    kind = _check_kind(kind)
    correction = 1.0 if kind == "pal_firey" else 0.75
    if kind == "pal_firey":
        lead = math.sqrt(2.0 * math.e / (math.pi * n))
    elif n % 2 == 0:
        lead = math.sqrt(math.e / n)
    else:
        lead = math.sqrt(2.0 * math.e / n)
    return lead * (1.0 + correction * math.log(n) / n)


def asymptotic_rho_star(n: int, kind: Kind = DEFAULT_KIND) -> float:
    """Leading-plus-correction approximation of the crossing point."""
    n = _check_dim(n)
    kind = _check_kind(kind)
    if kind == "pal_firey":
        lead = math.sqrt(2.0 * math.e / math.pi)
        correction = lead
    elif n % 2 == 0:
        lead = math.sqrt(math.e)
        correction = 0.75 * lead
    else:
        lead = math.sqrt(2.0 * math.e)
        correction = 0.75 * lead
    return 1.0 + lead / math.sqrt(n) + correction * math.log(n) / n**1.5


def asymptotic_log_h_n(n: int, kind: Kind = DEFAULT_KIND) -> float:
    """Approximation of the log crossing value at large n.

    The improved-kind variants carry their first-order bracket inside a
    log1p; at small odd dimensions that bracket goes nonpositive and the
    printed formula stops meaning anything, which raises DomainError.
    """
    n = _check_dim(n)
    kind = _check_kind(kind)
    if kind == "pal_firey":
        return (
            -n * math.log(n)
            + n
            - math.sqrt(2.0 * math.e * n / math.pi)
            + 0.5 * math.log(4.0 / (3.0 * math.e))
            + math.e / math.pi
            - math.sqrt(2.0 * math.e / math.pi) * math.log(n) / math.sqrt(n)
        )
    if n % 2 == 0:
        bracket = -0.75 * math.sqrt(math.e) * math.log(n) / math.sqrt(n)
        base = (
            0.5 * (math.e - 1.0)
            + 0.25 * math.log(9.0 / (2.0 * math.pi * n))
            + 0.5 * n * math.log(math.pi / 2.0)
            + n * (1.0 - math.log(n))
            - math.sqrt(math.e * n)
        )
    else:
        bracket = -0.75 * math.sqrt(2.0 * math.e) * math.log(n) / math.sqrt(n)
        base = (
            math.e
            + 0.25 * math.log(9.0 / (8.0 * math.pi**3 * n))
            + 0.5 * n * math.log(math.pi)
            + n * (1.0 - math.log(n))
            - math.sqrt(2.0 * math.e * n)
        )
    if bracket <= -1.0:
        raise DomainError(
            f"first-order correction exceeds the leading term at n={n}; "
            "the improved-kind approximation is unusable this small"
        )
    return base + math.log1p(bracket)


def asymptotic_ab_ratio(n: int) -> float:
    """Approximation of the coefficient ratio a_n/b_n near its limit 2*sqrt(e)."""
    n = _check_dim(n)
    return math.exp(
        math.log(2.0 * math.sqrt(math.e))
        + math.log(n) / (2.0 * n)
        - 1.0 / math.sqrt(2.0 * math.pi * n)
    )


# ---------------------------------------------------------------------------
# exact-vs-approximate comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticReport:
    """One exact-versus-approximate comparison row."""

    n: int
    quantity: str
    exact: float
    asymptotic: float
    abs_error: float
    rel_error: float


def _report(n: int, quantity: str, exact: float, approx: float) -> AsymptoticReport:
    abs_error = abs(exact - approx)
    rel_error = abs_error / abs(exact) if exact != 0.0 else math.inf
    return AsymptoticReport(
        n=n, quantity=quantity, exact=exact, asymptotic=approx,
        abs_error=abs_error, rel_error=rel_error,
    )


def compare(
    n_values: Sequence[int], quantity: str, kind: Kind = DEFAULT_KIND
) -> list[AsymptoticReport]:
    """Pair exact pipeline values with their approximations over n_values.

    The exact values come from one constants table over n_values.  Two
    quantities pin the kind whatever ``kind`` says: ``ab_ratio`` is the
    Pal-Firey a_n/b_n (the ratio whose limit is 2 sqrt(e)), and
    ``bezdek_log_h_n`` is ln h_n for the Bezdek constants.
    """
    if quantity not in QUANTITIES:
        raise ConfigurationError(
            f"unknown quantity {quantity!r}; expected one of {QUANTITIES}"
        )
    kind = _check_kind(kind)
    ns = [_check_dim(n) for n in n_values]
    table_kind = {"ab_ratio": "pal_firey", "bezdek_log_h_n": "bezdek"}.get(quantity, kind)
    table = constants_table(np.array(ns, dtype=np.int64), table_kind)
    if quantity == "c_n":
        exact = [LogReal.from_log(v).to_float() for v in table.log_c]
        approx = [asymptotic_c_n(n, kind) for n in ns]
    elif quantity == "rho_star":
        exact = table.rho_star
        approx = [asymptotic_rho_star(n, kind) for n in ns]
    elif quantity == "log_h_n":
        exact = table.log_h
        approx = [asymptotic_log_h_n(n, kind) for n in ns]
    elif quantity == "ab_ratio":
        exact = table.ab_ratio
        approx = [asymptotic_ab_ratio(n) for n in ns]
    else:
        exact = table.log_h
        approx = [asymptotic_log_h_n(n, "bezdek") for n in ns]
    return [_report(n, quantity, float(e), a) for n, e, a in zip(ns, exact, approx)]


# ---------------------------------------------------------------------------
# empirically measured validity thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdReport:
    """Smallest dimensions where the large-n machinery becomes valid.

    All three are measured by scanning, never assumed: the two-sided
    crossing-point bracket, entry of the crossing coefficient into the
    inversion radius, and entry into the monotone-term regime
    N/((N+1)e).
    """

    bracket_start: int
    radius_entry: int
    monotone_terms_entry: int
    scan_limit: int


def measured_thresholds(n_max: int = 2000, kind: Kind = DEFAULT_KIND) -> ThresholdReport:
    """Scan n = 2..n_max and report where each large-n property starts holding."""
    if not isinstance(n_max, (int, np.integer)) or isinstance(n_max, bool) or n_max < 2:
        raise ConfigurationError(f"n_max must be an integer >= 2, got {n_max!r}")
    kind = _check_kind(kind)
    ns = np.arange(2, int(n_max) + 1, dtype=np.int64)
    table = constants_table(ns, kind)
    nf, c, rho = ns.astype(float), np.exp(table.log_c), table.rho_star

    def start(holds: np.ndarray) -> int:  # one past the last failing n
        fails = np.flatnonzero(~holds)
        return int(ns[fails[-1]]) + 1 if fails.size else 2

    return ThresholdReport(
        bracket_start=start((1.0 + c - c * c / (nf - 1.0) <= rho) & (rho <= 1.0 + c)),
        radius_entry=start(c < _inversion_radius(nf - 1.0)),
        monotone_terms_entry=start(c < (nf - 1.0) / (nf * math.e)),
        scan_limit=int(n_max),
    )
