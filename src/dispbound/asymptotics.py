"""Large-dimension approximations of the crossing constants.

Closed-form large-``n`` formulas for ``c_n``, ``rho_star``, ``ln h_n`` and
the ratio ``a_n/b_n`` of :mod:`dispbound.constants`.  Every approximation
here can be checked against the exact log-domain pipeline via
:func:`compare`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import DEFAULT_KIND, Kind, _check_dim, _check_kind, constants_table
from .errors import ConfigurationError, DomainError
from .numerics import decode_logs

__all__ = [
    "QUANTITIES",
    "AsymptoticReport",
    "asymptotic_ab_ratio",
    "asymptotic_c_n",
    "asymptotic_log_h_n",
    "asymptotic_rho_star",
    "compare",
]

#: quantity tags accepted by :func:`compare`
QUANTITIES: tuple[str, ...] = ("c_n", "rho_star", "log_h_n", "ab_ratio")


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

    The exact values come from one constants table over n_values.
    ``ab_ratio`` pins the kind whatever ``kind`` says: it is the Pal-Firey
    a_n/b_n (the ratio whose limit is 2 sqrt(e)).
    """
    if quantity not in QUANTITIES:
        raise ConfigurationError(
            f"unknown quantity {quantity!r}; expected one of {QUANTITIES}"
        )
    kind = _check_kind(kind)
    ns = [_check_dim(n) for n in n_values]
    table_kind = "pal_firey" if quantity == "ab_ratio" else kind
    # no forced int64: an n past it must reach _check_dims, which refuses it
    table = constants_table(np.array(ns) if ns else np.zeros(0, np.int64), table_kind)
    if quantity == "c_n":
        exact = decode_logs(table.log_c)
        approx = [asymptotic_c_n(n, kind) for n in ns]
    elif quantity == "rho_star":
        exact = table.rho_star
        approx = [asymptotic_rho_star(n, kind) for n in ns]
    elif quantity == "log_h_n":
        exact = table.log_h
        approx = [asymptotic_log_h_n(n, kind) for n in ns]
    else:
        exact = table.ab_ratio
        approx = [asymptotic_ab_ratio(n) for n in ns]
    return [_report(n, quantity, float(e), a) for n, e, a in zip(ns, exact, approx)]
