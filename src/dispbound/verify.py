"""Inequality verification harness.

Each check instantiates one displacement-type inequality on a concrete
body, evaluates both sides numerically, and emits a ``VerificationRecord``
stating which side of the comparison used an estimate and in which
direction that estimate can err.  The governing rule: approximations may
only make a check harder to pass; when that cannot be arranged the record
is demoted to advisory rather than reported as a confirmation.  One table,
``ORIENTATION``, holds each estimated bound's right side and the direction
in which it moves with each input; every such record's right side, status
and notes are derived from it, and the audit re-derives them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Iterator, NamedTuple

import numpy as np

from .constants import (
    DEFAULT_KIND,
    envelope_b_n,
    h_n,
    i_n,
    i_n_limit,
    i_star_n,
    j_n,
    pal_constant,
    rho_star,
)
from .errors import ConfigurationError, DomainError, NumericalError
from .geometry import (
    ConvexBody,
    CylinderBody,
    MapDisplacementStats,
    PolygonBoundary,
    Polytope3,
    SphereBody,
    central_point_map,
    displacement_stats,
    euclidean_antipode_map,
    half_perimeter_map,
    mean_width,
    min_width,
    random_polytope,
    regular_polygon,
    equilateral_triangle,
    substream,
    unit_directions,
)
from .numerics import LogReal, log_unit_ball_volume

__all__ = [
    "ORIENTATION",
    "SCHEMA_VERSION",
    "STATUSES",
    "SuiteConfig",
    "SuiteReport",
    "THEOREM_IDS",
    "VerificationRecord",
    "audit_orientation_notes",
    "check_area_via_isoperimetric",
    "check_chord_projection",
    "check_cone_vs_ball",
    "check_crofton",
    "check_envelope",
    "check_main_theorem",
    "check_mean_width",
    "check_pal_firey",
    "check_point_pair_bound",
    "check_volume_bound",
    "derive_status",
    "diff_records",
    "load_records_csv",
    "load_records_jsonl",
    "run_suite",
]

SCHEMA_VERSION = 1

THEOREM_IDS = (
    "thm_1_1",
    "prop_2_1",
    "cor_2_7",
    "prop_3_1",
    "cor_3_2",
    "thm_3_6",
    "thm_1_4",
    "thm_2_2",
    "lem_2_7",
    "prop_4_1",
)

STRICT = "strict"
EQUALITY = "equality"
ADVISORY = "advisory"
NOT_APPLICABLE = "not_applicable"
STATUSES = (STRICT, EQUALITY, ADVISORY, NOT_APPLICABLE)

_CLOSED_FORM_TOL = 1e-12

# the checks compare against the Pal-Firey constants only; records still
# name the kind, since ORIENTATION reads it back from loaded records
_KIND_PARAM = ("constants_kind", DEFAULT_KIND)

# edge subdivision of the suite's polytope geodesic graphs
SUITE_SUBDIVISION = 6

# sampled directions of the chord-projection check
CHORD_DIRECTIONS = 10

# constant params of the retired Monte Carlo widths, kept because the
# benchmark's record key names them; the next benchmark change drops them
_RETIRED_WIDTH_PARAMS = [("mc_stderr", 0.0), ("mean_width_samples", 0)]


@dataclass(frozen=True)
class VerificationRecord:
    """One evaluated inequality instance."""

    theorem_id: str
    body_id: str
    map_id: str | None
    lhs: float
    rhs: float
    margin: float
    passed: bool
    status: str
    bound_orientation_notes: str
    seed: int
    params: tuple[tuple[str, object], ...]

    def as_dict(self) -> dict:
        """The record's fields by name, as a JSON line holds them."""
        fields = {f.name: SCHEMA_VERSION if f.attr is None else getattr(self, f.attr)
                  for f in _FIELDS}
        fields["params"] = dict(self.params)
        return fields

    def sort_key(self) -> tuple:
        return (self.theorem_id, self.body_id, self.map_id or "")


def _clean(value):
    """Coerce numpy scalars so records serialize identically everywhere."""
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _record(
    theorem_id: str,
    body_id: str,
    map_id: str | None,
    lhs: float,
    rhs: float,
    status: str,
    notes: str,
    seed: int,
    params: list[tuple[str, object]],
    tolerance: float = 0.0,
) -> VerificationRecord:
    if theorem_id not in THEOREM_IDS:
        raise ConfigurationError(f"unknown theorem id {theorem_id!r}")
    lhs, rhs = float(lhs), float(rhs)
    margin = lhs - rhs
    if status == STRICT:
        passed = margin > 0.0
    elif status == EQUALITY:
        passed = abs(margin) <= tolerance
        params = params + [("equality_tolerance", tolerance)]
    elif status == ADVISORY:
        passed = margin > 0.0  # informational; never gates the suite
    elif status == NOT_APPLICABLE:
        passed = True
    else:
        raise ConfigurationError(f"unknown record status {status!r}")
    return VerificationRecord(
        theorem_id=theorem_id,
        body_id=body_id,
        map_id=map_id,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        passed=passed,
        status=status,
        bound_orientation_notes=notes,
        seed=int(seed),
        params=tuple((k, _clean(v)) for k, v in params),
    )


def _derived_seed(root: int, *names: str) -> int:
    value = int(root) & 0xFFFFFFFF
    for name in names:
        value = zlib.crc32(name.encode("utf-8"), value)
    return value


# ---------------------------------------------------------------------------
# bound orientation
# ---------------------------------------------------------------------------

# how a bound's right side moves as one of its inputs grows; ENVELOPE is
# B_n = max(i_n, j_n), which falls to h_n at the crossing and then rises
# toward its limit i_n(inf)
UP, DOWN, ENVELOPE = "up", "down", "envelope"

# where an estimated input sits against its true value
HIGH, LOW, EITHER, EXACT = (
    "sits at or above its true value",
    "sits at or below its true value",
    "may sit on either side of its true value",
    "is exact",
)


@dataclass(frozen=True)
class Orientation:
    """A bound's right side as a function of a record's params, and the
    direction in which it moves as each estimated input grows."""

    rhs: Callable[[dict], float]
    slopes: tuple[tuple[str, str], ...]


def _area_rhs(constant: Callable[[dict], LogReal]) -> Callable[[dict], float]:
    """constant(params) times mu_hat^n."""
    return lambda p: constant(p).to_float() * p["mu_hat"] ** p["surface_dimension"]


def _pair_rhs(constant: Callable[[int, float], LogReal]) -> Callable[[dict], float]:
    """constant(n, d/chord) times d^n at the pair distance d."""
    def rhs(p: dict) -> float:
        n, d = p["surface_dimension"], p["intrinsic_distance"]
        return constant(n, d / p["chord"]).to_float() * d**n
    return rhs


ORIENTATION: dict[str, Orientation] = {
    "thm_1_1": Orientation(
        _area_rhs(lambda p: h_n(p["surface_dimension"], p["constants_kind"])),
        (("mu_hat", UP),),
    ),
    "cor_3_2": Orientation(
        _area_rhs(lambda p: j_n(p["surface_dimension"], p["rho_hat"], p["constants_kind"])),
        (("mu_hat", UP), ("rho_hat", DOWN)),
    ),
    "prop_4_1": Orientation(
        _area_rhs(
            lambda p: envelope_b_n(p["surface_dimension"], p["rho_hat"], p["constants_kind"])
        ),
        (("mu_hat", UP), ("rho_hat", ENVELOPE)),
    ),
    "prop_3_1": Orientation(
        lambda p: pal_constant(p["ambient_dimension"], p["constants_kind"]).to_float()
        * (p["mu_hat"] / max(p["rho_hat"], 1.0)) ** p["ambient_dimension"],
        (("mu_hat", UP), ("rho_hat", DOWN)),
    ),
    "thm_1_4": Orientation(lambda p: 2.0 * p["mu_hat"] / math.pi, (("mu_hat", UP),)),
    "prop_2_1": Orientation(_pair_rhs(i_n), (("intrinsic_distance", UP),)),
    "cor_2_7": Orientation(_pair_rhs(i_star_n), (("intrinsic_distance", UP),)),
}

# how the notes name each input: the estimate, then the quantity
_INPUT_NAMES = {
    "mu_hat": ("the sampled minimum displacement", "the displacement"),
    "rho_hat": ("the sampled distortion", "the distortion"),
    "intrinsic_distance": ("the pair distance", "the pair distance"),
}


def _errors(params: dict) -> dict[str, str]:
    """Where each input sits against its true value.  A sampled minimum of
    exact or upper-bound distances is at or above the true minimum; a
    sampled maximum of exact distance ratios is at or below the true
    distortion, while upper-bound distances can push it either way."""
    exact = params["distance_kind"] == "exact"
    return {
        "mu_hat": HIGH,
        "rho_hat": LOW if exact else EITHER,
        "intrinsic_distance": EXACT if exact else HIGH,
    }


def _effects(theorem_id: str, params: dict) -> list[tuple[bool, str]]:
    """Per estimated input: whether it can only push the right side up, and
    the clause of the notes that says why."""
    errors = _errors(params)
    effects = []
    for name, slope in ORIENTATION[theorem_id].slopes:
        error = errors[name]
        if error == EXACT:
            continue
        estimate, quantity = _INPUT_NAMES[name]
        if slope == ENVELOPE:
            n = params["surface_dimension"]
            limit = i_n_limit(n)
            value = envelope_b_n(n, params["rho_hat"], params["constants_kind"])
            safe = error == LOW and value.log_magnitude >= limit.log_magnitude
            why = (
                f"the envelope falls to h_n at the crossing and then rises toward "
                f"i_n(inf) = {limit.to_float():.6g}; at the estimate it is "
                f"{value.to_float():.6g}, "
                + ("at least that limit, so no larger distortion can raise it" if safe
                   else "so the true distortion could put the right side higher")
            )
        else:
            safe = error != EITHER and (error == HIGH) == (slope == UP)
            why = (
                f"the right side {'grows with' if slope == UP else 'decreases in'} "
                f"{quantity}, so the estimate can "
                + ("only inflate it" if safe else "deflate it")
            )
        effects.append((safe, f"{estimate} {error}, and {why}"))
    return effects


def derive_status(theorem_id: str, params: dict) -> tuple[str, str]:
    """Status and notes of a record from ORIENTATION: strict when every
    estimated input can only push the right side up, advisory otherwise."""
    effects = _effects(theorem_id, params)
    safe = all(ok for ok, _ in effects)
    if not effects:
        ending = "no estimate entered, so the right side is the theorem's own value"
    elif safe:
        ending = "every estimate can only make the check harder than the theorem"
    else:
        ending = "a pass cannot be certified, so the record is advisory only"
    exact = params["distance_kind"] == "exact"
    lead = f"boundary distances are {'exact' if exact else 'upper bounds'}"
    notes = "; ".join([lead, *(clause for _, clause in effects), ending])
    return (STRICT if safe else ADVISORY), notes


def _oriented_record(
    theorem_id: str,
    body_id: str,
    map_id: str | None,
    seed: int,
    lhs: float,
    params: list[tuple[str, object]],
    equality_tol: float | None = None,
) -> VerificationRecord:
    """A record whose right side, status and notes ORIENTATION derives from
    its params; with ``equality_tol``, sides that agree within it make an
    equality record."""
    p = {key: _clean(value) for key, value in params}
    rhs = ORIENTATION[theorem_id].rhs(p)
    status, notes = derive_status(theorem_id, p)
    if equality_tol is not None and abs(lhs - rhs) <= equality_tol:
        status = EQUALITY
        notes += "; the two sides agree within closed-form tolerance (an equality case)"
    return _record(theorem_id, body_id, map_id, lhs, rhs, status, notes, seed, params,
                   tolerance=equality_tol or 0.0)


def _sampled_record(theorem_id, body: ConvexBody, stats: MapDisplacementStats, lhs,
                    params, equality_tol: float | None = None) -> VerificationRecord:
    """An oriented record on the body's own displacement statistics."""
    if stats.body_id != body.body_id:
        raise ConfigurationError(
            f"statistics of {stats.body_id!r} passed with body {body.body_id!r}"
        )
    return _oriented_record(theorem_id, body.body_id, stats.map_id, stats.seed, lhs,
                            params, equality_tol)


def _sample_params(stats: MapDisplacementStats) -> list[tuple[str, object]]:
    """The params that say how the statistics were sampled."""
    return [
        ("mu_source", "sampled"),
        ("distance_kind", stats.distance_kind),
        ("sample_count", stats.sample_count),
        ("distance_samples", stats.distance_samples),
    ]


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_main_theorem(body: ConvexBody, stats: MapDisplacementStats) -> VerificationRecord:
    """Boundary area against the crossing constant times displacement^n."""
    n = body.surface_dimension
    return _sampled_record("thm_1_1", body, stats, body.boundary_area(), [
        ("surface_dimension", n),
        _KIND_PARAM,
        ("mu_hat", stats.mu_hat),
        *_sample_params(stats),
    ])


def check_point_pair_bound(body: ConvexBody, x, y, seed: int = 0) -> VerificationRecord:
    """Area against the distortion constant at one boundary point pair.

    Uses the supporting-plane variant (the starred constant) when the two
    hyperplanes orthogonal to the chord at its endpoints support the body.
    """
    n = body.surface_dimension
    if n < 2:
        raise DomainError("the point-pair bound needs surface dimension at least 2")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    chord = float(np.linalg.norm(y - x))
    if chord <= 0.0:
        raise DomainError("point pair must be distinct")
    d_m, dist_kind = body.intrinsic_distance(x, y)
    rho_pair = d_m / chord
    lhs = body.boundary_area()
    base_params: list[tuple[str, object]] = [
        ("surface_dimension", n),
        ("rho_pair", rho_pair),
        ("intrinsic_distance", d_m),
        ("chord", chord),
        ("distance_kind", dist_kind),
    ]
    if rho_pair <= 1.0 + 1e-12:
        return _record(
            "prop_2_1",
            body.body_id,
            None,
            lhs,
            0.0,
            NOT_APPLICABLE,
            "pair has intrinsic distance equal to its chord (ratio 1); the "
            "bound degenerates and nothing is claimed",
            seed,
            base_params,
        )

    direction = (y - x) / chord
    tol = 1e-9 * body.scale
    back_supports = abs(body.support(-direction) - float(x @ -direction)) <= tol
    front_supports = abs(body.support(direction) - float(y @ direction)) <= tol
    starred = back_supports and front_supports
    return _oriented_record(
        "cor_2_7" if starred else "prop_2_1", body.body_id, None, seed, lhs,
        base_params + [("supporting_planes", starred)],
    )


def check_volume_bound(body: ConvexBody, stats: MapDisplacementStats) -> VerificationRecord:
    """Enclosed volume against the width constant times (mu/rho)^(n+1)."""
    return _sampled_record("prop_3_1", body, stats, body.enclosed_volume(), [
        ("ambient_dimension", body.ambient_dimension),
        _KIND_PARAM,
        ("mu_hat", stats.mu_hat),
        ("rho_hat", stats.rho_hat),
        *_sample_params(stats),
    ])


def check_area_via_isoperimetric(
    body: ConvexBody, stats: MapDisplacementStats
) -> VerificationRecord:
    """Area against the isoperimetric-route constant at the sampled distortion."""
    n = body.surface_dimension
    return _sampled_record("cor_3_2", body, stats, body.boundary_area(), [
        ("surface_dimension", n),
        _KIND_PARAM,
        ("mu_hat", stats.mu_hat),
        ("rho_hat", max(stats.rho_hat, 1.0)),
        *_sample_params(stats),
    ])


def check_pal_firey(body: ConvexBody, seed: int = 0) -> VerificationRecord:
    """Enclosed volume against the width constant times min-width^d."""
    d = body.ambient_dimension
    result = min_width(body)
    lhs = body.enclosed_volume()
    rhs = pal_constant(d).to_float() * result.value**d
    margin = lhs - rhs
    tol = _CLOSED_FORM_TOL * max(1.0, abs(lhs))
    if abs(margin) <= tol:
        status, tolerance = EQUALITY, tol
        notes = (
            "volume and minimum width are closed-form here and the bound is "
            "attained; compared as an equality at floating-point tolerance"
        )
    else:
        status, tolerance = STRICT, 0.0
        notes = "minimum width is exact for every body type; no estimate entered"
    return _record(
        "thm_3_6",
        body.body_id,
        None,
        lhs,
        rhs,
        status,
        notes,
        seed,
        [
            ("ambient_dimension", d),
            _KIND_PARAM,
            ("min_width", result.value),
            ("min_width_kind", "exact"),  # retired like _RETIRED_WIDTH_PARAMS
        ],
        tolerance=tolerance,
    )


def check_cone_vs_ball(d: int, seed: int = 0) -> VerificationRecord:
    """Unit-width cone has less volume than the unit-width ball (d >= 3).

    The cone of height 1 over a (d-1)-ball of radius 1/sqrt(3) contains a
    unit segment in every direction yet undercuts the ball of diameter 1,
    so the ball is not the minimizer of volume at fixed minimum width.
    """
    if d < 3:
        raise DomainError("the cone comparison starts at ambient dimension 3")
    ball = math.exp(log_unit_ball_volume(d) - d * math.log(2.0))
    cone = math.exp(
        log_unit_ball_volume(d - 1)
        - (d - 1) / 2.0 * math.log(3.0)
        - math.log(d)
    )
    pal_floor = pal_constant(d).to_float()
    return _record(
        "thm_3_6",
        f"unit-width-cone-d{d}",
        None,
        ball,
        cone,
        STRICT,
        "both volumes are closed forms; the positive margin shows the "
        "width-one ball is not extremal, while the cone itself still sits "
        "above the planar-constant floor recorded in the parameters",
        seed,
        [
            ("ambient_dimension", d),
            ("ball_volume", ball),
            ("cone_volume", cone),
            ("pal_floor", pal_floor),
            ("cone_above_floor", cone > pal_floor),
        ],
    )


def check_mean_width(body: ConvexBody, stats: MapDisplacementStats) -> VerificationRecord:
    """Exact mean width against (2/pi) times the sampled minimum
    displacement; an equality case is judged at the closed-form tolerance."""
    mw = mean_width(body)
    return _sampled_record(
        "thm_1_4", body, stats, mw.value,
        [
            ("mu_hat", stats.mu_hat),
            ("mu_source", "sampled"),
            ("distance_kind", stats.distance_kind),
            ("mean_width_method", mw.method),
            *_RETIRED_WIDTH_PARAMS,
            ("sample_count", stats.sample_count),
        ],
        equality_tol=_CLOSED_FORM_TOL * max(1.0, abs(mw.value)),
    )


def check_crofton(body: PolygonBoundary, seed: int = 0) -> VerificationRecord:
    """Cauchy's identity, perimeter = pi * mean width, as two exact routes
    (edge lengths against the support function integrated between edge
    normals) compared at the closed-form tolerance."""
    if not isinstance(body, PolygonBoundary):
        raise DomainError("the perimeter identity applies to closed convex curves")
    lhs = body.perimeter
    rhs = math.pi * mean_width(body).value
    tol = _CLOSED_FORM_TOL * max(1.0, abs(lhs))
    return _record(
        "thm_2_2",
        body.body_id,
        None,
        lhs,
        rhs,
        EQUALITY,
        "left side is the perimeter summed from edge lengths; right side is "
        "pi times the mean width integrated from the support function between "
        "consecutive edge normals; two exact routes compared as an equality "
        "at closed-form tolerance",
        seed,
        [*_RETIRED_WIDTH_PARAMS, ("relative_gap", abs(lhs - rhs) / lhs)],
        tolerance=tol,
    )


def check_chord_projection(body: Polytope3, seed: int = 0) -> VerificationRecord:
    """Volume against chord-through-centroid times projected area over 3."""
    if not isinstance(body, Polytope3):
        raise DomainError("the chord-projection bound is run on 3-polytopes")
    rng = substream(seed, "chord-projection", body.body_id)
    dirs = unit_directions(rng, CHORD_DIRECTIONS, 3)
    center = body.solid_centroid()
    lhs = body.enclosed_volume()
    ends = body.ray_exit(center, np.concatenate([dirs, -dirs]))
    spans = ends[:CHORD_DIRECTIONS] - ends[CHORD_DIRECTIONS:]
    chords = np.sqrt(np.vecdot(spans, spans))  # bit-equal to 1-D norms
    rhs = chords * body.projected_areas(dirs) / 3.0
    worst_index = int(np.argmax(rhs))  # the first of equal maxima
    return _record(
        "lem_2_7",
        body.body_id,
        None,
        lhs,
        float(rhs[worst_index]),
        STRICT,
        "volume, chord, and projected hull area are all exact; the right "
        "side is the largest over the sampled directions, the hardest case",
        seed,
        [
            ("directions", CHORD_DIRECTIONS),
            ("worst_direction_index", worst_index),
        ],
    )


def check_envelope(body: ConvexBody, stats: MapDisplacementStats) -> VerificationRecord:
    """Area against the two-branch envelope at the sampled distortion.

    The envelope falls to h_n at the crossing and then rises toward its
    limit i_n(inf), so an under-estimated distortion keeps the right side
    inflated only where the envelope is at least that limit; elsewhere the
    record is advisory (see ORIENTATION).
    """
    n = body.surface_dimension
    crossing, branch = rho_star(n)
    return _sampled_record("prop_4_1", body, stats, body.boundary_area(), [
        ("surface_dimension", n),
        _KIND_PARAM,
        ("mu_hat", stats.mu_hat),
        ("rho_hat", max(stats.rho_hat, 1.0)),
        ("rho_hat_exceeds_one", stats.rho_hat > 1.0),
        ("crossing", crossing),
        ("crossing_branch", branch),
        *_sample_params(stats),
    ])


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 1729
    samples: int = 10_000
    polytope_count: int = 20
    # not a setting: the suite runs in one thread.  Kept only because the
    # benchmark's workload reads it; the next benchmark change drops it.
    threads: ClassVar[int] = 1

    def __post_init__(self):
        if self.seed < 0 or self.samples < 1 or self.polytope_count < 0:
            raise ConfigurationError(
                "seed must be >= 0, samples >= 1 and polytope count >= 0, got "
                f"{self.seed}, {self.samples} and {self.polytope_count}"
            )


@dataclass(frozen=True)
class SuiteReport:
    records: tuple[VerificationRecord, ...]
    status_counts: tuple[tuple[str, int], ...]
    strict_failures: tuple[tuple[str, str, str], ...]
    equality_failures: tuple[tuple[str, str, str], ...]
    skipped: tuple[tuple[str, str, str], ...]
    missing_notes: tuple[int, ...]  # indices that audit_orientation_notes flags
    min_central_rho_hat: float
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return not (self.strict_failures or self.equality_failures or self.missing_notes)


def _suite_bodies(config: SuiteConfig) -> Iterator[ConvexBody]:
    """The suite's bodies in run order, each built only when the loop asks."""
    def profile_cylinder(rho: float, tag: str) -> CylinderBody:
        # cap-center displacement exactly 1, cap-center distortion exactly rho
        return CylinderBody(
            2, (rho - 1.0) / (2.0 * rho), 1.0 / rho, body_id=f"cylinder-{tag}"
        )

    yield SphereBody(1.0, body_id="sphere-unit")
    yield profile_cylinder(2.0, "rho2")
    yield profile_cylinder(20.0, "rho20")
    yield equilateral_triangle(1.0, body_id="triangle-unit")
    yield PolygonBoundary(
        np.array([[0.5, -0.5], [0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5]]),
        body_id="square-unit",
    )
    yield regular_polygon(6, 1.0, body_id="hexagon-unit")
    yield regular_polygon(5, 1.0, body_id="pentagon-unit")
    yield PolygonBoundary(
        np.array([[0.0, 0.0], [2.0, 0.1], [2.5, 1.3], [1.2, 2.2], [-0.4, 1.0]]),
        body_id="pentagon-irregular",
    )

    # two shaped polytopes from named substreams: a flat pancake (large
    # distortion between its faces) and a long cigar (the elongated case)
    for tag, squash in (("pancake-flat", [1.0, 1.0, 0.07]), ("cigar-long", [3.0, 0.45, 0.45])):
        rng = substream(config.seed, "shaped-polytope", tag)
        dirs = unit_directions(rng, 40, 3)
        radii = 1.0 + 0.25 * (rng.random(40) - 0.5)
        yield Polytope3(
            dirs * radii[:, None] * np.asarray(squash),
            body_id=tag,
            geodesic_subdivision=SUITE_SUBDIVISION,
        )

    for i in range(config.polytope_count):
        yield random_polytope(
            _derived_seed(config.seed, "suite-polytope", str(i)),
            14 + (i % 12),
            geodesic_subdivision=SUITE_SUBDIVISION,
        )


def run_suite(config: SuiteConfig | None = None) -> SuiteReport:
    """Evaluate every applicable check on the default body/map matrix."""
    config = config or SuiteConfig()
    start = time.monotonic()
    maps = {
        "central-point": central_point_map(),
        "euclidean-antipode": euclidean_antipode_map(),
        "half-perimeter": half_perimeter_map(),
    }

    records: list[VerificationRecord] = []  # put in sort_key order at the end
    skipped: list[tuple[str, str, str]] = []
    central_rho_hats: list[float] = []

    for body in _suite_bodies(config):
        n = body.surface_dimension
        seed_body = _derived_seed(config.seed, "body", body.body_id)
        records.append(check_pal_firey(body, seed=seed_body))
        if isinstance(body, PolygonBoundary):
            records.append(check_crofton(body, seed=seed_body))
        if isinstance(body, Polytope3):
            records.append(check_chord_projection(body, seed=seed_body))

        for map_id, disp_map in maps.items():
            if map_id == "half-perimeter" and not isinstance(body, PolygonBoundary):
                continue
            seed_pair = _derived_seed(config.seed, "stats", body.body_id, map_id)
            try:
                stats = displacement_stats(
                    body, disp_map, samples=config.samples, seed=seed_pair
                )
            except (ConfigurationError, DomainError, NumericalError) as exc:
                skipped.append((body.body_id, map_id, str(exc)))
                continue
            if map_id == "central-point":
                central_rho_hats.append(stats.rho_hat)

            if n >= 2:
                records.append(check_main_theorem(body, stats))
                records.append(check_area_via_isoperimetric(body, stats))
                records.append(check_envelope(body, stats))
            records.append(check_volume_bound(body, stats))
            records.append(check_mean_width(body, stats))

            if map_id == "central-point" and n >= 2:
                records.append(check_point_pair_bound(
                    body,
                    np.array(stats.argmax_ratio_point),
                    np.array(stats.argmax_ratio_image),
                    seed=seed_pair,
                ))

        # closed-form pairs with exact distances: the sphere's antipodes
        # center ± r e1 and a cylinder's cap centres (0, ..., 0, ±h/2)
        if isinstance(body, SphereBody):
            e1 = np.eye(body.ambient_dimension)[0] * body.radius
            pair = (body.center + e1, body.center - e1)
        elif isinstance(body, CylinderBody):
            top = np.eye(body.ambient_dimension)[-1] * (body.height / 2.0)
            pair = (top, -top)
        else:
            continue
        records.append(check_point_pair_bound(
            body, *pair, seed=_derived_seed(config.seed, "pair", body.body_id)
        ))

    for d in (3, 4, 5, 6):
        records.append(check_cone_vs_ball(d, seed=_derived_seed(config.seed, "cone", str(d))))

    records.sort(key=lambda r: r.sort_key())

    counts: dict[str, int] = {status: 0 for status in STATUSES}
    strict_failures = []
    equality_failures = []
    for rec in records:
        counts[rec.status] += 1
        key = (rec.theorem_id, rec.body_id, rec.map_id or "")
        if rec.status == STRICT and not rec.passed:
            strict_failures.append(key)
        if rec.status == EQUALITY and not rec.passed:
            equality_failures.append(key)

    return SuiteReport(
        records=tuple(records),
        status_counts=tuple(sorted(counts.items())),
        strict_failures=tuple(strict_failures),
        equality_failures=tuple(equality_failures),
        skipped=tuple(skipped),
        missing_notes=audit_orientation_notes(records),
        min_central_rho_hat=min(central_rho_hats) if central_rho_hats else math.nan,
        elapsed_seconds=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# audits and serialization
# ---------------------------------------------------------------------------

def audit_orientation_notes(records) -> tuple[int, ...]:
    """Indices of records whose notes are silent although an estimate
    entered, and of strict records with an input on the unsafe side, as
    ORIENTATION re-derives it from their params."""
    bad = []
    for idx, record in enumerate(records):
        effects = []
        if record.theorem_id in ORIENTATION:
            effects = _effects(record.theorem_id, dict(record.params))
        estimated = record.status == ADVISORY or bool(effects)
        unsafe = record.status == STRICT and not all(safe for safe, _ in effects)
        if unsafe or (estimated and not record.bound_orientation_notes.strip()):
            bad.append(idx)
    return tuple(bad)


def _json_text(value) -> str:
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


class _Field(NamedTuple):
    """A record field: its JSON key and CSV column, the attribute that
    holds it (None: the schema version), the exact types a loaded value may
    have (a float read as an int is refused, so a loaded record writes back
    the bytes it was read from), its CSV cell codec and, if not empty, the
    values a loaded field may take."""

    name: str
    attr: str | None
    types: tuple[type, ...]
    to_text: Callable[[object], str]
    from_text: Callable[[str], object]
    values: tuple = ()


_FIELDS = (
    _Field("schema_version", None, (int,), str, int, (SCHEMA_VERSION,)),
    _Field("theorem_id", "theorem_id", (str,), str, str),
    _Field("body_id", "body_id", (str,), str, str),
    _Field("map_id", "map_id", (str, type(None)),
           lambda v: "" if v is None else v, lambda t: t or None),
    _Field("status", "status", (str,), str, str, STATUSES),
    _Field("pass", "passed", (bool,),
           lambda v: "true" if v else "false", lambda t: {"true": True, "false": False}.get(t, t)),
    _Field("lhs", "lhs", (float,), repr, float),
    _Field("rhs", "rhs", (float,), repr, float),
    _Field("margin", "margin", (float,), repr, float),
    _Field("seed", "seed", (int,), str, int),
    _Field("bound_orientation_notes", "bound_orientation_notes", (str,), str, str),
    _Field("params", "params", (dict,), _json_text, json.loads),
)


def records_to_jsonl(records) -> str:
    lines = [_json_text(rec.as_dict()) for rec in records]
    return "\n".join(lines) + ("\n" if lines else "")


def records_to_csv(records) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(f.name for f in _FIELDS)
    for rec in records:
        d = rec.as_dict()
        writer.writerow([f.to_text(d[f.name]) for f in _FIELDS])
    return buffer.getvalue()


def load_records_jsonl(path) -> tuple[VerificationRecord, ...]:
    """The records of a JSON-lines file, each checked against ``_FIELDS``;
    ``ConfigurationError`` names the file, the line and the field."""
    records = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        if line.strip():
            where = f"{path}, line {number}"
            try:
                data = json.loads(line)
            except ValueError as exc:
                raise ConfigurationError(f"{where}: not JSON ({exc})") from None
            if not isinstance(data, dict):
                raise ConfigurationError(f"{where}: a record is a JSON object, not {data!r}")
            records.append(_record_from_fields(data, where, cells=False))
    return tuple(records)


def load_records_csv(path) -> tuple[VerificationRecord, ...]:
    """The records of a CSV file, each checked against ``_FIELDS``; a
    repeated column, or a row whose cell count is not the header's, is
    refused too.  ``ConfigurationError`` names the file, the line and the
    field."""
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        repeated = next((name for i, name in enumerate(header) if name in header[:i]), None)
        if repeated is not None:
            raise ConfigurationError(f"{path}, line 1: repeated column {repeated!r}")
        records = []
        for row in filter(None, reader):  # a blank line holds no record
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ConfigurationError(f"{where}: {len(row)} cells, the header has {len(header)}")
            records.append(_record_from_fields(dict(zip(header, row)), where, cells=True))
        return tuple(records)


def _record_from_fields(data: dict, where: str, cells: bool) -> VerificationRecord:
    """A record from its fields by name, each decoded from CSV text when
    ``cells`` is true and checked against its row of ``_FIELDS``; a name
    that ``_FIELDS`` lacks is refused once every field has checked out."""
    fields = {}
    for f in _FIELDS:
        if f.name not in data:
            raise ConfigurationError(f"{where}: missing field {f.name!r}")
        value = data[f.name]
        if cells:
            try:
                value = f.from_text(value)
            except ValueError:
                raise ConfigurationError(
                    f"{where}: field {f.name!r} cannot be read from {value!r}"
                ) from None
        if type(value) not in f.types or (f.values and value not in f.values):
            wanted = " or ".join(
                map(repr, f.values) if f.values
                else ("null" if t is type(None) else t.__name__ for t in f.types)
            )
            raise ConfigurationError(f"{where}: field {f.name!r} must be {wanted}, not {value!r}")
        fields[f.attr] = value
    unknown = sorted(data.keys() - {f.name for f in _FIELDS})
    if unknown:
        raise ConfigurationError(f"{where}: unknown field {unknown[0]!r}")
    del fields[None]  # the schema version
    fields["params"] = tuple(fields["params"].items())
    return VerificationRecord(**fields)


# ---------------------------------------------------------------------------
# record diff
# ---------------------------------------------------------------------------


def _ordered_bits(x: float) -> int:
    """An integer per double that keeps their order; neighbours differ by 1."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


@dataclass(frozen=True)
class RecordDiff:
    """Two record streams matched on (theorem, body, map) and the rank of
    a record among those with the same triple, in stream order."""

    rows: tuple[dict, ...]  # one per changed, added or dropped record
    compared: int  # records present in both streams
    moved: int  # of those, records whose margin changed
    flips: int  # of those, records whose status or pass changed
    relabelled: int  # of those, records whose notes or params changed
    added: int
    dropped: int
    worst_ulps: int
    worst_relative: float

    @property
    def clean(self) -> bool:
        """No status or pass flip and no added or dropped record."""
        return not (self.flips or self.added or self.dropped)

    def summary(self) -> str:
        return (
            f"{self.compared} records matched, {self.moved} margins moved "
            f"(worst {self.worst_ulps} ulp, {self.worst_relative:.1e} relative), "
            f"{self.flips} status or pass flips, {self.added} added, "
            f"{self.dropped} dropped, {self.relabelled} notes or params changed"
        )


def diff_records(before, after) -> RecordDiff:
    """Margin drift, status and pass flips, notes and params changes, and
    added and dropped records between two record streams.  A margin's
    relative change is (after - before) / max(|before|, |after|)."""

    def keyed(records) -> dict[tuple, VerificationRecord]:
        rank: Counter = Counter()
        out = {}
        for rec in records:
            triple = (rec.theorem_id, rec.body_id, rec.map_id)
            out[(*triple, rank[triple])] = rec
            rank[triple] += 1
        return out

    old, new = keyed(before), keyed(after)
    rows: list[dict] = []
    moved = flips = relabelled = 0
    worst_ulps, worst_relative = 0, 0.0
    for key in [*old, *(key for key in new if key not in old)]:
        a, b = old.get(key), new.get(key)
        row = {"theorem": key[0], "body": key[1], "map": key[2] or "-", "rank": key[3]}
        if a is None or b is None:
            rows.append({**row, "change": "added" if a is None else "dropped"})
            continue
        flipped = a.status != b.status or a.passed != b.passed
        relabel = (a.bound_orientation_notes, a.params) != (b.bound_orientation_notes, b.params)
        if a.margin == b.margin and not (flipped or relabel):
            continue
        ulps = abs(_ordered_bits(b.margin) - _ordered_bits(a.margin))
        scale = max(abs(a.margin), abs(b.margin))
        relative = (b.margin - a.margin) / scale if scale else 0.0
        moved += a.margin != b.margin
        flips += flipped
        relabelled += relabel
        worst_ulps = max(worst_ulps, ulps)
        worst_relative = max(worst_relative, abs(relative))
        rows.append({
            **row,
            "change": (
                "flip" if flipped else "margin" if a.margin != b.margin else "notes or params"
            ),
            "margin_before": a.margin,
            "margin_after": b.margin,
            "ulps": ulps,
            "relative": relative,
            "status": a.status if a.status == b.status else f"{a.status}->{b.status}",
            "pass": a.passed if a.passed == b.passed else f"{a.passed}->{b.passed}".lower(),
        })
    return RecordDiff(
        rows=tuple(rows),
        compared=len(old.keys() & new.keys()),
        moved=moved,
        flips=flips,
        relabelled=relabelled,
        added=len(new.keys() - old.keys()),
        dropped=len(old.keys() - new.keys()),
        worst_ulps=worst_ulps,
        worst_relative=worst_relative,
    )
