"""Fixed-point-free self-maps of body boundaries and displacement statistics.

A displacement map sends every boundary point to another boundary point.
``displacement_stats`` samples the boundary, pushes the samples through a
map, and records the extreme displacement (minimum intrinsic distance
moved) together with the worst intrinsic/chordal ratio seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigurationError, DomainError, FixedPointError
from .bodies import ConvexBody, PolygonBoundary, SphereBody
from .sampling import fibonacci_sphere, unit_directions, substream

__all__ = [
    "DisplacementMap",
    "MapDisplacementStats",
    "central_point_map",
    "displacement_stats",
    "euclidean_antipode_map",
    "half_perimeter_map",
]


@dataclass(frozen=True)
class DisplacementMap:
    """A boundary self-map plus the hooks the sampler needs."""

    map_id: str
    _apply: Callable[[ConvexBody, np.ndarray], np.ndarray]
    _critical: Callable[[ConvexBody], np.ndarray | None] = field(
        default=lambda body: None
    )

    def apply(self, body: ConvexBody, points: np.ndarray) -> np.ndarray:
        images = np.asarray(self._apply(body, np.atleast_2d(points)), dtype=np.float64)
        if images.shape != np.atleast_2d(points).shape:
            raise ConfigurationError(
                f"map {self.map_id!r} returned shape {images.shape}"
            )
        return images

    def critical_points(self, body: ConvexBody) -> np.ndarray | None:
        """Boundary points where displacement extrema are expected, if known."""
        return self._critical(body)


def central_point_map(through=None, map_id: str | None = None) -> DisplacementMap:
    """Send x to the far boundary intersection of the line through a fixed
    interior point.  This is an involution without fixed points for any
    interior choice (the line meets the boundary in exactly two points)."""

    def apply(body: ConvexBody, points: np.ndarray) -> np.ndarray:
        p = body.interior_point() if through is None else np.asarray(through, float)
        chords = p - points
        norms = np.sqrt(np.vecdot(chords, chords))  # bit-equal to 1-D norms
        if np.any(norms <= 1e-14 * max(1.0, np.linalg.norm(p))):
            raise DomainError("central point must not lie on the boundary")
        return body.ray_exit(p, chords / norms[:, None])

    return DisplacementMap(map_id or "central-point", apply)


def euclidean_antipode_map(map_id: str | None = None) -> DisplacementMap:
    """Send x to its reflection through the body's center; requires the body
    to be centrally symmetric (checked through the support function)."""

    def apply(body: ConvexBody, points: np.ndarray) -> np.ndarray:
        c = body.interior_point()
        dim = body.ambient_dimension
        probes = fibonacci_sphere(64) if dim == 3 else unit_directions(
            substream(20_260_101, "antipode-check", body.body_id), 64, dim
        )
        asymmetry = np.max(
            np.abs(
                body.support_batch(probes)
                - body.support_batch(-probes)
                - 2.0 * probes @ c
            )
        )
        if asymmetry > 1e-9 * body.scale:
            raise ConfigurationError(
                f"body {body.body_id!r} is not centrally symmetric "
                f"(support asymmetry {asymmetry:.3e})"
            )
        return 2.0 * c - points

    return DisplacementMap(map_id or "euclidean-antipode", apply)


def half_perimeter_map(map_id: str | None = None) -> DisplacementMap:
    """Advance every polygon boundary point half the perimeter along the
    curve.  The intrinsic displacement is exactly half the perimeter at
    every point, which makes this the equality case for curve bounds."""

    def apply(body: ConvexBody, points: np.ndarray) -> np.ndarray:
        if not isinstance(body, PolygonBoundary):
            raise ConfigurationError("half-perimeter map needs a polygon boundary")
        s = body.arclengths_of(points)
        return body.point_at(s + 0.5 * body.perimeter)

    def critical(body: ConvexBody) -> np.ndarray | None:
        if not isinstance(body, PolygonBoundary):
            return None
        # chordal extrema of the half-perimeter shift sit at vertices and
        # at simple rational fractions of the edges, so probe those
        starts = body._cum[:-1]
        lengths = body._edge_lengths
        fractions = np.array([0.0, 0.25, 0.5, 0.75])
        s = (starts[:, None] + fractions[None, :] * lengths[:, None]).ravel()
        return body.point_at(s)

    return DisplacementMap(map_id or "half-perimeter", apply, critical)


@dataclass(frozen=True)
class MapDisplacementStats:
    """Sampled displacement summary for one (body, map) pair.

    ``mu_hat`` is the smallest sampled intrinsic displacement.  It never
    falls below the true minimal displacement: the sample is finite and
    polytope distances are upper bounds, so both effects push it up.
    ``rho_hat`` is the largest sampled intrinsic/chordal ratio; with exact
    distances it is a certified lower bound for the body's distortion.
    """

    body_id: str
    map_id: str
    seed: int
    sample_count: int
    distance_samples: int
    distance_kind: str
    mu_hat: float
    rho_hat: float
    argmin_point: tuple[float, ...]
    argmin_image: tuple[float, ...]
    argmax_ratio_point: tuple[float, ...]
    argmax_ratio_image: tuple[float, ...]


def displacement_stats(
    body: ConvexBody,
    disp_map: DisplacementMap,
    samples: int = 2000,
    seed: int = 0,
    distance_cap: int = 300,
) -> MapDisplacementStats:
    """Sample the boundary, apply the map, and summarize displacements.

    Bodies with slow per-pair distance routines (cylinders, polytopes) only
    evaluate a capped subset of the samples; any map-declared critical
    points are always part of that subset.  A polytope's distances come
    from the graph of its own ``geodesic_subdivision``.
    """
    if samples < 1:
        raise ConfigurationError(f"need at least one sample, got {samples}")
    if distance_cap < 1:
        raise ConfigurationError(f"distance cap must be positive, got {distance_cap}")
    points = body.sample_boundary(seed, samples)
    crit = disp_map.critical_points(body)
    if crit is not None and len(crit):
        points = np.concatenate([np.atleast_2d(np.asarray(crit, float)), points])
    images = disp_map.apply(body, points)

    chords = np.linalg.norm(images - points, axis=1)
    if np.any(chords <= 1e-12 * body.scale):
        bad = points[int(np.argmin(chords))]
        raise FixedPointError(
            f"map {disp_map.map_id!r} fixes a boundary point of "
            f"{body.body_id!r} near {bad!r}"
        )

    fast = isinstance(body, (SphereBody, PolygonBoundary))
    if fast or len(points) <= distance_cap:
        subset = np.arange(len(points))
    else:
        subset = np.arange(distance_cap)  # critical points were prepended
    dists, kind = body.intrinsic_distances_batch(points[subset], images[subset])
    if np.any(dists < chords[subset] * (1.0 - 1e-9)):
        i = int(np.argmin(dists - chords[subset]))
        raise DomainError(
            f"intrinsic distance {dists[i]} fell below the chord {chords[subset][i]}"
        )

    ratios = dists / chords[subset]
    i_min = int(np.argmin(dists))
    i_max = int(np.argmax(ratios))
    return MapDisplacementStats(
        body_id=body.body_id,
        map_id=disp_map.map_id,
        seed=int(seed),
        sample_count=len(points),
        distance_samples=len(subset),
        distance_kind=kind,
        mu_hat=float(dists[i_min]),
        rho_hat=float(ratios[i_max]),
        argmin_point=tuple(points[subset][i_min]),
        argmin_image=tuple(images[subset][i_min]),
        argmax_ratio_point=tuple(points[subset][i_max]),
        argmax_ratio_image=tuple(images[subset][i_max]),
    )
