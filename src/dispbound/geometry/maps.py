"""Fixed-point-free self-maps of body boundaries and displacement statistics.

A displacement map sends every boundary point to another boundary point.
``displacement_stats`` samples the boundary, pushes the samples through a
map, and records the extreme displacement (minimum intrinsic distance
moved) together with the worst intrinsic/chordal ratio seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigurationError, DomainError, FixedPointError
from .bodies import ConvexBody, PolygonBoundary, SphereBody, _as_arclengths, _as_rows
from .sampling import substream, unit_directions

__all__ = [
    "DISTANCE_SAMPLES",
    "DisplacementMap",
    "MapDisplacementStats",
    "central_point_map",
    "displacement_stats",
    "euclidean_antipode_map",
    "half_perimeter_map",
]

# the most points a cylinder's or a polytope's distances are taken for
DISTANCE_SAMPLES = 300


@dataclass(frozen=True)
class DisplacementMap:
    """A boundary self-map as three callables.

    ``images(body, points, arclengths)`` gives the images of boundary points
    on a body ``check`` accepted; ``arclengths`` is None or a polygon's arc
    lengths of the points, which a map defined on arc lengths reads in
    place of computing them.  ``check(body)`` refuses a body the map cannot
    act on, from the body alone.  ``critical_points(body)`` gives boundary
    points where displacement extrema are expected, or None.
    """

    map_id: str
    images: Callable[[ConvexBody, np.ndarray, np.ndarray | None], np.ndarray]
    check: Callable[[ConvexBody], None] = lambda body: None
    critical_points: Callable[[ConvexBody], np.ndarray | None] = lambda body: None

    def apply(self, body: ConvexBody, points: np.ndarray, arclengths=None) -> np.ndarray:
        """Check the body, then map the ``(k, dim)`` boundary ``points``; a
        polygon's arc lengths of them may be passed in, one finite value per
        point."""
        self.check(body)
        points = _as_rows(points, body.ambient_dimension)
        if arclengths is not None:
            arclengths = _as_arclengths(arclengths, len(points))
        images = np.asarray(self.images(body, points, arclengths), dtype=np.float64)
        if images.shape != points.shape:
            raise ConfigurationError(
                f"map {self.map_id!r} returned shape {images.shape}"
            )
        return images


def central_point_map() -> DisplacementMap:
    """Send x to the far boundary intersection of the line through the
    body's interior point.  This is an involution without fixed points (the
    line meets the boundary in exactly two points)."""

    def images(body: ConvexBody, points: np.ndarray, arclengths) -> np.ndarray:
        p = body.interior_point()
        chords = p - points
        norms = np.sqrt(np.vecdot(chords, chords))  # bit-equal to 1-D norms
        return body.ray_exit(p, chords / norms[:, None])

    return DisplacementMap("central-point", images)


def euclidean_antipode_map() -> DisplacementMap:
    """Send x to its reflection through the body's center; requires the body
    to be centrally symmetric (checked through the support function)."""

    def check(body: ConvexBody) -> None:
        c = body.interior_point()
        rng = substream(20_260_101, "antipode-check", body.body_id)
        probes = unit_directions(rng, 64, body.ambient_dimension)
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

    def images(body: ConvexBody, points: np.ndarray, arclengths) -> np.ndarray:
        return 2.0 * body.interior_point() - points

    return DisplacementMap("euclidean-antipode", images, check)


def half_perimeter_map() -> DisplacementMap:
    """Advance every polygon boundary point half the perimeter along the
    curve.  The intrinsic displacement is exactly half the perimeter at
    every point, which makes this the equality case for curve bounds."""

    def check(body: ConvexBody) -> None:
        if not isinstance(body, PolygonBoundary):
            raise ConfigurationError("half-perimeter map needs a polygon boundary")

    def images(body: PolygonBoundary, points: np.ndarray, arclengths) -> np.ndarray:
        s = body.arclengths_of(points) if arclengths is None else arclengths
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

    return DisplacementMap("half-perimeter", images, check, critical)


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
    argmax_ratio_point: tuple[float, ...]
    argmax_ratio_image: tuple[float, ...]


def displacement_stats(
    body: ConvexBody,
    disp_map: DisplacementMap,
    samples: int = 2000,
    seed: int = 0,
) -> MapDisplacementStats:
    """Sample the boundary, apply the map, and summarize displacements.

    Bodies with slow per-pair distance routines (cylinders, polytopes) only
    evaluate the first ``DISTANCE_SAMPLES`` points; any map-declared critical
    points are always part of that subset.  A polytope's distances come
    from the graph of its own ``geodesic_subdivision``.
    """
    if samples < 1:
        raise ConfigurationError(f"need at least one sample, got {samples}")
    disp_map.check(body)  # a refused body is never sampled
    points = body.sample_boundary(seed, samples)
    crit = disp_map.critical_points(body)
    if crit is not None and len(crit):
        points = np.concatenate([crit, points])
    # a polygon's distances are arc-length gaps: the points' arc lengths
    # serve both them and a map defined on arc lengths
    arclengths = body.arclengths_of(points) if isinstance(body, PolygonBoundary) else None
    images = disp_map.apply(body, points, arclengths)

    chords = np.linalg.norm(images - points, axis=1)
    if np.any(chords <= 1e-12 * body.scale):
        bad = points[int(np.argmin(chords))]
        raise FixedPointError(
            f"map {disp_map.map_id!r} fixes a boundary point of "
            f"{body.body_id!r} near {bad!r}"
        )

    # the critical points were prepended, so the first points hold them
    fast = isinstance(body, (SphereBody, PolygonBoundary))
    subset = np.arange(len(points) if fast else min(len(points), DISTANCE_SAMPLES))
    if arclengths is not None:  # the subset is every point
        dists, kind = body.intrinsic_distances_batch(points, images, arclengths)
    else:
        dists, kind = body.intrinsic_distances_batch(points[subset], images[subset])
    if np.any(dists < chords[subset] * (1.0 - 1e-9)):
        i = int(np.argmin(dists - chords[subset]))
        raise DomainError(
            f"intrinsic distance {dists[i]} fell below the chord {chords[subset][i]}"
        )

    ratios = dists / chords[subset]
    i_max = int(np.argmax(ratios))
    return MapDisplacementStats(
        body_id=body.body_id,
        map_id=disp_map.map_id,
        seed=int(seed),
        sample_count=len(points),
        distance_samples=len(subset),
        distance_kind=kind,
        mu_hat=float(np.min(dists)),
        rho_hat=float(ratios[i_max]),
        argmax_ratio_point=tuple(points[subset][i_max]),
        argmax_ratio_image=tuple(images[subset][i_max]),
    )
