"""Concrete convex bodies: spheres, cylinders, convex polygons, 3-polytopes.

Every body exposes a positively homogeneous support function, exact
boundary area and enclosed volume, intrinsic boundary distances (exact
where the geometry allows, otherwise explicit upper bounds), and
seeded boundary sampling.
"""

from __future__ import annotations

import abc
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..errors import ConfigurationError, DomainError
from ..numerics import log_unit_ball_volume, log_unit_sphere_area
from .sampling import substream, unit_directions

__all__ = [
    "ConvexBody",
    "CylinderBody",
    "FaceTables",
    "PolygonBoundary",
    "Polytope3",
    "SphereBody",
    "cube",
    "equilateral_triangle",
    "random_polytope",
    "regular_polygon",
]

EXACT = "exact"
UPPER_BOUND = "upper_bound"

# cylinder pieces
TOP, BOTTOM, LATERAL = 0, 1, 2
# rim angles of the cylinder's candidate paths: two-leg paths (cap to
# barrel) use the fine grid, three-leg paths a 49 x 49 grid of pairs
_CAP_ANGLES = np.linspace(-math.pi, math.pi, 257)
_RIM_ANGLES = np.linspace(-math.pi, math.pi, 49)


def _as_point(p, dim: int) -> np.ndarray:
    q = np.asarray(p, dtype=np.float64)
    if q.shape != (dim,):
        raise DomainError(f"expected a point of dimension {dim}, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise DomainError(f"point has non-finite coordinates: {q!r}")
    return q


# The batch paths below use ``np.vecdot`` wherever a dot product of two
# vectors is taken: it runs the same inner loop as a 1-D ``a @ b``, so a row
# of a batch has the bits the same vector would have on its own (``einsum``
# does not).  A 2-D ``d @ N.T`` of two or more rows runs on BLAS gemm and has
# those bits too; one row goes to gemv, which does not (see ``_row_dots``).


def _as_rows(x, dim: int) -> np.ndarray:
    """The checked ``(k, dim)`` float array of the points or directions a
    geometry method takes; a bare vector, a row of another width or a
    non-finite row raises ``DomainError``."""
    rows = np.asarray(x, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise DomainError(f"expected a (k, {dim}) array, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise DomainError("vectors have non-finite coordinates")
    return rows


def _as_directions(directions, dim: int) -> np.ndarray:
    """Unit rows of a checked ``(k, dim)`` array of directions."""
    d = _as_rows(directions, dim)
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(d, d))
    if not np.all((norms > 0.0) & np.isfinite(norms)):
        raise DomainError("direction must have a nonzero finite length")
    return d / norms[:, None]


def _as_pairs(xs, ys, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The two query arrays of a batch distance call as ``(k, dim)`` rows,
    checked for dimension, finiteness and matching shapes."""
    p, q = _as_rows(xs, dim), _as_rows(ys, dim)
    if p.shape != q.shape:
        raise DomainError(
            f"query arrays must have matching shapes, got {p.shape} and {q.shape}"
        )
    return p, q


def _as_arclengths(s, count: int) -> np.ndarray:
    """A caller's arc lengths of ``count`` boundary points as a checked
    ``(count,)`` float array; another shape or a non-finite entry raises
    ``DomainError``."""
    a = np.asarray(s, dtype=np.float64)
    if a.shape != (count,):
        raise DomainError(f"expected {count} arc lengths, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("arc lengths must be finite")
    return a


# twice the finest geodesic subdivision any caller uses (32: the README
# example, perfbench's cold queries).  A graph holds V + E m nodes and its
# table their square, so an uncapped m asks for unbounded memory and time
MAX_SUBDIVISION = 64


def _check_subdivision(m) -> int:
    """A polytope geodesic subdivision: an integer in 0..MAX_SUBDIVISION,
    not a bool."""
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise ConfigurationError(f"geodesic subdivision must be an integer, got {m!r}")
    if m < 0:
        raise ConfigurationError("geodesic subdivision must be nonnegative")
    if m > MAX_SUBDIVISION:
        raise ConfigurationError(f"geodesic subdivision must be at most {MAX_SUBDIVISION}, got {m}")
    return int(m)


# float64 cells per temporary array of a chunked batch (1 MiB).  Ray exits,
# cylinder distances, the hull and the Steiner graphs' builds and queries
# run in blocks of rows that keep each temporary near this size, so a batch
# needs its input and output plus a few MiB, whatever its size
BATCH_CELLS = 1 << 17


def _row_dots(d: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The ``(k, n)`` dot products of the rows of ``d`` with the rows of
    ``m``, each with the bits of ``np.vecdot`` of the two vectors: one BLAS
    product for two rows or more, ``vecdot`` for a single row."""
    if len(d) == 1:
        return np.vecdot(d[:, None, :], m)
    return d @ m.T


def _nearest_exit(numerators: np.ndarray, normals: np.ndarray,
                  d: np.ndarray) -> np.ndarray:
    """Smallest positive ``numerator / (normal . d)`` per row of ``d`` over
    the planes whose normal faces along ``d``; inf where there is none.

    Runs in blocks of rows whose ``(rows, planes)`` temporaries hold about
    ``BATCH_CELLS`` cells; a row's value does not depend on its block, since
    ``_row_dots`` gives every block size the bits of ``vecdot``."""
    best = np.empty(len(d))
    step = max(1, BATCH_CELLS // len(normals))
    for s in range(0, len(d), step):
        denom = _row_dots(d[s:s + step], normals)
        t = np.full(denom.shape, np.inf)
        np.divide(numerators, denom, out=t, where=denom > 1e-15)
        t[t <= 0.0] = np.inf
        best[s:s + step] = t.min(axis=1)
    return best


def _exit_points(o: np.ndarray, d: np.ndarray, t: np.ndarray, body: str) -> np.ndarray:
    """``o + t d`` per row."""
    if not np.all(np.isfinite(t)):
        raise DomainError(f"ray does not exit the {body}; origin must be interior")
    return o + t[:, None] * d


def _wrap_angle(delta: float | np.ndarray):
    """Fold an angle difference into [0, pi].  ``%`` returns an entry of
    [0, 2 pi) as it is, so it runs only on the entries outside."""
    shifted = np.add(delta, np.pi, out=np.empty(np.shape(delta)))
    outside = (shifted < 0.0) | (shifted >= 2.0 * np.pi)
    np.remainder(shifted, 2.0 * np.pi, out=shifted, where=outside)
    shifted -= np.pi
    return np.abs(shifted, out=shifted)[()]


def face_membership(p: np.ndarray, faces: FaceTables, vertices: np.ndarray,
                    scale: float) -> np.ndarray:
    """The ``(m, F)`` boolean matrix whose row i marks the faces (closed
    convex polygons with outward normals over ``vertices``) that contain
    point i of the checked ``(m, 3)`` float array ``p``: one plane test for
    all points and faces, then one edge test over every slot of the padded
    face rows, on the pairs near a face's plane.  A padding slot (id V in
    ``ids`` and ``after``) clips to the same vertex at both ends, so its
    edge is 0, its side is 0 and it passes."""
    tol = 1e-9 * scale
    normals = faces.normals
    member = np.abs(np.vecdot(p[:, None, :], normals) - faces.offsets) <= tol
    point, face = np.nonzero(member)
    if len(point):
        start = vertices.take(faces.ids[face], axis=0, mode="clip")
        edges = vertices.take(faces.after[face], axis=0, mode="clip") - start
        side = np.vecdot(_cross(edges, p[point, None, :] - start), normals[face, None, :])
        member[point, face] = np.all(side >= -tol * scale, axis=1)
    return member


class ConvexBody(abc.ABC):
    """A compact convex body, described through its boundary hypersurface.

    Each boundary primitive has one batch implementation per body; the
    scalar ``support`` and ``intrinsic_distance`` are batches of one.
    """

    ambient_dimension: int
    body_id: str

    @property
    def surface_dimension(self) -> int:
        return self.ambient_dimension - 1

    def support(self, direction) -> float:
        """Support function h(u) = max over the body of <x, u> (homogeneous)."""
        u = _as_point(direction, self.ambient_dimension)
        return float(self.support_batch(u[None, :])[0])

    @abc.abstractmethod
    def support_batch(self, directions: np.ndarray) -> np.ndarray:
        """Support values over the rows of a ``(k, dim)`` array of finite
        directions; anything else raises ``DomainError``."""

    @abc.abstractmethod
    def boundary_area(self) -> float:
        """n-dimensional measure of the boundary."""

    @abc.abstractmethod
    def enclosed_volume(self) -> float:
        """(n+1)-dimensional measure of the enclosed region."""

    def intrinsic_distance(self, x, y) -> tuple[float, str]:
        """Length of a shortest boundary path, with an exact/upper-bound tag."""
        values, kind = self.intrinsic_distances_batch(
            _as_point(x, self.ambient_dimension)[None, :],
            _as_point(y, self.ambient_dimension)[None, :],
        )
        return float(values[0]), kind

    @abc.abstractmethod
    def sample_boundary(self, seed: int, count: int) -> np.ndarray:
        """Uniform-by-area boundary samples from a named substream of ``seed``."""

    @abc.abstractmethod
    def interior_point(self) -> np.ndarray:
        """Some point strictly inside the body."""

    @abc.abstractmethod
    def ray_exit(self, origin: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """The ``(k, dim)`` boundary points where the rays from one interior
        origin along the rows of a ``(k, dim)`` array leave the body."""

    @property
    def scale(self) -> float:
        """Rough linear size, used for relative tolerances."""
        axes = np.eye(self.ambient_dimension)
        return float(np.max(np.abs(self.support_batch(axes)))) or 1.0

    @abc.abstractmethod
    def intrinsic_distances_batch(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, str]:
        """Distances between matching rows of ``xs`` and ``ys``, boundary
        points of equal ``(k, dim)`` shapes; the tag is exact only when every
        row is exact."""

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.body_id}>"


# ---------------------------------------------------------------------------
# round sphere
# ---------------------------------------------------------------------------


class SphereBody(ConvexBody):
    """Round sphere of given radius and center; the ambient dimension is the
    center's length."""

    def __init__(self, radius: float, center=(0.0, 0.0, 0.0), body_id: str | None = None):
        if not (math.isfinite(radius) and radius > 0.0):
            raise ConfigurationError(f"radius must be positive, got {radius!r}")
        self.center = _as_point(center, len(np.atleast_1d(center)))
        self.ambient_dimension = len(self.center)
        if self.ambient_dimension < 2:
            raise ConfigurationError("ambient dimension must be at least 2")
        self.radius = float(radius)
        self.body_id = body_id or f"sphere-r{self.radius:g}-d{self.ambient_dimension}"

    def support_batch(self, directions: np.ndarray) -> np.ndarray:
        d = _as_rows(directions, self.ambient_dimension)
        return np.vecdot(d, self.center) + self.radius * np.linalg.norm(d, axis=1)

    def boundary_area(self) -> float:
        n = self.surface_dimension
        return math.exp(log_unit_sphere_area(n) + n * math.log(self.radius))

    def enclosed_volume(self) -> float:
        d = self.ambient_dimension
        return math.exp(log_unit_ball_volume(d) + d * math.log(self.radius))

    def intrinsic_distances_batch(self, xs, ys) -> tuple[np.ndarray, str]:
        """Great-circle arc lengths; exact, and never below the chord."""
        p, q = _as_pairs(xs, ys, self.ambient_dimension)
        points = np.concatenate([p, q])
        rel = points - self.center
        off = np.flatnonzero(
            np.abs(np.sqrt(np.vecdot(rel, rel)) - self.radius) > 1e-9 * self.radius
        )
        if len(off):
            raise DomainError(f"point is not on the sphere: {points[off[0]]!r}")
        u, v = np.split(rel / self.radius, 2)
        # the angle from half-chords, well conditioned where arccos of the
        # dot product is not (near antipodal and near coincident pairs)
        apart, toward = u - v, u + v
        angle = 2.0 * np.arctan2(
            np.sqrt(np.vecdot(apart, apart)), np.sqrt(np.vecdot(toward, toward))
        )
        # the arc exceeds the chord by ~chord^3/(24 r^2), below rounding for
        # nearly coincident points, where r * angle can land an ulp short
        return np.maximum(self.radius * angle, np.linalg.norm(p - q, axis=1)), EXACT

    def sample_boundary(self, seed: int, count: int) -> np.ndarray:
        rng = substream(seed, "sample-boundary", self.body_id)
        dirs = unit_directions(rng, count, self.ambient_dimension)
        return self.center + self.radius * dirs

    def interior_point(self) -> np.ndarray:
        return self.center.copy()

    def ray_exit(self, origin, directions) -> np.ndarray:
        o = _as_point(origin, self.ambient_dimension)
        d = _as_directions(directions, self.ambient_dimension)
        w = o - self.center
        gamma = self.radius**2 - float(w @ w)
        if gamma <= 0.0:
            raise DomainError("ray origin must be strictly inside the sphere")
        beta = np.vecdot(d, w)
        return _exit_points(o, d, -beta + np.sqrt(beta * beta + gamma), "sphere")


# ---------------------------------------------------------------------------
# right circular cylinder (ball x segment), centered at the origin
# ---------------------------------------------------------------------------


class CylinderBody(ConvexBody):
    """Axis-aligned right circular cylinder in R^(n+1), centered at the origin.

    The solid is the product of an n-ball of radius r (first n
    coordinates) with the segment [-h/2, h/2] (last coordinate); its
    boundary consists of two flat n-ball caps and the lateral piece.
    """

    def __init__(self, surface_dimension: int, base_radius: float, height: float,
                 body_id: str | None = None):
        if surface_dimension < 2:
            raise ConfigurationError("surface dimension must be at least 2")
        if not (math.isfinite(base_radius) and base_radius > 0.0):
            raise ConfigurationError(f"base radius must be positive, got {base_radius!r}")
        if not (math.isfinite(height) and height > 0.0):
            raise ConfigurationError(f"height must be positive, got {height!r}")
        self.n = int(surface_dimension)
        self.ambient_dimension = self.n + 1
        self.base_radius = float(base_radius)
        self.height = float(height)
        self.body_id = body_id or (
            f"cylinder-n{self.n}-r{self.base_radius:g}-h{self.height:g}"
        )

    def support_batch(self, directions: np.ndarray) -> np.ndarray:
        d = _as_rows(directions, self.ambient_dimension)
        return self.base_radius * np.linalg.norm(d[:, :-1], axis=1) + (
            0.5 * self.height
        ) * np.abs(d[:, -1])

    @cached_property
    def _areas(self) -> tuple[float, float]:
        """One cap's area and the lateral area, on first use: a cylinder
        whose area overflows a float still answers ray and geodesic queries."""
        n, r, h = self.n, self.base_radius, self.height
        omega_n = math.exp(log_unit_ball_volume(n))
        return omega_n * r**n, n * omega_n * r ** (n - 1) * h

    def boundary_area(self) -> float:
        return 2.0 * self._areas[0] + self._areas[1]

    def enclosed_volume(self) -> float:
        return self._areas[0] * self.height

    # -- boundary classification ------------------------------------------

    def _classify(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Piece (TOP, BOTTOM or LATERAL), distance from the axis and height
        of each row of ``p``; a rim point counts as a cap point."""
        r, h = self.base_radius, self.height
        tol = 1e-9 * max(r, h)
        perp = np.sqrt(np.vecdot(p[:, :-1], p[:, :-1]))
        z = p[:, -1]
        in_disc = perp <= r + tol
        piece = np.select(
            [(np.abs(z - 0.5 * h) <= tol) & in_disc,
             (np.abs(z + 0.5 * h) <= tol) & in_disc,
             (np.abs(perp - r) <= tol) & (np.abs(z) <= 0.5 * h + tol)],
            [TOP, BOTTOM, LATERAL], default=-1,
        )
        off = np.flatnonzero(piece < 0)
        if len(off):
            raise DomainError(f"point is not on the cylinder boundary: {p[off[0]]!r}")
        return piece, perp, z

    def intrinsic_distances_batch(self, xs, ys) -> tuple[np.ndarray, str]:
        """Exact for same-cap pairs and opposite cap centers; otherwise the
        minimum over a family of unrolled candidate paths (an upper bound).

        Each pair is classified by its pieces, and each class is one closed
        form evaluated over a fixed grid of rim angles, in chunks of rows
        that keep every temporary near ``BATCH_CELLS`` cells.
        """
        p, q = _as_pairs(xs, ys, self.ambient_dimension)
        piece_p, a, z_p = self._classify(p)
        piece_q, b, z_q = self._classify(q)
        r, h = self.base_radius, self.height
        tol = 1e-9 * max(r, h)

        # angle between the cross-section projections, in [0, pi]; a cap
        # center is angle-free, and the candidates exploit radial symmetry
        gamma = np.zeros(len(p))
        has_angle = (a >= 1e-14) & (b >= 1e-14)
        cosine = np.vecdot(p[has_angle, :-1], q[has_angle, :-1]) / (
            a[has_angle] * b[has_angle]
        )
        gamma[has_angle] = np.arccos(np.clip(cosine, -1.0, 1.0))

        dist = np.empty(len(p))
        cap_p, cap_q = piece_p != LATERAL, piece_q != LATERAL
        same_cap = cap_p & (piece_p == piece_q)
        centers = cap_p & cap_q & ~same_cap & (a <= tol) & (b <= tol)
        # the cap is flat and convex: the straight segment is a boundary
        # path and the chord is a global lower bound
        gap = p[same_cap] - q[same_cap]
        dist[same_cap] = np.sqrt(np.vecdot(gap, gap))
        dist[centers] = 2.0 * r + h  # radial + vertical + radial, by symmetry

        u = _RIM_ANGLES[:, None]  # leave the first point's piece at rim angle u
        w = _RIM_ANGLES[None, :]  # enter the second point's piece at rim angle w
        cross = 2.0 * r * np.sin(_wrap_angle(w - u) / 2.0)  # chord across a cap
        climb_run = (r * _wrap_angle(u)) ** 2

        def cap_leg(rho_from, phi):
            # straight in-cap segment from radius rho_from (at angle 0) to
            # the rim point at angle phi; the law of cosines written without
            # the cancellation that rho_from^2 + r^2 - 2 rho_from r cos(phi)
            # suffers near the rim, where it can even turn negative
            return np.sqrt((r - rho_from) ** 2 + 4.0 * rho_from * r * np.sin(phi / 2.0) ** 2)

        def around_or_over(i):
            # unrolled around the barrel, or over either cap: climb to the
            # rim at angle u, straight across the cap, descend from the rim
            # at angle w (both measured from the first point)
            best = np.hypot(r * gamma[i], z_p[i] - z_q[i])
            g = gamma[i, None, None]
            for cap_z in (0.5 * h, -0.5 * h):
                climb = np.sqrt(climb_run + ((cap_z - z_p[i]) ** 2)[:, None, None])
                descend = np.sqrt(
                    (r * _wrap_angle(g - w)) ** 2 + ((cap_z - z_q[i]) ** 2)[:, None, None]
                )
                best = np.minimum(best, (climb + cross + descend).min(axis=(1, 2)))
            return best

        def cap_to_lateral(i):
            # the cap point is p or q; leave its cap at the rim angle phi
            on_cap = cap_p[i]
            rho = np.where(on_cap, a[i], b[i])[:, None]
            cap_z = np.where(np.where(on_cap, piece_p[i], piece_q[i]) == TOP,
                             0.5 * h, -0.5 * h)
            z = np.where(on_cap, z_q[i], z_p[i])
            phi = _CAP_ANGLES[None, :]
            leg1 = cap_leg(rho, phi)
            leg2 = np.sqrt(
                (r * _wrap_angle(gamma[i, None] - phi)) ** 2 + ((cap_z - z) ** 2)[:, None]
            )
            return (leg1 + leg2).min(axis=1)

        def across_caps(i):
            # opposite caps: to the rim at angle u, down the barrel, and
            # from the rim at angle w across the other cap
            leg1 = cap_leg(a[i, None, None], u)
            lateral = np.sqrt((r * _wrap_angle(gamma[i, None, None] - u - w)) ** 2 + h**2)
            leg3 = cap_leg(b[i, None, None], w)
            return (leg1 + lateral + leg3).min(axis=(1, 2))

        step = max(1, BATCH_CELLS // (len(_RIM_ANGLES) ** 2))
        for rows, candidates in (
            (~cap_p & ~cap_q, around_or_over),
            (cap_p != cap_q, cap_to_lateral),
            (cap_p & cap_q & ~same_cap & ~centers, across_caps),
        ):
            rows = np.flatnonzero(rows)
            for s in range(0, len(rows), step):
                dist[rows[s:s + step]] = candidates(rows[s:s + step])
        return dist, EXACT if np.all(same_cap | centers) else UPPER_BOUND

    def sample_boundary(self, seed: int, count: int) -> np.ndarray:
        rng = substream(seed, "sample-boundary", self.body_id)
        n, r, h = self.n, self.base_radius, self.height
        cap_area, total = self._areas[0], self.boundary_area()
        pick = rng.random(count)
        points = np.empty((count, self.ambient_dimension))
        top = pick < cap_area / total
        bottom = (pick >= cap_area / total) & (pick < 2.0 * cap_area / total)
        lateral = ~(top | bottom)
        for mask, sign in ((top, 1.0), (bottom, -1.0)):
            k = int(mask.sum())
            if k:
                dirs = unit_directions(rng, k, n)
                radii = r * rng.random(k) ** (1.0 / n)
                points[mask, :-1] = dirs * radii[:, None]
                points[mask, -1] = sign * 0.5 * h
        k = int(lateral.sum())
        if k:
            dirs = unit_directions(rng, k, n)
            points[lateral, :-1] = r * dirs
            points[lateral, -1] = h * (rng.random(k) - 0.5)
        return points

    def interior_point(self) -> np.ndarray:
        return np.zeros(self.ambient_dimension)

    def ray_exit(self, origin, directions) -> np.ndarray:
        o = _as_point(origin, self.ambient_dimension)
        d = _as_directions(directions, self.ambient_dimension)
        r, h = self.base_radius, self.height
        best = np.full(len(d), np.inf)
        # caps
        rows = np.flatnonzero(np.abs(d[:, -1]) > 1e-15)
        for cap_z in (0.5 * h, -0.5 * h):
            t = (cap_z - o[-1]) / d[rows, -1]
            hit = o[:-1] + t[:, None] * d[rows, :-1]
            ok = (t > 0) & (np.sqrt(np.vecdot(hit, hit)) <= r + 1e-12 * r)
            best[rows[ok]] = np.minimum(best[rows[ok]], t[ok])
        # lateral piece
        op, dp = o[:-1], d[:, :-1]
        aa = np.vecdot(dp, dp)
        bb = np.vecdot(dp, op)
        cc = float(op @ op) - r * r
        disc = bb * bb - aa * cc
        rows = np.flatnonzero((aa > 1e-30) & (disc >= 0.0))
        t = (-bb[rows] + np.sqrt(disc[rows])) / aa[rows]
        ok = (t > 0) & (np.abs(o[-1] + t * d[rows, -1]) <= 0.5 * h + 1e-12 * h)
        best[rows[ok]] = np.minimum(best[rows[ok]], t[ok])
        return _exit_points(o, d, best, "cylinder")


# ---------------------------------------------------------------------------
# convex polygon boundary (surface dimension 1)
# ---------------------------------------------------------------------------


class PolygonBoundary(ConvexBody):
    """Closed convex polygon in the plane, traversed counterclockwise."""

    def __init__(self, vertices, body_id: str | None = None):
        v = np.asarray(vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ConfigurationError("need at least three planar vertices")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("vertices must be finite")
        scale = float(np.max(np.abs(v))) or 1.0
        edges = np.roll(v, -1, axis=0) - v
        e2 = np.roll(v, -2, axis=0) - v
        crosses = edges[:, 0] * e2[:, 1] - edges[:, 1] * e2[:, 0]
        if np.any(crosses <= 1e-12 * scale**2):
            raise ConfigurationError(
                "vertices must be in strictly convex counterclockwise position"
            )
        self.vertices = v
        self.ambient_dimension = 2
        self._edges = edges
        self._edge_lengths = np.linalg.norm(self._edges, axis=1)
        self._normals = (  # outward unit normal of the edge from each vertex
            np.column_stack([self._edges[:, 1], -self._edges[:, 0]])
            / self._edge_lengths[:, None]
        )
        self._cum = np.concatenate([[0.0], np.cumsum(self._edge_lengths)])
        self.perimeter = float(self._cum[-1])
        self.body_id = body_id or f"polygon-{len(v)}gon"

    def support_batch(self, directions: np.ndarray) -> np.ndarray:
        d = _as_rows(directions, 2)
        return np.max(_row_dots(d, self.vertices), axis=1)

    def boundary_area(self) -> float:
        return self.perimeter

    def enclosed_volume(self) -> float:
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def point_at(self, s: float | np.ndarray) -> np.ndarray:
        """Boundary point at arc length s from the first vertex."""
        s = np.asarray(s, dtype=np.float64) % self.perimeter
        idx = np.minimum(
            np.searchsorted(self._cum, s, side="right") - 1, len(self.vertices) - 1
        )
        t = (s - self._cum[idx]) / self._edge_lengths[idx]
        return self.vertices[idx] + t[..., None] * self._edges[idx]

    def arclengths_of(self, points: np.ndarray) -> np.ndarray:
        """Arc-length parameters of on-boundary points: each point's foot on
        its nearest edge, computed on ``(points, edges)`` coordinate
        columns."""
        p = _as_rows(points, 2)
        px, py = p[:, :1], p[:, 1:]
        (vx, vy), (ex, ey) = self.vertices.T, self._edges.T
        t = ((px - vx) * ex + (py - vy) * ey) / self._edge_lengths**2
        np.clip(t, 0.0, 1.0, out=t)
        dx, dy = px - (vx + t * ex), py - (vy + t * ey)
        dist = np.sqrt(dx * dx + dy * dy)
        best = np.argmin(dist, axis=1)
        rows = np.arange(len(p))
        tol = 1e-9 * max(self.perimeter, 1.0)
        if np.any(dist[rows, best] > tol):
            bad = p[dist[rows, best] > tol][0]
            raise DomainError(f"point is not on the polygon boundary: {bad!r}")
        return self._cum[best] + t[rows, best] * self._edge_lengths[best]

    def intrinsic_distances_batch(self, xs, ys, xs_arclengths=None) -> tuple[np.ndarray, str]:
        """The shorter of the two arcs between the points; exact.  The arc
        lengths of ``xs``, if a caller already has them, may be passed in:
        one finite value per point."""
        p, q = _as_pairs(xs, ys, 2)
        s = (self.arclengths_of(p) if xs_arclengths is None
             else _as_arclengths(xs_arclengths, len(p)))
        gaps = np.abs(s - self.arclengths_of(q))
        return np.minimum(gaps, self.perimeter - gaps), EXACT

    def sample_boundary(self, seed: int, count: int) -> np.ndarray:
        rng = substream(seed, "sample-boundary", self.body_id)
        return self.point_at(rng.random(count) * self.perimeter)

    def interior_point(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def ray_exit(self, origin, directions) -> np.ndarray:
        o = _as_point(origin, 2)
        d = _as_directions(directions, 2)
        best = _nearest_exit(np.vecdot(self._normals, self.vertices - o), self._normals, d)
        return _exit_points(o, d, best, "polygon")


def equilateral_triangle(side: float = 1.0, body_id: str | None = None) -> PolygonBoundary:
    """Equilateral triangle with one side on the x-axis from the origin."""
    if not (math.isfinite(side) and side > 0.0):
        raise ConfigurationError(f"side must be positive, got {side!r}")
    v = np.array([[0.0, 0.0], [side, 0.0], [0.5 * side, 0.5 * math.sqrt(3.0) * side]])
    return PolygonBoundary(v, body_id=body_id or f"triangle-L{side:g}")


def regular_polygon(sides: int, circumradius: float = 1.0,
                    body_id: str | None = None) -> PolygonBoundary:
    """Regular convex polygon centered at the origin."""
    if sides < 3:
        raise ConfigurationError(f"need at least 3 sides, got {sides}")
    angles = 2.0 * np.pi * np.arange(sides) / sides
    v = circumradius * np.column_stack([np.cos(angles), np.sin(angles)])
    return PolygonBoundary(v, body_id=body_id or f"regular-{sides}gon-R{circumradius:g}")


# ---------------------------------------------------------------------------
# convex polytopes in R^3
# ---------------------------------------------------------------------------


# the six products of a cross product: a1 b2, a2 b0, a0 b1, a2 b1, a0 b2, a1 b0
_CROSS_A, _CROSS_B = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of 3-vectors along the last axis, bit for bit (the same
    products, subtracted in the same order) without its per-call set-up.
    The result is C-ordered as ``np.cross``'s is: a stacked ``matmul``
    sums in another order on another layout."""
    products = a[..., _CROSS_A] * b[..., _CROSS_B]
    return np.subtract(products[..., :3], products[..., 3:], order="C")


class FaceTables(NamedTuple):
    """A polytope's faces as read-only arrays, row f for face f."""

    ids: np.ndarray  # (F, W) vertex ids in angle order, padded with V
    after: np.ndarray  # (F, W) the next vertex id round the face, padded with V
    sizes: np.ndarray  # (F,) vertex count
    normals: np.ndarray  # (F, 3) outward unit normals
    offsets: np.ndarray  # (F,) plane offsets: <normal, x> = offset
    areas: np.ndarray  # (F,)
    centroids: np.ndarray  # (F, 3) vertex means
    fan_areas: np.ndarray  # (F, W - 2) triangles (0, i, i+1), padded with 0


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


# ---------------------------------------------------------------------------
# the hull of a vertex cloud, by gift wrapping
# ---------------------------------------------------------------------------


# Points within HULL_TOLERANCE times the cloud's largest coordinate of a
# face's plane lie in the face, and a polygon corner that turns by less than
# HULL_TOLERANCE radians is no corner: a point inside a face or on an edge
# is not a vertex.  Faces that are not coplanar within it stay apart in the
# hull's face list, which goes to ``_polytope_faces`` as it is, and merge
# there if their planes agree to 7 digits.
HULL_TOLERANCE = 1e-12

# The wrap starts from the supporting plane normal to each direction of
# {-1, 0, 1}^3 \ {0} of the cloud scaled to a unit box, turned about a line
# in it: seeded all round, 25 sphere points take 3 frontier levels where one
# seed takes 8, and a cigar 3 to 4 where unscaled seeds take 5.
_GRID = np.array([(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)
                  if (x, y, z) != (0, 0, 0)], dtype=np.float64)
_GRID_LINES = _cross(_GRID, np.where(_GRID[:, :1] == 0, [[1.0, 0, 0]], [[0, 1.0, 0]]))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt(np.vecdot(v, v))[:, None]


def _pivot(p: np.ndarray, tol: float, u: np.ndarray, inward: np.ndarray,
           normals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One gift-wrapping step per row, in one array pass: turn the supporting
    plane with outward unit normal ``normals[i]`` about its line through
    ``p[u[i]]`` normal to the unit ``inward[i]`` (which lies in the plane)
    until it meets the cloud.

    Across the line a point sits at ``x = w . inward`` and depth
    ``y = |w . normal|`` (w = point - p[u]); the new plane is the ray at the
    largest angle atan2(y, x).  Returns the point that fixes it (the
    farthest from the line of those on the ray), its outward unit normals
    and the ``(n, k)`` mask of the points within ``tol`` of it.  Rows run
    in chunks of about ``BATCH_CELLS`` cells.
    """
    step = max(1, BATCH_CELLS // len(p))
    if len(u) > step:
        parts = [_pivot(p, tol, u[s:s + step], inward[s:s + step], normals[s:s + step])
                 for s in range(0, len(u), step)]
        q, turned, coplanar = zip(*parts)
        return np.concatenate(q), np.concatenate(turned), np.hstack(coplanar)
    k = len(u)
    xy = p @ np.concatenate([inward, normals]).T
    xy -= xy[np.concatenate([u, u]), np.arange(2 * k)]
    x, y = xy[:, :k], np.abs(xy[:, k:])
    r = np.sqrt(x * x + y * y)
    below = np.arctan2(y, x)
    below[r <= tol] = -1.0  # on the line
    below -= below.max(axis=0)
    np.negative(below, out=below)  # angle below the new plane, in [0, pi]
    q = np.argmax(np.where(below * r <= tol, r, 0.0), axis=0)
    # distance r sin(angle): a plane turned by pi holds the old plane's points
    coplanar = np.sin(below, out=below) * r <= tol
    cols = np.arange(k)
    xq, yq, rq = x[q, cols], y[q, cols], r[q, cols]
    if not (rq > tol).all():
        raise ConfigurationError("degenerate vertex cloud: the points are collinear")
    return q, (inward * yq[:, None] + normals * xq[:, None]) / -rq[:, None], coplanar


def _face_polygons(p: np.ndarray, coplanar: np.ndarray, normals: np.ndarray,
                   e: np.ndarray, u: np.ndarray, fill: int) -> tuple[np.ndarray, np.ndarray]:
    """The extreme points of each column's set of coplanar points, in
    counterclockwise order about the plane's normal, padded with ``fill``,
    and their counts.  A point is extreme when the directions from it to
    the others leave an angular gap wider than pi; the pairs run in chunks
    of about ``BATCH_CELLS`` cells."""
    g = coplanar.shape[1]
    xy = p @ np.concatenate([e, _cross(normals, e)]).T
    xy -= xy[np.concatenate([u, u]), np.arange(2 * g)]
    k = np.count_nonzero(coplanar, axis=0)
    width = int(k.max())
    pos = np.argsort(~coplanar, axis=0, kind="stable")[:width]  # each set first
    cols = np.arange(g)
    x, y = xy[pos, cols], xy[pos, cols + g]
    valid = np.arange(width)[:, None] < k
    gap = np.empty((width, g))
    step = max(1, BATCH_CELLS // (width * g))
    for s in range(0, width, step):
        rows = np.arange(s, min(s + step, width))
        angle = np.arctan2(y - y[rows, None], x - x[rows, None])
        pair = valid & (np.arange(width)[:, None] != rows[:, None, None])
        # a row's missing pairs repeat one of its angles, which opens no gap
        angle = np.where(pair, angle, np.where(pair, angle, -4.0).max(axis=1, keepdims=True))
        angle.sort(axis=1)
        gap[rows] = np.maximum(np.diff(angle, axis=1).max(axis=1),
                               angle[:, 0] + 2.0 * np.pi - angle[:, -1])
    extreme = valid & (gap > np.pi + HULL_TOLERANCE)
    cx = np.where(valid, x, 0.0).sum(axis=0) / k
    cy = np.where(valid, y, 0.0).sum(axis=0) / k
    order = np.argsort(np.where(extreme, np.arctan2(y - cy, x - cx), np.inf), axis=0)
    sizes = np.count_nonzero(extreme, axis=0)
    ids = pos[order, cols].T[:, :int(sizes.max())]
    return np.where(np.arange(ids.shape[1]) < sizes[:, None], ids, fill), sizes


def _pad(ids: np.ndarray, width: int, fill: int) -> np.ndarray:
    if ids.shape[1] == width:
        return ids
    out = np.full((len(ids), width), fill)
    out[:, :ids.shape[1]] = ids
    return out


def _convex_hull(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The convex hull of a finite ``(n, 3)`` float cloud by gift wrapping
    (Chand-Kapur 1970; Preparata-Shamos 1985), face by face.

    Exact duplicates keep their first point.  Each frontier level pivots
    every open edge at once (``_pivot``), so the Python loop runs once per
    level of the face graph, not once per face.  A face across an open edge
    u -> v holds v -> u; a face of three points is (v, u, q), a larger one
    is ordered by ``_face_polygons``.  Two rows of a level find the same
    face when it holds u, v and q of both.  Fewer than four distinct
    points, or collinear or coplanar ones, raise ``ConfigurationError``.
    """
    order = np.lexsort(points.T[::-1])
    ranked = points[order]
    first = np.ones(len(points), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    keep = np.sort(np.minimum.reduceat(order, np.flatnonzero(first)))
    if len(keep) < 4:
        raise ConfigurationError(f"degenerate vertex cloud: {len(keep)} distinct points")
    p = points[keep]
    n = len(p)
    tol = HULL_TOLERANCE * (float(np.abs(p).max()) or 1.0)
    extent = np.maximum(p.max(axis=0) - p.min(axis=0), tol)
    normals = _unit(_GRID / extent)
    u = np.argmax(p @ normals.T, axis=0)
    v, normals, _ = _pivot(p, tol, u, _cross(normals, _unit(_GRID_LINES * extent)), normals)
    last = np.zeros((n, 0), dtype=bool)  # the last level's faces; seed lines are no edges
    faces = []
    count = 0
    while len(u):
        e = _unit(p[v] - p[u])
        q, normals, coplanar = _pivot(p, tol, u, _cross(normals, e), normals)
        new = np.flatnonzero(np.argmax(coplanar[u] & coplanar[v] & coplanar[q], axis=1)
                             == np.arange(len(u)))
        members = coplanar[:, new]
        if not faces and members[:, 0].all():
            raise ConfigurationError("degenerate vertex cloud: the points are coplanar")
        sizes = np.count_nonzero(members, axis=0)
        ids = np.stack([v, u, q], axis=1)[new]
        normals = normals[new]
        big = np.flatnonzero(sizes > 3)
        if len(big):
            polygons, sizes[big] = _face_polygons(
                p, members[:, big], normals[big], e[new[big]], u[new[big]], n
            )
            ids = _pad(ids, polygons.shape[1], n)
            ids[big] = polygons
        slot = np.arange(ids.shape[1])
        inside = slot < sizes[:, None]
        after = ids[np.arange(len(ids))[:, None], (slot + 1) % sizes[:, None]]
        a, b, face = ids[inside], after[inside], np.nonzero(inside)[0]
        count += len(new)
        if count > 2 * n:  # a 3-polytope has at most 2V - 4 faces
            raise ConfigurationError("degenerate vertex cloud: the hull does not close")
        faces.append((ids, normals))
        # an edge is closed when a second face of this level or of the last
        # holds both its ends: two faces that share two vertices share the
        # edge between them, and no older face can border a new one
        both = np.hstack([last, members])
        open_ = np.count_nonzero(both[a] & both[b], axis=1) == 1
        u, v, normals, last = a[open_], b[open_], normals[face[open_]], members
    width = max(ids.shape[1] for ids, _ in faces)
    ids = np.concatenate([_pad(ids, width, n) for ids, _ in faces])
    normals = np.concatenate([normals for _, normals in faces])
    offsets = np.vecdot(normals, p[ids[:, 0]])
    used = np.unique(ids[ids < n])
    renumber = np.full(n + 1, len(used))
    renumber[used] = np.arange(len(used))
    return keep[used], renumber[ids], np.column_stack([normals, -offsets])


# ---------------------------------------------------------------------------
# face tables
# ---------------------------------------------------------------------------


def _polytope_faces(vertices: np.ndarray, faces: np.ndarray,
                    planes: np.ndarray) -> FaceTables:
    """Merge the hull's coplanar faces, one array pass per face size.

    ``faces`` and ``planes`` are ``_convex_hull``'s.  Faces whose planes
    agree to 7 digits form one face; its vertices are ordered by angle about
    their mean in the first such plane, and the plane is refit from the fan
    of the ordered vertices.  Faces are sorted by (normal, offset) rounded
    to 9 digits, so face indices are stable and documented.  Each step
    repeats the reduction of a per-face loop bit for bit: ``(k, 3) @ (3,)``
    products as stacked ``matmul``, 1-D norms as ``sqrt(vecdot)``.
    """
    nv = len(vertices)
    rounded = np.round(planes, 7)
    # group equal rounded planes (signed zeros are equal) by a stable sort,
    # so each group's first member is its first face
    ranked = np.lexsort(rounded.T[::-1])
    head = np.ones(len(ranked), dtype=bool)
    head[1:] = (rounded[ranked[1:]] != rounded[ranked[:-1]]).any(axis=1)
    group = np.empty(len(ranked), dtype=np.intp)
    group[ranked] = np.cumsum(head) - 1
    first = ranked[head]
    # label the groups in the order their first face appears, whose rounded
    # plane orients the merged face, as a dict keeps its first key; the
    # labels break ties of the final sort
    seen = np.argsort(first)
    label = np.empty(len(seen), dtype=np.intp)
    label[seen] = np.arange(len(seen))
    oriented = rounded[first[seen], :3]
    # each group's distinct vertex ids, ascending, in contiguous runs
    runs = np.unique((label[group, None] * nv + faces)[faces < nv])
    owner, vid = np.divmod(runs, nv)
    sizes = np.bincount(owner, minlength=len(seen))
    starts = np.cumsum(sizes) - sizes

    count, width = len(seen), int(sizes.max())
    ids = np.full((count, width), nv)
    normals, centroids = np.empty((count, 3)), np.empty((count, 3))
    offsets, areas = np.empty(count), np.empty(count)
    fan_areas = np.zeros((count, width - 2))  # padded with zeros
    for k in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == k)
        unique = vid[starts[rows, None] + np.arange(k)]
        coords = vertices[unique]
        centre = coords.mean(axis=1)
        plane = oriented[rows] / np.sqrt(np.vecdot(oriented[rows], oriented[rows]))[:, None]
        basis_u = coords[:, 0] - centre
        basis_u = basis_u / np.sqrt(np.vecdot(basis_u, basis_u))[:, None]
        basis_v = _cross(plane, basis_u)
        rel = coords - centre[:, None]
        angle = np.arctan2(np.matmul(rel, basis_v[:, :, None])[..., 0],
                           np.matmul(rel, basis_u[:, :, None])[..., 0])
        ordered = unique[np.arange(len(rows))[:, None], np.argsort(angle, axis=1)]
        pts = vertices[ordered]
        fans = _cross(pts[:, 1:-1] - pts[:, :1], pts[:, 2:] - pts[:, :1])
        refit = fans.sum(axis=1)
        refit_norm = np.sqrt(np.vecdot(refit, refit))
        if np.any((refit_norm <= 0.0) | (np.vecdot(refit, plane) <= 0.0)):
            raise ConfigurationError("degenerate (zero-area) face in hull")
        normal = refit / refit_norm[:, None]
        ids[rows, :k] = ordered
        normals[rows] = normal
        areas[rows] = 0.5 * np.matmul(fans, normal[:, :, None])[..., 0].sum(axis=1)
        offsets[rows] = np.matmul(pts, normal[:, :, None])[..., 0].mean(axis=1)
        centroids[rows] = pts.mean(axis=1)
        fan_areas[rows, :k - 2] = 0.5 * np.linalg.norm(fans, axis=2)

    # a stable sort of the first-seen order, as a sort of the face list was
    order = np.lexsort((
        np.array([round(o, 9) for o in offsets.tolist()]),
        *np.round(normals, 9).T[::-1],
    ))
    sizes, ids, normals, offsets = sizes[order], ids[order], normals[order], offsets[order]
    areas, centroids, fan_areas = areas[order], centroids[order], fan_areas[order]
    slot = np.arange(width)
    after = np.where(slot < sizes[:, None],
                     ids[np.arange(count)[:, None], (slot + 1) % sizes[:, None]], nv)
    tables = FaceTables(ids, after, sizes, normals, offsets, areas, centroids, fan_areas)
    _read_only(*tables)
    return tables


class Polytope3(ConvexBody):
    """Convex polytope in R^3: the hull of a vertex cloud (``_convex_hull``).

    The hull keeps the cloud's extreme points only, in input order, and
    hands its faces to ``_polytope_faces``, which merges those whose planes
    agree to 7 digits and sorts them by (normal, offset) into
    ``face_tables``, so face indices are stable and documented.  ``edges``
    holds the ``(E, 2)`` edges (a, b), a < b, sorted, and ``face_edges``
    the ``(F, W)`` index of the edge from each slot of ``face_tables.ids``
    to the next, padded with E; both are read-only.
    """

    def __init__(self, vertices, body_id: str | None = None,
                 geodesic_subdivision: int = 8):
        pts = np.asarray(vertices, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 4:
            raise ConfigurationError("need at least four points in R^3")
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("vertices must be finite")
        self.geodesic_subdivision = _check_subdivision(geodesic_subdivision)
        kept, faces, planes = _convex_hull(pts)
        self.vertices = pts[kept]
        self.ambient_dimension = 3
        self.body_id = body_id or f"polytope-{len(self.vertices)}v"
        self._scale = float(np.max(np.linalg.norm(self.vertices, axis=1))) or 1.0
        self.face_tables = _polytope_faces(self.vertices, faces, planes)
        self.edges, self.face_edges = self._edge_tables()
        self._graphs: dict[int, object] = {}

    # -- construction ------------------------------------------------------

    def _edge_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``edges`` and ``face_edges`` from one ``np.unique`` of the keys
        a V + b of the face sides; every edge must border exactly two faces
        and the hull must satisfy V - E + F = 2."""
        t = self.face_tables
        v = len(self.vertices)
        real = t.ids < v
        a, b = t.ids[real], t.after[real]
        keys, side, counts = np.unique(np.minimum(a, b) * v + np.maximum(a, b),
                                       return_inverse=True, return_counts=True)
        if np.any(counts != 2):
            bad = [divmod(k, v) for k in keys[counts != 2].tolist()]
            raise ConfigurationError(f"hull edges {bad} do not border exactly two faces")
        e, f = len(keys), len(t.sizes)
        if v - e + f != 2:
            raise ConfigurationError(
                f"hull fails the Euler relation: V={v}, E={e}, F={f}"
            )
        edges = np.column_stack(np.divmod(keys, v))
        face_edges = np.full(t.ids.shape, e)
        face_edges[real] = side
        _read_only(edges, face_edges)
        return edges, face_edges

    # -- measurements -------------------------------------------------------

    # Sums over faces and fan triangles run in face order as ``cumsum``, the
    # sequential sum a Python loop makes (``np.sum`` would sum pairwise).

    def boundary_area(self) -> float:
        return float(np.cumsum(self.face_tables.areas)[-1])

    def enclosed_volume(self) -> float:
        t = self.face_tables
        g = self.vertices.mean(axis=0)
        # stack of cones over the faces from an interior apex
        cones = t.areas * (t.offsets - np.vecdot(t.normals, g))
        return float(np.cumsum(cones)[-1] / 3.0)

    def solid_centroid(self) -> np.ndarray:
        """Centroid of the solid: tetrahedra from the vertex mean over the
        fan triangles (0, i, i+1) of every face, face by face."""
        t = self.face_tables
        g = self.vertices.mean(axis=0)
        face, i = np.nonzero(np.arange(t.fan_areas.shape[1]) < (t.sizes - 2)[:, None])
        a = self.vertices[t.ids[face, 0]]
        b = self.vertices[t.ids[face, i + 1]]
        c = self.vertices[t.ids[face, i + 2]]
        # (k, 1, 3) @ (k, 3, 1) takes each dot product as a 1-D ``np.dot``
        cross = _cross(b - g, c - g)
        vol = np.matmul(cross[:, None, :], (a - g)[:, :, None])[:, 0, 0] / 6.0
        moments = vol[:, None] * (g + ((a + b) + c)) / 4.0
        acc = np.cumsum(np.concatenate([np.zeros((1, 3)), moments]), axis=0)[-1]
        return acc / np.cumsum(np.concatenate([[0.0], vol]))[-1]

    def support_batch(self, directions: np.ndarray) -> np.ndarray:
        d = _as_rows(directions, 3)
        return np.max(_row_dots(d, self.vertices), axis=1)

    def projected_areas(self, directions) -> np.ndarray:
        """Area of the orthogonal projection along each unit row of a
        ``(k, 3)`` array, by Cauchy's projection formula
        1/2 sum_f area_f |<normal_f, u>|: each point of the shadow is covered
        once by the faces that look towards u and once by those that look
        away."""
        d = _as_rows(directions, 3)
        t = self.face_tables
        cosines = np.abs(np.vecdot(d[:, None, :], t.normals))
        return 0.5 * np.cumsum(t.areas * cosines, axis=1)[:, -1]

    # -- boundary geometry ---------------------------------------------------

    def faces_containing(self, points: np.ndarray) -> np.ndarray:
        """The ``(m, F)`` boolean matrix whose row i marks the faces whose
        closed polygon contains point i of an ``(m, 3)`` array."""
        p = _as_rows(points, 3)
        return face_membership(p, self.face_tables, self.vertices, self._scale)

    def intrinsic_distances_batch(self, xs, ys, subdivision: int | None = None):
        """Steiner-graph distances (upper bounds) on the graph of the given
        subdivision, by default the polytope's own ``geodesic_subdivision``.

        A single pair at a subdivision with no cached graph is answered on
        the pruned graph of ``_fresh_pair_distance``, which is not cached;
        an empty batch builds no graph."""
        m = self.geodesic_subdivision if subdivision is None else _check_subdivision(subdivision)
        xs, ys = _as_pairs(xs, ys, 3)
        if not len(xs):
            return np.empty(0), UPPER_BOUND
        if m in self._graphs or len(xs) != 1:
            return self._graph(m).pairwise_distances(xs, ys), UPPER_BOUND
        return self._fresh_pair_distance(xs, ys, m), UPPER_BOUND

    def _graph(self, m: int):
        """The cached full graph at subdivision m, built on first use."""
        from .geodesic import GeodesicGraph  # local import to avoid a cycle

        if m not in self._graphs:
            self._graphs[m] = GeodesicGraph(self, m)
        return self._graphs[m]

    def _fresh_pair_distance(self, xs, ys, m: int) -> np.ndarray:
        """The one-source answer of the full subdivision-m graph for one
        pair, bit for bit: the cached vertex graph answers at m = 0;
        otherwise the answer at the next coarser nested subdivision bounds
        the path, and the graph at m keeps only the nodes within that bound
        (see ``geodesic``)."""
        from .geodesic import GeodesicGraph, coarser_subdivision

        if m == 0:
            graph = self._graph(0)
        else:
            bound = self._fresh_pair_distance(xs, ys, coarser_subdivision(m))[0]
            graph = GeodesicGraph(self, m, within=(xs[0], ys[0], bound))
        return graph._one_source_route(graph._query_edges(xs, ys))

    def sample_boundary(self, seed: int, count: int) -> np.ndarray:
        """A face by area, then a fan triangle of it by area, then a uniform
        point of the triangle.

        The draws are those of one ``rng.choice`` per picked face, in face
        order, each followed by that face's ``u`` and ``v`` draws: a choice
        with ``p`` consumes exactly ``random(k)``, so one ``random(3 count)``
        holds them all as contiguous slices.  The triangle is the choice's
        ``searchsorted``, counted as the CDF entries at or below the draw.
        """
        rng = substream(seed, "sample-boundary", self.body_id)
        t = self.face_tables
        face_pick = rng.choice(len(t.areas), size=count, p=t.areas / t.areas.sum())
        draws = rng.random(3 * count)
        counts = np.bincount(face_pick, minlength=len(t.areas))
        order = np.argsort(face_pick, kind="stable")
        face = face_pick[order]
        k = counts[face]
        # sample j of a face whose first sample is number s draws at 3s + j
        slot = 2 * (np.cumsum(counts) - counts)[face] + np.arange(count)
        tri_draw, u, v = draws[slot], np.sqrt(draws[slot + k]), draws[slot + 2 * k]
        # each face's fan CDF as ``choice`` builds it, padded with +inf; the
        # rows of one fan count are summed as 1-D arrays of that length would be
        cdf = np.full(t.fan_areas.shape, np.inf)
        for fans in np.unique(t.sizes - 2).tolist():
            rows = np.flatnonzero(t.sizes - 2 == fans)
            p = t.fan_areas[rows, :fans]
            p = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)
            cdf[rows, :fans] = p / p[:, -1:]
        tri = np.count_nonzero(cdf[face] <= tri_draw[:, None], axis=1)
        a = self.vertices[t.ids[face, 0]]
        b = self.vertices[t.ids[face, tri + 1]]
        c = self.vertices[t.ids[face, tri + 2]]
        out = np.empty((count, 3))
        out[order] = (1 - u)[:, None] * a + (u * (1 - v))[:, None] * b + (
            u * v
        )[:, None] * c
        return out

    def interior_point(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def ray_exit(self, origin, directions) -> np.ndarray:
        o = _as_point(origin, 3)
        d = _as_directions(directions, 3)
        t = self.face_tables
        best = _nearest_exit(t.offsets - np.vecdot(t.normals, o), t.normals, d)
        return _exit_points(o, d, best, "polytope")


def cube(edge: float = 1.0, body_id: str | None = None,
         geodesic_subdivision: int = 8) -> Polytope3:
    """Axis-aligned cube centered at the origin."""
    if not (math.isfinite(edge) and edge > 0.0):
        raise ConfigurationError(f"edge must be positive, got {edge!r}")
    half = 0.5 * edge
    corners = np.array(
        [[sx, sy, sz] for sx in (-half, half) for sy in (-half, half)
         for sz in (-half, half)]
    )
    return Polytope3(corners, body_id=body_id or f"cube-a{edge:g}",
                     geodesic_subdivision=geodesic_subdivision)


def random_polytope(seed: int, vertex_count: int,
                    geodesic_subdivision: int = 8) -> Polytope3:
    """Hull of jittered sphere points; retries the next substream if degenerate."""
    if vertex_count < 4:
        raise ConfigurationError(f"need at least 4 vertices, got {vertex_count}")
    for attempt in range(16):
        rng = substream(seed, "random-polytope", str(attempt))
        dirs = unit_directions(rng, vertex_count, 3)
        radii = 1.0 + 0.35 * (rng.random(vertex_count) - 0.5)
        try:
            return Polytope3(
                dirs * radii[:, None],
                body_id=f"polytope-s{seed}-v{vertex_count}",
                geodesic_subdivision=geodesic_subdivision,
            )
        except ConfigurationError:
            continue
    raise ConfigurationError(
        f"could not build a nondegenerate polytope from seed {seed}"
    )
