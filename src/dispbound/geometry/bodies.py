"""Concrete convex bodies: spheres, cylinders, convex polygons, 3-polytopes.

Every body exposes a positively homogeneous support function, exact
boundary area and enclosed volume, intrinsic boundary distances (exact
where the geometry allows, otherwise explicit upper bounds), and
seeded boundary sampling.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from ..errors import ConfigurationError, DomainError
from ..numerics import log_unit_ball_volume, log_unit_sphere_area
from .sampling import substream, unit_directions

__all__ = [
    "ConvexBody",
    "CylinderBody",
    "Face",
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
# of a batch has the bits the same vector would have on its own (``d @ N.T``
# and ``einsum`` do not).


def _as_rows(x, dim: int) -> tuple[np.ndarray, bool]:
    """Rows of a ``(k, dim)`` array, or of one ``(dim,)`` vector, checked for
    shape and finiteness, and whether a single vector came in."""
    rows = np.asarray(x, dtype=np.float64)
    single = rows.ndim == 1
    if single:
        rows = rows[None, :]
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise DomainError(f"expected vectors of dimension {dim}, got shape {np.shape(x)}")
    if not np.all(np.isfinite(rows)):
        raise DomainError("vectors have non-finite coordinates")
    return rows, single


def _as_batch(x, dim: int) -> np.ndarray:
    """A checked ``(k, dim)`` array; a single vector is refused."""
    rows, single = _as_rows(x, dim)
    if single:
        raise DomainError(f"expected a (k, {dim}) array, got shape {np.shape(x)}")
    return rows


def _as_directions(direction, dim: int) -> tuple[np.ndarray, bool]:
    """Unit rows from one ``(dim,)`` direction or a ``(k, dim)`` array of
    them, and whether a single direction came in."""
    d, single = _as_rows(direction, dim)
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(d, d))
    if not np.all((norms > 0.0) & np.isfinite(norms)):
        raise DomainError("direction must have a nonzero finite length")
    return d / norms[:, None], single


def _as_pairs(xs, ys, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The two query arrays of a batch distance call as ``(k, dim)`` rows,
    checked for dimension, finiteness and matching shapes."""
    p, _ = _as_rows(xs, dim)
    q, _ = _as_rows(ys, dim)
    if p.shape != q.shape:
        raise DomainError(
            f"query arrays must have matching shapes, got {p.shape} and {q.shape}"
        )
    return p, q


def _nearest_exit(numerators: np.ndarray, normals: np.ndarray,
                  d: np.ndarray) -> np.ndarray:
    """Smallest positive ``numerator / (normal . d)`` per row of ``d`` over
    the planes whose normal faces along ``d``; inf where there is none."""
    denom = np.vecdot(d[:, None, :], normals)
    t = np.full(denom.shape, np.inf)
    np.divide(numerators, denom, out=t, where=denom > 1e-15)
    t[t <= 0.0] = np.inf
    return t.min(axis=1)


def _exit_points(o: np.ndarray, d: np.ndarray, t: np.ndarray, single: bool,
                 body: str) -> np.ndarray:
    """``o + t d`` per row, or the one point for a single direction."""
    if not np.all(np.isfinite(t)):
        raise DomainError(f"ray does not exit the {body}; origin must be interior")
    out = o + t[:, None] * d
    return out[0] if single else out


def _wrap_angle(delta: float | np.ndarray):
    """Fold an angle difference into [0, pi]."""
    return np.abs((np.asarray(delta) + np.pi) % (2.0 * np.pi) - np.pi)


# float64 cells per temporary array of a chunked batch (1 MiB)
BATCH_CELLS = 1 << 17


def face_membership(p: np.ndarray, faces, vertices: np.ndarray, scale: float) -> np.ndarray:
    """The ``(m, F)`` boolean matrix whose row i marks the faces (closed
    convex polygons with outward normals over ``vertices``) that contain
    point i of the checked ``(m, 3)`` float array ``p``."""
    tol = 1e-9 * scale
    member = np.zeros((len(p), len(faces)), dtype=bool)
    for fi, face in enumerate(faces):
        near = np.flatnonzero(np.abs(np.vecdot(p, face.normal) - face.offset) <= tol)
        if not len(near):
            continue
        pts = vertices[list(face.indices)]
        edges = np.roll(pts, -1, axis=0) - pts
        rel = p[near, None, :] - pts
        member[near, fi] = np.all(
            np.cross(edges, rel) @ face.normal >= -tol * scale, axis=1
        )
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
    def ray_exit(self, origin: np.ndarray, direction: np.ndarray) -> np.ndarray:
        """Boundary point where the ray from an interior origin leaves the body.

        ``direction`` is one ``(dim,)`` vector, giving one point, or a
        ``(k, dim)`` array, giving a ``(k, dim)`` array of exit points.
        """

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
    """Round sphere of given radius and center in any ambient dimension."""

    def __init__(self, radius: float, center=None, ambient_dimension: int = 3,
                 body_id: str | None = None):
        if not (math.isfinite(radius) and radius > 0.0):
            raise ConfigurationError(f"radius must be positive, got {radius!r}")
        if center is None:
            center = np.zeros(ambient_dimension)
        self.center = _as_point(center, len(np.atleast_1d(center)))
        self.ambient_dimension = len(self.center)
        if self.ambient_dimension < 2:
            raise ConfigurationError("ambient dimension must be at least 2")
        self.radius = float(radius)
        self.body_id = body_id or f"sphere-r{self.radius:g}-d{self.ambient_dimension}"

    def support_batch(self, directions: np.ndarray) -> np.ndarray:
        d = _as_batch(directions, self.ambient_dimension)
        return d @ self.center + self.radius * np.linalg.norm(d, axis=1)

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

    def ray_exit(self, origin, direction) -> np.ndarray:
        o = _as_point(origin, self.ambient_dimension)
        d, single = _as_directions(direction, self.ambient_dimension)
        w = o - self.center
        gamma = self.radius**2 - float(w @ w)
        if gamma <= 0.0:
            raise DomainError("ray origin must be strictly inside the sphere")
        beta = np.vecdot(d, w)
        return _exit_points(o, d, -beta + np.sqrt(beta * beta + gamma), single, "sphere")


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
        d = _as_batch(directions, self.ambient_dimension)
        return self.base_radius * np.linalg.norm(d[:, :-1], axis=1) + (
            0.5 * self.height
        ) * np.abs(d[:, -1])

    def boundary_area(self) -> float:
        n, r, h = self.n, self.base_radius, self.height
        omega_n = math.exp(log_unit_ball_volume(n))
        return 2.0 * omega_n * r**n + n * omega_n * r ** (n - 1) * h

    def enclosed_volume(self) -> float:
        n, r, h = self.n, self.base_radius, self.height
        return math.exp(log_unit_ball_volume(n)) * r**n * h

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
        omega_n = math.exp(log_unit_ball_volume(n))
        cap_area = omega_n * r**n
        lateral_area = n * omega_n * r ** (n - 1) * h
        total = 2.0 * cap_area + lateral_area
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

    def ray_exit(self, origin, direction) -> np.ndarray:
        o = _as_point(origin, self.ambient_dimension)
        d, single = _as_directions(direction, self.ambient_dimension)
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
        return _exit_points(o, d, best, single, "cylinder")


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
        e1 = np.roll(v, -1, axis=0) - v
        e2 = np.roll(v, -2, axis=0) - v
        crosses = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(crosses <= 1e-12 * scale**2):
            raise ConfigurationError(
                "vertices must be in strictly convex counterclockwise position"
            )
        self.vertices = v
        self.ambient_dimension = 2
        self._edges = np.roll(v, -1, axis=0) - v
        self._edge_lengths = np.linalg.norm(self._edges, axis=1)
        self._normals = (  # outward unit normal of the edge from each vertex
            np.column_stack([self._edges[:, 1], -self._edges[:, 0]])
            / self._edge_lengths[:, None]
        )
        self._cum = np.concatenate([[0.0], np.cumsum(self._edge_lengths)])
        self.perimeter = float(self._cum[-1])
        self.body_id = body_id or f"polygon-{len(v)}gon"

    def support_batch(self, directions: np.ndarray) -> np.ndarray:
        return np.max(_as_batch(directions, 2) @ self.vertices.T, axis=1)

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
        """Arc-length parameters of on-boundary points (vectorized)."""
        p = np.asarray(points, dtype=np.float64)
        rel = p[:, None, :] - self.vertices[None, :, :]
        t = np.einsum("pek,ek->pe", rel, self._edges) / self._edge_lengths**2
        t = np.clip(t, 0.0, 1.0)
        foot = self.vertices[None] + t[..., None] * self._edges[None]
        dist = np.linalg.norm(p[:, None, :] - foot, axis=2)
        best = np.argmin(dist, axis=1)
        rows = np.arange(len(p))
        tol = 1e-9 * max(self.perimeter, 1.0)
        if np.any(dist[rows, best] > tol):
            bad = p[dist[rows, best] > tol][0]
            raise DomainError(f"point is not on the polygon boundary: {bad!r}")
        return self._cum[best] + t[rows, best] * self._edge_lengths[best]

    def intrinsic_distances_batch(self, xs, ys) -> tuple[np.ndarray, str]:
        """The shorter of the two arcs between the points; exact."""
        p, q = _as_pairs(xs, ys, 2)
        gaps = np.abs(self.arclengths_of(p) - self.arclengths_of(q))
        return np.minimum(gaps, self.perimeter - gaps), EXACT

    def sample_boundary(self, seed: int, count: int) -> np.ndarray:
        rng = substream(seed, "sample-boundary", self.body_id)
        return self.point_at(rng.random(count) * self.perimeter)

    def interior_point(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def ray_exit(self, origin, direction) -> np.ndarray:
        o = _as_point(origin, 2)
        d, single = _as_directions(direction, 2)
        best = _nearest_exit(np.vecdot(self._normals, self.vertices - o), self._normals, d)
        return _exit_points(o, d, best, single, "polygon")


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


@dataclass(frozen=True)
class Face:
    """One planar facet: ordered vertex indices plus derived measurements."""

    indices: tuple[int, ...]
    normal: np.ndarray  # outward unit normal
    offset: float  # plane equation <normal, x> = offset
    area: float
    centroid: np.ndarray


class Polytope3(ConvexBody):
    """Convex polytope in R^3 built from a vertex cloud via its hull.

    Coplanar hull simplices are merged into true faces; faces are sorted
    by (normal, offset) so face indices are stable and documented.
    """

    def __init__(self, vertices, body_id: str | None = None,
                 geodesic_subdivision: int = 8):
        pts = np.asarray(vertices, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 4:
            raise ConfigurationError("need at least four points in R^3")
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("vertices must be finite")
        try:
            hull = ConvexHull(pts)
        except QhullError as exc:
            raise ConfigurationError(f"degenerate vertex cloud: {exc}") from exc
        self.vertices = pts[hull.vertices]
        remap = {old: new for new, old in enumerate(hull.vertices)}
        self.ambient_dimension = 3
        if geodesic_subdivision < 0:
            raise ConfigurationError("geodesic subdivision must be nonnegative")
        self.geodesic_subdivision = int(geodesic_subdivision)
        self.body_id = body_id or f"polytope-{len(self.vertices)}v"
        self._scale = float(np.max(np.linalg.norm(self.vertices, axis=1))) or 1.0
        self.faces = self._merge_faces(hull, remap)
        self._check_euler()
        self._graphs: dict[int, object] = {}

    # -- construction ------------------------------------------------------

    def _merge_faces(self, hull: ConvexHull, remap: dict[int, int]) -> tuple[Face, ...]:
        groups: dict[tuple, list[int]] = {}
        tol_key = 7  # round normals/offsets to group coplanar simplices
        for simplex, eq in zip(hull.simplices, hull.equations):
            key = tuple(np.round(eq, tol_key))
            groups.setdefault(key, []).extend(remap[i] for i in simplex)
        faces = []
        for eq_key, idx in groups.items():
            normal = np.array(eq_key[:3])
            normal = normal / np.linalg.norm(normal)
            unique = sorted(set(idx))
            coords = self.vertices[unique]
            centroid = coords.mean(axis=0)
            # order vertices by angle in the face plane
            basis_u = coords[0] - centroid
            basis_u = basis_u / np.linalg.norm(basis_u)
            basis_v = np.cross(normal, basis_u)
            rel = coords - centroid
            order = np.argsort(np.arctan2(rel @ basis_v, rel @ basis_u))
            ordered = tuple(unique[i] for i in order)
            pts = self.vertices[list(ordered)]
            # refit the plane from the vertices themselves: qhull's facet
            # equations are loose by ~1e-8, too coarse for our tolerances
            fans = np.cross(pts[1:-1] - pts[0], pts[2:] - pts[0])
            refit = fans.sum(axis=0)
            refit_norm = float(np.linalg.norm(refit))
            if refit_norm <= 0.0 or refit @ normal <= 0.0:
                raise ConfigurationError("degenerate (zero-area) face in hull")
            normal = refit / refit_norm
            area = 0.5 * float(np.sum(fans @ normal))
            offset = float(np.mean(pts @ normal))
            faces.append(
                Face(indices=ordered, normal=normal, offset=offset, area=area,
                     centroid=pts.mean(axis=0))
            )
        faces.sort(key=lambda f: (tuple(np.round(f.normal, 9)), round(f.offset, 9)))
        return tuple(faces)

    def _check_euler(self) -> None:
        edges = set()
        for face in self.faces:
            k = len(face.indices)
            for i in range(k):
                a, b = face.indices[i], face.indices[(i + 1) % k]
                edges.add((min(a, b), max(a, b)))
        v, e, f = len(self.vertices), len(edges), len(self.faces)
        if v - e + f != 2:
            raise ConfigurationError(
                f"hull fails the Euler relation: V={v}, E={e}, F={f}"
            )
        self.edges = tuple(sorted(edges))

    # -- measurements -------------------------------------------------------

    def boundary_area(self) -> float:
        return float(sum(f.area for f in self.faces))

    def enclosed_volume(self) -> float:
        g = self.vertices.mean(axis=0)
        # stack of cones over the faces from an interior apex
        return float(
            sum(f.area * (f.offset - f.normal @ g) for f in self.faces) / 3.0
        )

    def solid_centroid(self) -> np.ndarray:
        g = self.vertices.mean(axis=0)
        total = 0.0
        acc = np.zeros(3)
        for face in self.faces:
            pts = self.vertices[list(face.indices)]
            for i in range(1, len(pts) - 1):
                tet = np.array([pts[0], pts[i], pts[i + 1]])
                vol = float(np.dot(np.cross(tet[1] - g, tet[2] - g), tet[0] - g)) / 6.0
                acc += vol * (g + tet.sum(axis=0)) / 4.0
                total += vol
        return acc / total

    def support_batch(self, directions: np.ndarray) -> np.ndarray:
        return np.max(_as_batch(directions, 3) @ self.vertices.T, axis=1)

    # -- boundary geometry ---------------------------------------------------

    def faces_containing(self, point: np.ndarray) -> list[int] | np.ndarray:
        """Indices of faces whose closed polygon contains the point.

        For an ``(m, 3)`` array of points, the ``(m, F)`` boolean matrix
        whose row i marks the faces containing point i.
        """
        p, single = _as_rows(point, 3)
        member = face_membership(p, self.faces, self.vertices, self._scale)
        return np.flatnonzero(member[0]).tolist() if single else member

    def intrinsic_distances_batch(self, xs, ys, subdivision: int | None = None):
        """Steiner-graph distances (upper bounds) on the graph of the given
        subdivision, by default the polytope's own ``geodesic_subdivision``."""
        from .geodesic import GeodesicGraph  # local import to avoid a cycle

        m = self.geodesic_subdivision if subdivision is None else int(subdivision)
        if m not in self._graphs:
            self._graphs[m] = GeodesicGraph(self, m)
        graph: GeodesicGraph = self._graphs[m]  # type: ignore[assignment]
        return graph.pairwise_distances(xs, ys), UPPER_BOUND

    def sample_boundary(self, seed: int, count: int) -> np.ndarray:
        rng = substream(seed, "sample-boundary", self.body_id)
        areas = np.array([f.area for f in self.faces])
        face_pick = rng.choice(len(self.faces), size=count, p=areas / areas.sum())
        out = np.empty((count, 3))
        for fi in np.unique(face_pick):
            face = self.faces[fi]
            mask = face_pick == fi
            k = int(mask.sum())
            pts = self.vertices[list(face.indices)]
            tri_areas = 0.5 * np.linalg.norm(
                np.cross(pts[1:-1] - pts[0], pts[2:] - pts[0]), axis=1
            )
            tri_pick = rng.choice(len(tri_areas), size=k, p=tri_areas / tri_areas.sum())
            u = np.sqrt(rng.random(k))
            v = rng.random(k)
            a = pts[0]
            b = pts[tri_pick + 1]
            c = pts[tri_pick + 2]
            out[mask] = (1 - u)[:, None] * a + (u * (1 - v))[:, None] * b + (
                u * v
            )[:, None] * c
        return out

    def interior_point(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def ray_exit(self, origin, direction) -> np.ndarray:
        o = _as_point(origin, 3)
        d, single = _as_directions(direction, 3)
        normals = np.array([f.normal for f in self.faces])
        offsets = np.array([f.offset for f in self.faces])
        best = _nearest_exit(offsets - np.vecdot(normals, o), normals, d)
        return _exit_points(o, d, best, single, "polytope")


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
