"""Minimum width and mean width of convex bodies: one exact route per body
type, with the body as the only argument.

Polygons use rotating calipers and (1/pi) times the support function
integrated between consecutive outward edge normals; spheres and cylinders
use closed forms; 3-polytopes use the face normals and edge-pair cross
products (Houle and Toussaint, IEEE TPAMI 10, 1988: the minimum width is
attained by a face-vertex or an edge-edge antipodal pair) and the edge
formula (1/(4 pi)) * sum of edge length times exterior dihedral angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from .bodies import (
    BATCH_CELLS,
    ConvexBody,
    CylinderBody,
    PolygonBoundary,
    Polytope3,
    SphereBody,
    _cross,
)

__all__ = [
    "MeanWidthResult",
    "WidthResult",
    "mean_width",
    "min_width",
]


@dataclass(frozen=True)
class WidthResult:
    value: float
    direction: tuple[float, ...]


@dataclass(frozen=True)
class MeanWidthResult:
    value: float
    method: str


def _narrowest(body: ConvexBody, dirs: np.ndarray) -> WidthResult:
    """Smallest width h(u) + h(-u) over the unit rows of ``dirs``."""
    widths = body.support_batch(dirs) + body.support_batch(-dirs)
    i = int(np.argmin(widths))
    return WidthResult(float(widths[i]), tuple(dirs[i].tolist()))


def min_width(body: ConvexBody) -> WidthResult:
    """Smallest width over all directions, with a direction attaining it."""
    if isinstance(body, PolygonBoundary):  # calipers: edge against far vertex
        return _narrowest(body, body._normals)
    if isinstance(body, SphereBody):
        axis = (1.0,) + (0.0,) * (body.ambient_dimension - 1)
        return WidthResult(2.0 * body.radius, axis)
    if isinstance(body, CylinderBody):
        across = 2.0 * body.base_radius
        along = (0.0,) * body.n + (1.0,)
        if body.height <= across:
            return WidthResult(body.height, along)
        return WidthResult(across, along[::-1])
    if not isinstance(body, Polytope3):
        raise DomainError(f"no exact minimum width for {type(body).__name__}")
    best = _narrowest(body, body.face_tables.normals)
    a, b = body.edges.T
    edges = body.vertices[b] - body.vertices[a]
    # blocks of edges crossed with every edge, each block's directions times
    # the vertices within BATCH_CELLS; every block meets a non-parallel edge
    block = max(1, BATCH_CELLS // (len(edges) * len(body.vertices)))
    for start in range(0, len(edges), block):
        normals = _cross(edges[start : start + block, None], edges).reshape(-1, 3)
        norms = np.sqrt(np.vecdot(normals, normals))
        keep = norms > 0.0  # parallel edges span no direction
        found = _narrowest(body, normals[keep] / norms[keep, None])
        best = min(best, found, key=lambda w: w.value)
    return best


def _polygon_support_integral(body: PolygonBoundary) -> float:
    """Integral of h over the circle: on the normal cone of vertex (x, y),
    between the outward normal angles a0 < a1 of its edges, h integrates to
    x (sin a1 - sin a0) - y (cos a1 - cos a0).  Vertices are taken about
    their mean, which keeps the sum from cancelling far from the origin."""
    v = body.vertices - body.vertices.mean(axis=0)
    angle = np.arctan2(body._normals[:, 1], body._normals[:, 0])  # edge from v_i
    cos, sin = np.cos(angle), np.sin(angle)
    d_sin, d_cos = sin - np.roll(sin, 1), cos - np.roll(cos, 1)
    return float(np.sum(v[:, 0] * d_sin - v[:, 1] * d_cos))


def _polytope_edge_sum(body: Polytope3) -> float:
    """Sum over edges of length times the angle between the face normals.

    Half-edges are taken face by face, round each face; an edge's second
    half-edge closes it, and the terms are summed one after another in
    closing order, as a loop over a dict of open edges sums them."""
    t = body.face_tables
    real = t.ids < len(body.vertices)
    face = np.nonzero(real)[0]
    a, b = t.ids[real], t.after[real]
    # every edge borders two faces (``Polytope3`` checks it): its first
    # half-edge opens it and its second closes it
    opener, closer = np.argsort(body.face_edges[real], kind="stable").reshape(-1, 2).T
    by_close = np.argsort(closer)
    opener, closer = opener[by_close], closer[by_close]
    other, normal = t.normals[face[opener]], t.normals[face[closer]]
    across = _cross(other, normal)
    angle = list(map(math.atan2, np.sqrt(np.vecdot(across, across)).tolist(),
                     np.vecdot(other, normal).tolist()))
    d = body.vertices[a[closer]] - body.vertices[b[closer]]
    return float(np.cumsum(np.sqrt(np.vecdot(d, d)) * angle)[-1])


def _ball_ratio(k: int) -> float:
    """kappa_k / kappa_(k-1), the ratio of consecutive unit-ball volumes."""
    log_ratio = math.lgamma((k + 1) / 2) - math.lgamma(k / 2 + 1)
    return math.sqrt(math.pi) * math.exp(log_ratio)


def mean_width(body: ConvexBody) -> MeanWidthResult:
    """Average width over uniformly distributed directions, in closed form."""
    if isinstance(body, PolygonBoundary):
        return MeanWidthResult(
            _polygon_support_integral(body) / math.pi, "polygon_support_integral"
        )
    if isinstance(body, SphereBody):
        return MeanWidthResult(2.0 * body.radius, "sphere_diameter")
    if isinstance(body, CylinderBody):
        # 2 kappa_n / ((n+1) kappa_(n+1)) * V_1, where the first intrinsic
        # volume of the product is V_1 = h + n kappa_n r / kappa_(n-1)
        n, r, h = body.n, body.base_radius, body.height
        first_volume = h + n * _ball_ratio(n) * r
        return MeanWidthResult(
            2.0 / ((n + 1) * _ball_ratio(n + 1)) * first_volume,
            "cylinder_intrinsic_volume",
        )
    if isinstance(body, Polytope3):
        return MeanWidthResult(
            _polytope_edge_sum(body) / (4.0 * math.pi), "polytope_edge_formula"
        )
    raise DomainError(f"no exact mean width for {type(body).__name__}")
