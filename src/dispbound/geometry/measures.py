"""Minimum width and mean width of convex bodies.

Everything here is derived from the support function, so it works for any
``ConvexBody``.  Exact shortcuts (polygon calipers, the polytope edge
formula, the planar perimeter identity) are used when available and
labelled as such in the result records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .bodies import ConvexBody, PolygonBoundary, Polytope3
from .sampling import fibonacci_sphere, substream, unit_directions

__all__ = [
    "MeanWidthResult",
    "WidthResult",
    "mean_width",
    "min_width",
]

_DIRECTION_STREAM_TAG = 74_843_121  # fixed tag so refinement is reproducible


@dataclass(frozen=True)
class WidthResult:
    value: float
    kind: str  # "exact" or "upper_bound"
    direction: tuple[float, ...]


def _direction_grid(body: ConvexBody, count: int) -> np.ndarray:
    dim = body.ambient_dimension
    if dim == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if dim == 3:
        return fibonacci_sphere(count)
    rng = substream(_DIRECTION_STREAM_TAG, "direction-grid", body.body_id)
    return unit_directions(rng, count, dim)


def min_width(body: ConvexBody, grid: int = 20_000, refinements: int = 50) -> WidthResult:
    """Smallest width over all directions.

    Convex polygons use rotating calipers and are exact; everything else
    scans a deterministic direction grid and then polishes locally with a
    shrinking jitter, which can only overshoot (an upper bound).
    """
    if isinstance(body, PolygonBoundary):
        best = math.inf
        best_dir = (1.0, 0.0)
        for v, e, length in zip(body.vertices, body._edges, body._edge_lengths):
            normal = np.array([-e[1], e[0]]) / length
            reach = float(np.max((body.vertices - v) @ normal))
            if reach < best:
                best = reach
                best_dir = tuple(normal)
        return WidthResult(best, "exact", best_dir)

    dirs = _direction_grid(body, grid)
    widths = body.support_batch(dirs) + body.support_batch(-dirs)
    i = int(np.argmin(widths))
    best, best_dir = float(widths[i]), dirs[i]

    rng = substream(_DIRECTION_STREAM_TAG, "min-width-refine", body.body_id)
    sigma = math.pi / math.sqrt(max(grid, 2))
    for _ in range(refinements):
        cloud = best_dir + sigma * rng.standard_normal((64, body.ambient_dimension))
        cloud /= np.linalg.norm(cloud, axis=1)[:, None]
        w = body.support_batch(cloud) + body.support_batch(-cloud)
        j = int(np.argmin(w))
        if w[j] < best:
            best, best_dir = float(w[j]), cloud[j]
        sigma *= 0.7
    return WidthResult(best, "upper_bound", tuple(best_dir))


@dataclass(frozen=True)
class MeanWidthResult:
    value: float
    stderr: float
    method: str
    samples: int


def mean_width(
    body: ConvexBody,
    method: str = "monte_carlo",
    samples: int = 100_000,
    seed: int = 0,
) -> MeanWidthResult:
    """Average width over uniformly random directions.

    ``monte_carlo`` works in any dimension and reports a standard error.
    ``polytope_edge_formula`` is the exact edge-length/exterior-angle sum
    for 3-polytopes.  ``crofton_curve`` is the exact planar identity
    (perimeter over pi).
    """
    if method == "monte_carlo":
        if samples < 2:
            raise ConfigurationError(f"need at least two samples, got {samples}")
        rng = substream(seed, "mean-width", body.body_id)
        dirs = unit_directions(rng, samples, body.ambient_dimension)
        widths = body.support_batch(dirs) + body.support_batch(-dirs)
        value = float(np.mean(widths))
        stderr = float(np.std(widths, ddof=1) / math.sqrt(samples))
        return MeanWidthResult(value, stderr, method, samples)
    if method == "polytope_edge_formula":
        if not isinstance(body, Polytope3):
            raise ConfigurationError("edge formula needs a 3-polytope")
        total = 0.0
        for a, b in body.edges:
            shared = [
                f for f in body.faces if a in f.indices and b in f.indices
            ]
            if len(shared) != 2:
                raise ConfigurationError(
                    f"edge ({a},{b}) is not shared by exactly two faces"
                )
            cosang = float(np.clip(shared[0].normal @ shared[1].normal, -1.0, 1.0))
            length = float(np.linalg.norm(body.vertices[a] - body.vertices[b]))
            total += length * math.acos(cosang)
        return MeanWidthResult(total / (4.0 * math.pi), 0.0, method, len(body.edges))
    if method == "crofton_curve":
        if not isinstance(body, PolygonBoundary):
            raise ConfigurationError("the perimeter identity needs a polygon")
        return MeanWidthResult(body.perimeter / math.pi, 0.0, method, 0)
    raise ConfigurationError(f"unknown mean width method {method!r}")
