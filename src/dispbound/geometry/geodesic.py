"""Shortest boundary paths on polytopes via Steiner-point graphs.

Polytope faces are flat and convex, so a straight segment between two
points on one face is a genuine boundary path.  Placing extra nodes
along every edge and connecting all nodes that share a face therefore
yields a graph whose shortest paths are achievable boundary paths; the
reported distances are upper bounds that tighten as the subdivision
grows (nested node sets give monotone improvement).  This is the
Steiner-point scheme of Lanthier, Maheshwari and Sack (Algorithmica
2001) and Aleksandrov, Maheshwari and Sack (JACM 2005).

A graph answers a batch of k pairs (x, y) by its distance table:
Dijkstra runs once from every base node, on the first batch, and the
graph keeps the V x V distance table D.  With F(p) the nodes on the faces
that contain p, a pair is answered as

    min(|x - y| if x and y share a face,
        min over a in F(x), b in F(y) of (|x - a| + D[a, b]) + |b - y|),

elementwise over padded rows, so the answer for a pair does not depend on
the other pairs of its batch.

A single pair at a subdivision m whose graph is not cached (one
``dispbound geodesic`` command) is answered without building that graph,
on the part of it that a shortest path can use:

* **Bound.**  For m' = ``coarser_subdivision(m)``, (m' + 1) divides
  (m + 1), so every node of the graph at m' is a node of the graph at m
  with the same coordinates (equal fractions i / (m' + 1) and j / (m + 1)
  round to the same float), and every edge is an edge there with the
  same length.  Scipy's Dijkstra returns the least float prefix sum over
  all paths, and float addition is monotone, so the answer UB at m'
  bounds the answer at m exactly.  UB comes from the same rule one level
  down; the recursion ends at the vertex graph (m = 0), which is cached.
* **Prune.**  By the triangle inequality every node u of a path no
  longer than UB has |x - u| + |u - y| <= UB, up to the rounding of a
  float path sum (relative 1e-12 over a few thousand edges).  The graph
  at m keeps only the nodes with |x - u| + |u - y| <= UB (1 +
  PRUNE_MARGIN) and the edges between them, so it still holds a shortest
  path of the full graph.
* **Solve.**  One source: the two points join the subgraph as nodes,
  each linked to every node of the faces that contain it, and x to y if
  the two share a face; Dijkstra then runs from x.  This returns the
  full graph's one-source answer bit for bit: the least prefix sum over a
  subset of the paths that still holds a least one.  It may differ from
  the table's answer in the last bits, since the table sums the same path
  in another order.  The pruned graphs are not cached.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..errors import DomainError
from .bodies import BATCH_CELLS, _as_pairs, face_membership

__all__ = ["GeodesicGraph"]

# relative slack on the pruning bound of a single pair: far above the
# rounding of a float path sum over a few thousand edges (about 1e-12)
PRUNE_MARGIN = 1e-9


def coarser_subdivision(m: int) -> int:
    """The largest m' < m whose graph's nodes are nodes of the graph at m,
    bit for bit: (m' + 1) divides (m + 1), and equal fractions i / (m' + 1)
    and j / (m + 1) round to the same float t."""
    n = m + 1
    p = next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)
    return n // p - 1


class _QueryEdges(NamedTuple):
    """A batch of k pairs located on the graph: query i is x_i for i < k and
    y_(i-k) otherwise."""

    k: int
    query: np.ndarray  # query index of each query-to-node edge
    node: np.ndarray  # node index of each query-to-node edge
    length: np.ndarray  # its length
    same: np.ndarray  # pairs whose two points share a face
    direct: np.ndarray  # |x - y| of those pairs


class GeodesicGraph:
    """Edge-subdivision graph over the boundary of a ``Polytope3``.

    The graph copies what it needs of the polytope and keeps no reference
    to it, so a polytope that caches its graphs forms no reference cycle.
    """

    def __init__(self, polytope, subdivision: int, within=None):
        """The graph at ``subdivision``; ``within = (x, y, bound)`` keeps
        only the nodes u with |x - u| + |u - y| <= bound (1 + PRUNE_MARGIN)
        and the edges between them (node ids stay those of the full graph)."""
        self.subdivision = m = int(subdivision)
        self._faces = faces = polytope.face_tables
        self._vertices = vertices = polytope.vertices
        self._scale = polytope._scale

        # node ids: polytope vertices first, then m interior points per edge,
        # edge e of polytope.edges holding V + e m, ..., V + e m + m - 1
        ends = polytope.edges
        t = (np.arange(1, m + 1) / (m + 1))[:, None]
        inner = vertices[ends[:, 0], None] * (1 - t) + vertices[ends[:, 1], None] * t
        self.nodes = np.concatenate([vertices, inner.reshape(-1, 3)], axis=0)
        n = len(self.nodes)
        keep = np.ones(n + 1, dtype=bool)  # the last entry marks padding
        keep[-1] = False
        if within is not None:
            x, y, bound = within
            keep[:n] = (
                np.linalg.norm(self.nodes - x, axis=1)
                + np.linalg.norm(self.nodes - y, axis=1)
            ) <= bound * (1.0 + PRUNE_MARGIN)

        # one row per face: its node ids ascending, padded with n up to the
        # largest face; pruned nodes become padding too
        count, padding = len(faces.ids), faces.ids == len(vertices)
        corner = np.where(padding, n, faces.ids)
        side = polytope.face_edges[:, :, None]  # the edge from each corner to the next
        interior = np.where(padding[:, :, None], n, len(vertices) + m * side + np.arange(m))
        ids = np.concatenate([corner, interior.reshape(count, -1)], axis=1)
        ids[~keep[ids]] = n
        ids.sort(axis=1)
        kept = (ids < n).sum(axis=1)
        ids = ids[:, :int(kept.max())]

        # base edges: every node pair sharing a face, in first-seen order;
        # an edge shared by two faces is kept once, as a dict would keep it.
        # A face left with fewer than two nodes by pruning has no pair.
        pairs = ids[kept >= 2]
        iu, ju = np.triu_indices(ids.shape[1], k=1)
        rows, cols = pairs[:, iu].ravel(), pairs[:, ju].ravel()
        real = cols < n  # a pair with padding has it in its later slot
        rows, cols = rows[real], cols[real]
        _, first = np.unique(rows * n + cols, return_index=True)
        first.sort()
        self._rows, self._cols = rows[first], cols[first]
        gaps = self.nodes[self._rows] - self.nodes[self._cols]
        self._vals = np.linalg.norm(gaps, axis=1)

        face, slot = np.nonzero(ids < n)
        self._incidence = np.zeros((count, n), dtype=bool)
        self._incidence[face, ids[face, slot]] = True
        self._table: np.ndarray | None = None

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def pairwise_distances(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row-wise boundary-path distances between query point arrays, by
        the distance table, which the first call builds once its points
        are found on the boundary."""
        q = self._query_edges(xs, ys)
        if self._table is None:
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import dijkstra

            base = csr_matrix((self._vals, (self._rows, self._cols)),
                              shape=(self.node_count, self.node_count))
            self._table = dijkstra(base, directed=False)
        return self._table_route(q)

    def _query_edges(self, xs, ys) -> _QueryEdges:
        xs, ys = _as_pairs(xs, ys, 3)
        queries = np.concatenate([xs, ys], axis=0)
        member = face_membership(queries, self._faces, self._vertices, self._scale)
        off = np.flatnonzero(~member.any(axis=1))
        if len(off):
            raise DomainError(
                f"query point is not on the polytope boundary: {queries[off[0]]!r}"
            )
        # each query to every node of its faces, by query and then by node id;
        # in float32 the product counts shared faces exactly, on BLAS rather
        # than numpy's boolean loop
        query, node = np.nonzero(
            np.matmul(member, self._incidence, dtype=np.float32) > 0
        )
        length = np.linalg.norm(self.nodes[node] - queries[query], axis=1)
        k = len(xs)
        same = np.flatnonzero(np.any(member[:k] & member[k:], axis=1))
        gaps = xs[same] - ys[same]
        return _QueryEdges(k, query, node, length, same, np.sqrt(np.vecdot(gaps, gaps)))

    def _one_source_route(self, q: _QueryEdges) -> np.ndarray:
        """Dijkstra from each x over the base graph joined by the 2k query
        points, with no table; the same-face edges x-y come last.  A path
        may pass through the query points of other pairs."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        base, k = self.node_count, q.k
        rows = np.concatenate([self._rows, q.node, base + q.same])
        cols = np.concatenate([self._cols, base + q.query, base + k + q.same])
        vals = np.concatenate([self._vals, q.length, q.direct])
        total = base + 2 * k
        graph = csr_matrix((vals, (rows, cols)), shape=(total, total))
        dist = dijkstra(graph, directed=False, indices=np.arange(base, base + k))
        return dist[np.arange(k), base + k + np.arange(k)]

    def _table_route(self, q: _QueryEdges) -> np.ndarray:
        """Min-plus over the distance table: each query's nodes and edge
        lengths form one row padded with infinite lengths, which never win
        the exact minimum."""
        k = q.k
        counts = np.bincount(q.query, minlength=2 * k)
        width = int(counts.max(initial=1))
        slot = np.arange(len(q.query)) - np.repeat(np.cumsum(counts) - counts, counts)
        ids = np.zeros((2 * k, width), dtype=np.intp)
        lengths = np.full((2 * k, width), np.inf)
        ids[q.query, slot] = q.node
        lengths[q.query, slot] = q.length

        out = np.full(k, np.inf)
        out[q.same] = q.direct
        step = max(1, BATCH_CELLS // (width * width))
        for s in range(0, k, step):
            x, y = slice(s, min(s + step, k)), slice(k + s, k + min(s + step, k))
            via = (
                lengths[x, :, None] + self._table[ids[x, :, None], ids[y, None, :]]
            ) + lengths[y, None, :]
            np.minimum(out[x], via.min(axis=(1, 2)), out=out[x])
        return out
