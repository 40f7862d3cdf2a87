"""Shortest boundary paths on polytopes via Steiner-point graphs.

Polytope faces are flat and convex, so a straight segment between two
points on one face is a genuine boundary path.  Placing extra nodes
along every edge and connecting all nodes that share a face therefore
yields a graph whose shortest paths are achievable boundary paths; the
reported distances are upper bounds that tighten as the subdivision
grows (nested node sets give monotone improvement).  This is the
Steiner-point scheme of Lanthier, Maheshwari and Sack (Algorithmica
2001) and Aleksandrov, Maheshwari and Sack (JACM 2005).

A batch of k pairs (x, y) is answered by one of two routes:

* **One source per query.**  The 2k query points join the base graph as
  nodes, each linked to every node of the faces that contain it, and x to
  y where the two share a face; scipy's Dijkstra then runs from the k
  points x.  A path may pass through the query points of other pairs.
* **Table.**  Dijkstra runs once from every base node, and the graph keeps
  the V x V distance table D.  With F(p) the nodes on the faces that
  contain p, a pair is answered as

      min(|x - y| if x and y share a face,
          min over a in F(x), b in F(y) of (|x - a| + D[a, b]) + |b - y|),

  elementwise over padded rows, so the answer for a pair does not depend
  on the other pairs of its batch.

The table is built by the first batch for which
``k (E_base + E_query) >= V E_base``, where V and E_base count the base
graph's nodes and edges and E_query the batch's query edges; both sides
estimate the edge relaxations of the two Dijkstra runs.  Once built, it
answers every later batch.  A single pair on a fresh graph therefore
keeps the one-source route, which costs a fraction of the table on a
fine subdivision.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ..errors import DomainError
from .bodies import BATCH_CELLS, _as_pairs, face_membership

__all__ = ["GeodesicGraph"]


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

    def __init__(self, polytope, subdivision: int):
        self.subdivision = int(subdivision)
        m = self.subdivision
        self._faces = polytope.faces
        self._vertices = polytope.vertices
        self._scale = polytope._scale

        nodes = [polytope.vertices]
        # node ids: polytope vertices first, then m interior points per edge
        edge_node_ids: dict[tuple[int, int], np.ndarray] = {}
        next_id = len(polytope.vertices)
        for a, b in polytope.edges:
            if m:
                t = (np.arange(1, m + 1) / (m + 1))[:, None]
                nodes.append(polytope.vertices[a] * (1 - t) + polytope.vertices[b] * t)
            edge_node_ids[(a, b)] = np.arange(next_id, next_id + m)
            next_id += m
        self.nodes = np.concatenate(nodes, axis=0)

        self.face_node_ids: list[np.ndarray] = []
        for face in polytope.faces:
            ids = list(face.indices)
            k = len(face.indices)
            for i in range(k):
                a, b = face.indices[i], face.indices[(i + 1) % k]
                ids.extend(edge_node_ids[(min(a, b), max(a, b))])
            self.face_node_ids.append(np.array(sorted(ids)))

        # base edges: every node pair sharing a face, in first-seen order;
        # an edge shared by two faces is kept once, as a dict would keep it
        rows, cols, vals = [], [], []
        for ids in self.face_node_ids:
            pts = self.nodes[ids]
            dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            iu, ju = np.triu_indices(len(ids), k=1)
            rows.append(ids[iu])
            cols.append(ids[ju])
            vals.append(dists[iu, ju])
        rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
        _, first = np.unique(rows * len(self.nodes) + cols, return_index=True)
        first.sort()
        self._rows, self._cols, self._vals = rows[first], cols[first], vals[first]

        self._incidence = np.zeros((len(polytope.faces), len(self.nodes)), dtype=bool)
        for f, ids in enumerate(self.face_node_ids):
            self._incidence[f, ids] = True
        self._table: np.ndarray | None = None

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def pairwise_distances(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row-wise boundary-path distances between query point arrays."""
        q = self._query_edges(xs, ys)
        base_edges = len(self._vals)
        if self._table is None and (
            q.k * (base_edges + len(q.length) + len(q.same))
            >= self.node_count * base_edges
        ):
            base = csr_matrix((self._vals, (self._rows, self._cols)),
                              shape=(self.node_count, self.node_count))
            self._table = dijkstra(base, directed=False)
        if self._table is None:
            return self._one_source_route(q)
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
        # each query to every node of its faces, by query and then by node id
        query, node = np.nonzero(member @ self._incidence)
        length = np.linalg.norm(self.nodes[node] - queries[query], axis=1)
        k = len(xs)
        same = np.flatnonzero(np.any(member[:k] & member[k:], axis=1))
        gaps = xs[same] - ys[same]
        return _QueryEdges(k, query, node, length, same, np.sqrt(np.vecdot(gaps, gaps)))

    def _one_source_route(self, q: _QueryEdges) -> np.ndarray:
        """Dijkstra from each x over the base graph joined by the 2k query
        points; the same-face edges x-y come last."""
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
