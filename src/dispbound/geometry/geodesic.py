"""Shortest boundary paths on polytopes via Steiner-point graphs.

Polytope faces are flat and convex, so a straight segment between two
points on one face is a genuine boundary path.  Placing extra nodes
along every edge and connecting all nodes that share a face therefore
yields a graph whose shortest paths are achievable boundary paths; the
reported distances are upper bounds that tighten as the subdivision
grows (nested node sets give monotone improvement).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ..errors import DomainError

__all__ = ["GeodesicGraph"]


class GeodesicGraph:
    """Edge-subdivision graph over the boundary of a ``Polytope3``."""

    def __init__(self, polytope, subdivision: int):
        self.polytope = polytope
        self.subdivision = int(subdivision)
        m = self.subdivision

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

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def pairwise_distances(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row-wise boundary-path distances between query point arrays."""
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
        if xs.shape != ys.shape:
            raise DomainError("query arrays must have matching shapes")
        k = len(xs)
        base = self.node_count
        total = base + 2 * k
        queries = np.concatenate([xs, ys], axis=0)

        member = self.polytope.faces_containing(queries)
        off = np.flatnonzero(~member.any(axis=1))
        if len(off):
            raise DomainError(
                f"query point is not on the polytope boundary: {queries[off[0]]!r}"
            )
        # query edges: each query to every node of its faces, by query and
        # then by node id, then the direct edge of each same-face pair
        q_idx, n_idx = np.nonzero(member @ self._incidence)
        lengths = np.linalg.norm(self.nodes[n_idx] - queries[q_idx], axis=1)
        same = np.flatnonzero(np.any(member[:k] & member[k:], axis=1))
        gaps = xs[same] - ys[same]
        rows = np.concatenate([self._rows, n_idx, base + same])
        cols = np.concatenate([self._cols, base + q_idx, base + k + same])
        vals = np.concatenate([self._vals, lengths, np.sqrt(np.vecdot(gaps, gaps))])

        graph = csr_matrix((vals, (rows, cols)), shape=(total, total))
        sources = np.arange(base, base + k)
        dist = dijkstra(graph, directed=False, indices=sources)
        return dist[np.arange(k), base + k + np.arange(k)]

    def distance(self, x, y) -> float:
        return float(self.pairwise_distances(np.asarray(x)[None], np.asarray(y)[None])[0])
