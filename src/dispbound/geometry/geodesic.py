"""Shortest boundary paths on polytopes via Steiner-point graphs.

Polytope faces are flat and convex, so a straight segment between two
points on one face is a genuine boundary path.  Placing extra nodes
along every edge and connecting all nodes that share a face therefore
yields a graph whose shortest paths are achievable boundary paths; the
reported distances are upper bounds that tighten as the subdivision
grows (nested node sets give monotone improvement).  This is the
Steiner-point scheme of Lanthier, Maheshwari and Sack (Algorithmica
2001) and Aleksandrov, Maheshwari and Sack (JACM 2005).

A graph is held as face rows: each face's node ids, every two of which
are joined by the straight segment across the face.  Path lengths are
float sums taken left to right from the source, and weights are >= 0, so
float addition is monotone: a relaxation can only replace a label by
another walk's sum, and at the fixpoint of dist[v] <= dist[u] + w(u, v)
over every edge each label is at most every walk's sum, by induction
along the walk.  Any relaxation schedule that runs to that fixpoint thus
returns the least left-to-right float sum over all walks from the source,
the label Dijkstra's algorithm returns, bit for bit.

A graph answers a batch of k pairs (x, y) by its distance table: on the
first batch ``_relax`` takes every base node as a source, face block by
face block, and the graph keeps the V x V distance table D.  With F(p) the
nodes on the faces that contain p, a pair is answered as

    min(|x - y| if x and y share a face,
        min over a in F(x), b in F(y) of (|x - a| + D[a, b]) + |b - y|).

A batch is located by the faces that contain each point: the point's row
is those faces' node rows side by side, with infinite lengths on the
padding, so a node on two of its faces appears twice with the same length
and the minimum is unchanged.  The minimum runs over the near side first,
min over b of ((min over a of (|x - a| + D[a, b])) + |b - y|): rounding
is monotone, so fl(min s + c) = min fl(s + c), and the two steps give the
bits of the minimum over every (a, b) at a fraction of its additions.  The
pairs are located and answered in chunks whose gathers hold about
``BATCH_CELLS`` cells; the answer for a pair does not depend on its chunk
or on the other pairs of its batch.

A single pair at a subdivision m whose graph is not cached (one
``dispbound geodesic`` command) is answered without building that graph,
on the part of it that a shortest path can use:

* **Bound.**  For m' = ``coarser_subdivision(m)``, (m' + 1) divides
  (m + 1), so every node of the graph at m' is a node of the graph at m
  with the same coordinates (equal fractions i / (m' + 1) and j / (m + 1)
  round to the same float), and every edge is an edge there with the
  same length.  Every walk at m' is thus a walk at m with the same float
  sum, and the least sum over a larger set of walks is no larger: the
  answer UB at m' bounds the answer at m exactly.  UB comes from the same
  rule one level down; the recursion ends at the vertex graph (m = 0),
  which is built for the pair and not cached.
* **Prune.**  By the triangle inequality every node u of a path no
  longer than UB has |x - u| + |u - y| <= UB, up to the rounding of a
  float path sum (relative 1e-12 over a few thousand edges).  The graph
  at m keeps only the nodes with |x - u| + |u - y| <= UB (1 +
  PRUNE_MARGIN) and the edges between them, so it still holds a shortest
  path of the full graph.
* **Solve.**  One source, read like one table pair: a label vector over
  the nodes is seeded with |x - a| on the nodes a of the faces that
  contain x, ``_relax_arcs`` relaxes it to the fixpoint, and y reads it as
  min over b of (label[b] + |b - y|), and |x - y| if the two share a face.
  This is the one-source answer: the least left-to-right sum over the
  walks from x to y of the graph that x and y join as nodes, each linked
  to the nodes of its faces.  Such a walk that returns to x, or passes
  through y before its end, sums no less than its suffix from x or its
  prefix to y, since rounding is monotone and lengths are >= 0; so a
  least one runs x -> a -> ... -> b -> y, the walks the labels count.
  The pruned graph holds a least walk of the full graph, so the answer is
  the full graph's bit for bit.  It may differ from the table's answer in
  the last bits, since the table sums the same path in another order.
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

# the distance table relaxes its sources in this many groups, each over the
# faces in order of distance from the group: fewer groups spread wider and
# need more sweeps, more groups pay more passes (3 measured fastest of 2-5)
SOURCE_GROUPS = 3


def coarser_subdivision(m: int) -> int:
    """The largest m' < m whose graph's nodes are nodes of the graph at m,
    bit for bit: (m' + 1) divides (m + 1), and equal fractions i / (m' + 1)
    and j / (m + 1) round to the same float t."""
    n = m + 1
    p = next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)
    return n // p - 1


def fresh_pair_distance(polytope, x: np.ndarray, y: np.ndarray, m: int) -> float:
    """The one-source answer of the full subdivision-m graph for the pair
    (x, y), bit for bit, with no graph cached: the vertex graph answers at
    m = 0; otherwise the answer at ``coarser_subdivision(m)`` bounds the
    path, and the graph at m keeps only the nodes within that bound (Bound,
    Prune and Solve above)."""
    if m == 0:
        return GeodesicGraph(polytope, 0)._one_source_route(x, y)
    bound = fresh_pair_distance(polytope, x, y, coarser_subdivision(m))
    return GeodesicGraph(polytope, m, within=(x, y, bound))._one_source_route(x, y)


def _face_weights(points: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The ``(F, S, S)`` lengths |p_u - p_v| between the nodes of each face
    row, infinite where either slot is padding (id ``len(points)``)."""
    n, (count, width) = len(points), ids.shape
    padded = np.concatenate([points, np.zeros((1, 3))])
    weights = np.empty((count, width, width))
    step = max(1, BATCH_CELLS // (3 * width * width + 1))
    for s in range(0, count, step):
        p = padded[ids[s:s + step]]
        weights[s:s + step] = np.linalg.norm(p[:, :, None] - p[:, None, :], axis=-1)
    padding = ids == n
    weights[padding[:, :, None] | padding[:, None, :]] = np.inf
    return weights


def _relax(ids: np.ndarray, weights: np.ndarray, dist: np.ndarray,
           order: np.ndarray) -> None:
    """Relax ``dist`` in place to the fixpoint of dist[v] <= dist[u] + w(u, v)
    over every two nodes of a face row, with w(u, v) = ``weights[f, i, j]``
    for u, v in slots i, j of row f; a pair must have the same weight in
    every row that holds it.

    ``dist`` is node-major, ``(N + 1, B)`` for B sources, with row N (the
    padding id) infinite; its finite entries must be walk sums from their
    column's source, such as 0 at the source.  Faces are relaxed one at a
    time in ``order``, each from the rows and columns that changed since its
    last pass, as min over u of (dist[u] + w(u, v)) (Gauss-Seidel), and again
    only when one of its nodes changed since, its own pass's changes
    included.  The schedule changes how fast the fixpoint is reached, never
    the fixpoint (see the module docstring).
    """
    count, width = ids.shape
    nodes, sources = dist.shape
    member = np.zeros((count, nodes), dtype=bool)
    face, slot = np.nonzero(ids < nodes - 1)
    member[face, ids[face, slot]] = True
    # a node's rows and a face's columns are stale until the face has seen
    # them: each change stamps its node, each pass stamps its face
    reached = np.isfinite(dist)
    stamp = reached.any(axis=1).astype(np.int64)
    seen = np.zeros(count, dtype=np.int64)
    stale = np.matmul(member, reached, dtype=np.float32) > 0
    clock = 1
    pending = stale.any(axis=1)
    while pending.any():
        for f in order.tolist():
            if not pending[f]:
                continue
            pending[f] = False
            rows = ids[f]
            fresh = np.flatnonzero(stamp[rows] > seen[f])
            clock += 1
            seen[f] = clock
            cols = np.flatnonzero(stale[f])
            stale[f] = False
            every = 4 * len(cols) > 3 * sources
            block = dist[rows] if every else dist[rows[:, None], cols]
            best = block.copy()
            w = weights[f]
            step = max(1, BATCH_CELLS // (width * block.shape[1]))
            for s in range(0, len(fresh), step):
                u = fresh[s:s + step]
                if len(u) < width:
                    via = np.minimum.reduce(block[u][:, None, :] + w[u][:, :, None], axis=0)
                else:  # every row: no gather
                    via = np.minimum.reduce(block[:, None, :] + w[:, :, None], axis=0)
                np.minimum(best, via, out=best)
            better = best < block
            changed = better.any(axis=1)
            if not changed.any():
                continue
            if every:
                dist[rows] = best
                cols = np.flatnonzero(better.any(axis=0))
            else:
                dist[rows[:, None], cols] = best
                cols = cols[better.any(axis=0)]
            clock += 1
            stamp[rows[changed]] = clock
            near = np.flatnonzero(member[:, rows[changed]].any(axis=1))
            stale[near[:, None], cols] = True
            pending[near] = True


def _relax_arcs(tail: np.ndarray, head: np.ndarray, length: np.ndarray,
                dist: np.ndarray) -> None:
    """Relax the ``(N,)`` labels ``dist`` in place to the same fixpoint as
    ``_relax``, over the arcs tail -> head: every label that changed pushes
    fl(dist[tail] + length) along its arcs, all at once by an exact
    ``np.minimum.at``, until no label changes.  Suited to one source on a
    sparse graph, where a face pass costs more Python than arithmetic."""
    nodes = len(dist)
    # arcs by tail; the narrowest id type sorts by radix
    order = np.argsort(tail.astype(np.min_scalar_type(nodes)), kind="stable")
    head, length = head[order], length[order]
    degree = np.bincount(tail, minlength=nodes)
    first = np.cumsum(degree) - degree
    frontier = np.flatnonzero(np.isfinite(dist))
    while len(frontier):
        count = degree[frontier]
        arc = np.repeat(first[frontier] - (np.cumsum(count) - count), count) + np.arange(count.sum())
        target = head[arc]
        before = dist[target]
        np.minimum.at(dist, target, np.repeat(dist[frontier], count) + length[arc])
        lower = np.zeros(nodes, dtype=bool)
        lower[target] = dist[target] < before
        frontier = np.flatnonzero(lower)


class _QueryEdges(NamedTuple):
    """A batch of k pairs located on the graph: row i is x_i for i < k and
    y_(i-k) otherwise, and holds the node rows of the faces that contain
    that point side by side."""

    k: int
    ids: np.ndarray  # (2k, W) node ids, 0 on padding
    lengths: np.ndarray  # (2k, W) |point - node|, infinite on padding
    same: np.ndarray  # pairs whose two points share a face
    direct: np.ndarray  # |x - y| of those pairs


class GeodesicGraph:
    """Edge-subdivision graph over the boundary of a ``Polytope3``, held as
    face rows: each face's node ids.

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
        self._scale = polytope.scale

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
        # largest face; pruned nodes become padding too.  Every two nodes of
        # a row are joined by the straight segment across the face.
        count, padding = len(faces.ids), faces.ids == len(vertices)
        corner = np.where(padding, n, faces.ids)
        side = polytope.face_edges[:, :, None]  # the edge from each corner to the next
        interior = np.where(padding[:, :, None], n, len(vertices) + m * side + np.arange(m))
        ids = np.concatenate([corner, interior.reshape(count, -1)], axis=1)
        ids[~keep[ids]] = n
        ids.sort(axis=1)
        self._ids = ids[:, :int((ids < n).sum(axis=1).max())]
        self._table: np.ndarray | None = None

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def pairwise_distances(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row-wise boundary-path distances between query point arrays, by
        the distance table, which the first call builds once the points of
        its first chunk are found on the boundary.

        The pairs run in chunks whose table gathers hold about
        ``BATCH_CELLS`` cells when each point lies on one face.  An
        off-boundary point is refused as in one unchunked batch: the error
        names the first such point of ``xs``, or else of ``ys``."""
        xs, ys = _as_pairs(xs, ys, 3)
        out = np.empty(len(xs))
        step = max(1, BATCH_CELLS // self._ids.shape[1] ** 2)
        try:
            for s in range(0, len(xs), step):
                q = self._query_edges(xs[s:s + step], ys[s:s + step])
                if self._table is None:
                    self._table = self._distance_table()
                out[s:s + step] = self._table_route(q)
        except DomainError:
            # a later chunk's x comes before this chunk's y
            for points in (xs, ys):
                for s in range(0, len(points), step):
                    self._faces_of(points[s:s + step])
            raise
        return out

    def _distance_table(self) -> np.ndarray:
        """D[a, b], the least walk sum from node a to node b, relaxed in
        SOURCE_GROUPS groups of sources: greedy farthest nodes seed the
        groups, every node joins its nearest seed, and each group's faces
        are relaxed in order of the distance of their centroids from the
        group's mean."""
        n, nodes = self.node_count, self.nodes
        seeds = [int(np.argmax(np.linalg.norm(nodes - nodes.mean(axis=0), axis=1)))]
        gaps = np.linalg.norm(nodes - nodes[seeds[0]], axis=1)[:, None]
        for _ in range(1, min(SOURCE_GROUPS, n)):
            seeds.append(int(np.argmax(gaps.min(axis=1))))
            gaps = np.column_stack([gaps, np.linalg.norm(nodes - nodes[seeds[-1]], axis=1)])
        group = np.argmin(gaps, axis=1)
        weights = _face_weights(nodes, self._ids)
        table = np.empty((n, n))
        for g in range(len(seeds)):
            sources = np.flatnonzero(group == g)
            dist = np.full((n + 1, len(sources)), np.inf)
            dist[sources, np.arange(len(sources))] = 0.0
            centre = nodes[sources].mean(axis=0)
            order = np.argsort(np.linalg.norm(self._faces.centroids - centre, axis=1),
                               kind="stable")
            _relax(self._ids, weights, dist, order)
            table[sources] = dist[:n].T
        return table

    def _faces_of(self, points: np.ndarray) -> np.ndarray:
        """The face membership of ``points`` (see ``face_membership``); an
        off-boundary point raises ``DomainError`` naming the first one."""
        member = face_membership(points, self._faces, self._vertices, self._scale)
        off = np.flatnonzero(~member.any(axis=1))
        if len(off):
            raise DomainError(
                f"query point is not on the polytope boundary: {points[off[0]]!r}"
            )
        return member

    def _query_edges(self, xs, ys) -> _QueryEdges:
        """Each point of the pairs (xs, ys) located on the face rows that
        contain it: a node shared by two of its faces appears once per row,
        with the same length."""
        queries = np.concatenate([xs, ys], axis=0)
        member = self._faces_of(queries)
        query, face = np.nonzero(member)
        counts = member.sum(axis=1)
        slot = np.arange(len(query)) - np.repeat(np.cumsum(counts) - counts, counts)
        n, width = self.node_count, self._ids.shape[1]
        ids = np.full((len(queries), counts.max(), width), n)
        ids[query, slot] = self._ids[face]
        ids = ids.reshape(len(queries), -1)
        padding = ids == n
        ids[padding] = 0
        lengths = np.linalg.norm(self.nodes[ids] - queries[:, None, :], axis=-1)
        lengths[padding] = np.inf
        k = len(xs)
        same = np.flatnonzero(np.any(member[:k] & member[k:], axis=1))
        gaps = xs[same] - ys[same]
        return _QueryEdges(k, ids, lengths, same, np.sqrt(np.vecdot(gaps, gaps)))

    def _one_source_route(self, x: np.ndarray, y: np.ndarray) -> float:
        """The least walk sum from x to y with no table (Solve in the
        module docstring): labels seeded with |x - a| on the nodes a of x's
        face rows, relaxed over every node pair of a face row, and read at
        y as ``_table_route`` reads its far side.  Padding has infinite
        length, so it seeds and reads nothing."""
        q, n = self._query_edges(x[None], y[None]), self.node_count
        rows = self._ids[(self._ids < n).sum(axis=1) >= 2]
        iu, ju = np.triu_indices(rows.shape[1], k=1)
        a, b = rows[:, iu].ravel(), rows[:, ju].ravel()
        real = b < n  # a pair with padding has it in its later slot
        a, b = a[real], b[real]
        length = np.linalg.norm(self.nodes[a] - self.nodes[b], axis=1)
        dist = np.full(n, np.inf)
        np.minimum.at(dist, q.ids[0], q.lengths[0])
        # each edge both ways
        _relax_arcs(np.r_[a, b], np.r_[b, a], np.r_[length, length], dist)
        far = np.min(dist[q.ids[1]] + q.lengths[1], initial=np.inf)
        return float(min(far, q.direct[0]) if len(q.same) else far)

    def _table_route(self, q: _QueryEdges) -> np.ndarray:
        """Min-plus over the distance table, the near side first: min over b
        of ((min over a of (|x - a| + D[a, b])) + |b - y|), in blocks of
        pairs whose gather holds about ``BATCH_CELLS`` cells.

        Rounding to nearest is monotone, so fl(min s + c) = min fl(s + c)
        for a c added to every s: the two-step minimum has the bits of the
        minimum of (|x - a| + D[a, b]) + |b - y| over every (a, b).
        Padding has infinite length and never wins."""
        k, width = q.k, q.ids.shape[1]
        out = np.empty(k)
        step = max(1, BATCH_CELLS // (width * width))
        for s in range(0, k, step):
            x, y = slice(s, min(s + step, k)), slice(k + s, k + min(s + step, k))
            via = self._table[q.ids[x, :, None], q.ids[y, None, :]]
            via += q.lengths[x, :, None]
            near = via.min(axis=1)
            near += q.lengths[y]
            out[x] = near.min(axis=1)
        out[q.same] = np.minimum(out[q.same], q.direct)
        return out
