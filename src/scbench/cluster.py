"""Clustering and partition quality scores.

k-means uses k-means++ seeding with multiple restarts; hierarchical clustering
is the Lance-Williams agglomerative family (single, complete, average, ward).
Silhouette widths and the adjusted Rand index follow their textbook
definitions, computed exactly. Every routine is deterministic: ties are broken
by index order and randomness only enters through explicit seeds. Every
routine takes points. Hierarchical clustering and the silhouettes read their
euclidean distances from one blocked kernel, `_distance_strips`, whose
coordinate differences give exact symmetry and a zero diagonal; k-means
seeds and assigns from point-to-centre d^2 in Gram form, `_sq_distances`.
Only hierarchical clustering holds an n x n array.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._util import seeded_rng, unpickle_read_only
from .errors import DataError
from .matrix import _BLOCK_ROWS, _as_points, _sq_distances

KMEANS_RESTARTS_DEFAULT = 10
KMEANS_MAX_ITERS = 300  # Lloyd iterations per restart, at most
KMEANS_TOL = 1e-6  # a restart stops once an iteration lowers its SSE by less

LINKAGES = ("single", "complete", "average", "ward")

Merge = namedtuple("Merge", ["node_a", "node_b", "height", "size"])


def _distance_strips(points: np.ndarray):
    """Yield (s, e, rows), the distances from points s..e-1 to all points.

    Entry (i, j) is sqrt(((x_j - x_i)^2).sum()) over the coordinates in
    order: its bits do not depend on the block, (i, j) equals (j, i), (i, i)
    is 0, and one past float64 is inf. A block has max(1, _BLOCK_ROWS // dim)
    rows: up to _BLOCK_ROWS coordinates, its differences hold <= _BLOCK_ROWS x n.
    """
    n, dim = points.shape
    step = max(1, _BLOCK_ROWS // max(dim, 1))
    for s in range(0, n, step):
        e = min(s + step, n)
        diff = points[None, :, :] - points[s:e, None, :]
        diff *= diff
        rows = diff.sum(axis=-1)
        del diff  # not held while the caller reads the block
        yield s, e, np.sqrt(rows, out=rows)


def pairwise_distances(x) -> np.ndarray:
    """Euclidean distances between the rows of `x`, as the full n x n matrix,
    filled from `_distance_strips`: exactly symmetric, with an exactly zero
    diagonal. `hierarchical` builds its working copy with it."""
    points = _as_points(x)
    n = points.shape[0]
    d = np.empty((n, n))
    for s, e, rows in _distance_strips(points):
        d[s:e] = rows
    return d


@dataclass(frozen=True, eq=False)
class ClusterResult:
    labels: np.ndarray
    centers: np.ndarray
    sse: float
    n_iters: int
    seed: int
    restart_sses: np.ndarray
    sse_trace: tuple = ()

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        centers = np.array(self.centers, dtype=np.float64)
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)

    __setstate__ = unpickle_read_only("labels", "centers")


def _kmeans_pp_init(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    d2 = np.full(n, np.inf)
    for j in range(k):
        # the first centre, and any drawn once every point sits on one, is uniform
        total = d2.sum()
        if j == 0 or total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = points[idx]
        d2 = np.minimum(d2, _sq_distances(points, centers[j:j + 1])[:, 0])
    return centers


def _assign(points: np.ndarray, centers: np.ndarray):
    d2 = _sq_distances(points, centers)
    labels = d2.argmin(axis=1)
    sse = float(d2[np.arange(points.shape[0]), labels].sum())
    return d2, labels, sse


def _lloyd(points: np.ndarray, centers: np.ndarray):
    n, k = points.shape[0], centers.shape[0]
    centers = centers.copy()
    prev_sse = np.inf
    labels = np.zeros(n, dtype=np.int64)
    trace = []
    for it in range(1, KMEANS_MAX_ITERS + 1):
        d2, labels, sse = _assign(points, centers)

        counts = np.bincount(labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            # steal the point farthest from its center, skipping points that
            # are their cluster's only member
            order = np.argsort(-d2[np.arange(n), labels], kind="stable")
            for cand in order:
                if counts[labels[cand]] > 1:
                    counts[labels[cand]] -= 1
                    labels[cand] = j
                    counts[j] = 1
                    break
        if (counts == 0).any():
            raise DataError("k exceeds the number of distinct points")
        trace.append(sse)

        new_centers = np.zeros_like(centers)
        np.add.at(new_centers, labels, points)
        new_centers /= np.bincount(labels, minlength=k)[:, None]

        if prev_sse - sse < KMEANS_TOL and np.array_equal(centers, new_centers):
            return labels, centers, sse, it, trace
        if prev_sse - sse < KMEANS_TOL or it == KMEANS_MAX_ITERS:
            centers = new_centers
            # recompute once so the reported sse matches the final centers
            _, labels, sse = _assign(points, centers)
            trace.append(sse)
            return labels, centers, sse, it, trace
        centers = new_centers
        prev_sse = sse
    raise AssertionError("unreachable")


def kmeans(
    x,
    k: int,
    seed: int = 0,
    restarts: int = KMEANS_RESTARTS_DEFAULT,
) -> ClusterResult:
    """Lloyd's algorithm from k-means++ starts; best of `restarts` runs by SSE.

    Each restart draws from an independent stream derived from (seed, restart
    index), so results are reproducible and restarts could run in any order.
    """
    points = _as_points(x)
    n = points.shape[0]
    if not (1 <= k <= n):
        raise DataError(f"k={k} out of range for {n} points")
    if restarts < 1:
        raise DataError("restarts must be positive")
    # the Gram-form d² rounds at the scale of |x|², so points far from the
    # origin relative to their spread are clustered about their mean
    mean = points.mean(axis=0)
    points = points - mean

    best = None
    sses = np.empty(restarts)
    for r in range(restarts):
        rng = seeded_rng(seed, r)
        init = _kmeans_pp_init(points, k, rng)
        labels, centers, sse, n_iters, trace = _lloyd(points, init)
        sses[r] = sse
        if best is None or sse < best[2]:
            best = (labels, centers, sse, n_iters, trace)
    labels, centers, sse, n_iters, trace = best
    return ClusterResult(labels, centers + mean, sse, n_iters, seed, sses, tuple(trace))


@dataclass(frozen=True, eq=False)
class Dendrogram:
    merges: tuple
    linkage: str
    n_leaves: int


def _nearest(work, rows, slot_node, nn, nn_dist):
    """Set each of `rows` to its minimum and, among the slots holding it, the
    one with the smallest node id; in row blocks, so temporaries stay small."""
    no_node = 2 * work.shape[0]  # larger than every node id
    for start in range(0, rows.size, _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        tied = work[block]
        best = tied.min(axis=1)
        tied = tied == best[:, None]
        nn[block] = np.where(tied, slot_node, no_node).argmin(axis=1)
        nn_dist[block] = best


def hierarchical(x, linkage: str = "average") -> Dendrogram:
    """Agglomerative clustering of the rows of `x` under euclidean distance,
    via the Lance-Williams update.

    Ward tracks squared-distance heights: merging A and B costs
    2|A||B|/(|A|+|B|) times the squared distance between their centroids.
    Distance ties are broken by the smallest (node_a, node_b) pair; merge t
    creates node n_leaves + t. A merge height that overflows float64 (a
    distance past it, or ward's squares and their updates) raises DataError.

    All merging happens in one working copy of the distances, built by
    `pairwise_distances` (and squared for ward), the only n x n array. It
    holds inf on its diagonal and on the row and column of every slot
    merged away, so the update can run on whole rows: a retired slot stays
    at inf under every linkage's update.

    Merges come from a cache, not a scan of the copy (the generic algorithm
    of Muellner 2011, arXiv:1109.2378): for each slot, its row minimum
    `nn_dist` and, among the slots holding it, the partner `nn` with the
    smallest node id. Both ends of every pair at the global minimum hold it
    as their cached minimum, so the smallest such pair starts at the smallest
    node id among those rows and ends at that row's partner: the merge a
    full scan picks. A merge into slot i rescans only row i and the rows
    whose partner was merged; other rows take slot i only when strictly
    closer, since the new node's id is the largest alive.

    Single and complete linkage only pick among the input distances, so which
    of two tied pairs merges first never depends on rounding. Average and ward
    compute new distances, and the update rounds differently from recomputing
    them by definition: among distances equal by definition, the merge order
    may follow rounding and differ from such a recomputation.
    """
    if linkage not in LINKAGES:
        raise DataError(f"unknown linkage {linkage!r}")
    points = _as_points(x)
    n = points.shape[0]
    if n < 2:
        raise DataError("clustering needs at least 2 points")
    # an overflow, or the inf - inf it can lead to, shows as a non-finite
    # merge height, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        work = pairwise_distances(points)
        if linkage == "ward":
            work *= work
        np.fill_diagonal(work, np.inf)

        slot_node = np.arange(n)
        slot_size = np.ones(n, dtype=np.int64)
        nn, nn_dist = np.empty(n, dtype=np.int64), np.empty(n)
        _nearest(work, np.arange(n), slot_node, nn, nn_dist)
        merges = []
        for t in range(n - 1):
            dist = nn_dist.min()
            if not np.isfinite(dist):
                raise DataError("merge height overflows float64; rescale the points")
            rows = np.flatnonzero(nn_dist == dist)
            p = int(rows[slot_node[rows].argmin()])
            i, j = sorted((p, int(nn[p])))
            a, b = sorted((int(slot_node[i]), int(slot_node[j])))
            si, sj = int(slot_size[i]), int(slot_size[j])
            height = float(dist)

            dik, djk = work[i], work[j]
            if linkage == "single":
                new = np.minimum(dik, djk)
            elif linkage == "complete":
                new = np.maximum(dik, djk)
            elif linkage == "average":
                new = (si * dik + sj * djk) / (si + sj)
            else:  # ward, on squared distances
                sk = slot_size
                new = ((si + sk) * dik + (sj + sk) * djk - sk * dist) / (si + sj + sk)
            new[i] = new[j] = np.inf
            work[i] = new
            work[:, i] = new
            work[j] = np.inf
            work[:, j] = np.inf

            slot_size[i] = si + sj
            slot_node[i] = n + t
            merges.append(Merge(a, b, height, si + sj))
            nn[j], nn_dist[j] = -1, np.inf
            # i and j were each other's partners, so this takes in row i
            stale = np.flatnonzero((nn == i) | (nn == j))
            closer = new < nn_dist
            nn[closer], nn_dist[closer] = i, new[closer]
            _nearest(work, stale, slot_node, nn, nn_dist)
    return Dendrogram(tuple(merges), linkage, n)


def cut_dendrogram(dendrogram: Dendrogram, k: int) -> np.ndarray:
    """Labels for the k-cluster partition; clusters are numbered by their
    smallest member index."""
    n = dendrogram.n_leaves
    if not (1 <= k <= n):
        raise DataError(f"k={k} out of range for {n} leaves")
    parent = list(range(n + len(dendrogram.merges)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for t, m in enumerate(dendrogram.merges[: n - k]):
        new = n + t
        parent[find(m.node_a)] = new
        parent[find(m.node_b)] = new

    roots = [find(i) for i in range(n)]
    label_of = {}
    labels = np.empty(n, dtype=np.int64)
    for i, r in enumerate(roots):
        if r not in label_of:
            label_of[r] = len(label_of)
        labels[i] = label_of[r]
    return labels


@dataclass(frozen=True, eq=False)
class SilhouetteReport:
    widths: np.ndarray
    mean: float
    per_cluster_mean: dict


def silhouette(x, labels) -> SilhouetteReport:
    """Euclidean silhouette width s(i) = (b - a) / max(a, b) of each row of `x`.

    a and b come from each row's distance sums to every cluster, gathered
    per cluster from the kernel's strips. Singleton clusters score 0, as
    does any point where both a and b are 0. Needs at least 2 clusters; a
    distance sum past float64 raises DataError.
    """
    points = _as_points(x)
    labels = np.asarray(labels, dtype=np.int64)
    n = points.shape[0]
    if labels.shape != (n,):
        raise DataError("labels must have one entry per point")
    # with counts asked for, np.unique does not import numpy.ma
    uniq, own, counts = np.unique(labels, return_inverse=True, return_counts=True)
    k = uniq.size
    if k < 2:
        raise DataError("silhouette needs at least 2 clusters")
    if k == n:
        raise DataError("silhouette is undefined when every cluster is a singleton")

    members = [np.flatnonzero(own == c) for c in range(k)]
    sums = np.empty((n, k))
    with np.errstate(over="ignore"):
        for s, e, rows in _distance_strips(points):
            for c, idx in enumerate(members):
                # a C-ordered gather, so each row sums as one contiguous run
                sums[s:e, c] = np.take(rows, idx, axis=1).sum(axis=1)
    if not np.isfinite(sums).all():
        raise DataError("distances overflow float64; rescale the points")

    at = np.arange(n)
    size = counts[own]
    a = sums[at, own] / np.maximum(size - 1, 1)
    sums /= counts
    sums[at, own] = np.inf
    b = sums.min(axis=1)
    m = np.maximum(a, b)
    widths = np.zeros(n)
    np.divide(b - a, m, out=widths, where=(m != 0.0) & (size > 1))

    per_cluster = {int(c): float(widths[idx].mean()) for c, idx in zip(uniq, members)}
    return SilhouetteReport(widths, float(widths.mean()), per_cluster)


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Exact ARI from the contingency table; 1.0 when the expected and
    maximum index coincide (e.g. both partitions trivial)."""
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape or a.size == 0:
        raise DataError("label vectors must be non-empty and equal length")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(v):
        return v * (v - 1) // 2

    sum_ij = int(comb2(table).sum())
    sum_a = int(comb2(table.sum(axis=1)).sum())
    sum_b = int(comb2(table.sum(axis=0)).sum())
    total = comb2(n)
    expected = sum_a * sum_b / total if total else 0.0
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))
