"""Reference implementations used to cross-check the library.

Almost everything here recomputes results from first principles (definitions
over raw pairwise distances, exhaustive enumeration) rather than sharing any
code with the package under test. Two pieces share the library's definitions
on purpose: `seeded_rng`, which defines the cell orderings cumulative
detection averages over, and `scan_agglomerate`, the library's former
agglomeration loop, which does the same Lance-Williams arithmetic so that
dendrograms can be compared exactly.
"""
import itertools
import math

import numpy as np

from scbench._util import seeded_rng
from scbench.errors import DataError


def naive_distances(x):
    n = len(x)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = float(np.sqrt(((x[i] - x[j]) ** 2).sum()))
    return d


def naive_agglomerate(x, linkage):
    """Definition-based agglomeration: every cluster pair distance is
    recomputed from scratch at every step (O(n^3) overall).

    Returns (merge list of (node_a, node_b, height), heights on the same
    scale as the library: ward heights are squared-euclidean based).
    Node numbering: leaves 0..n-1, merge t creates node n+t. Ties take the
    smallest (node_a, node_b) pair.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    d = naive_distances(x)

    def cluster_distance(a_members, b_members):
        if linkage == "single":
            return min(d[i, j] for i in a_members for j in b_members)
        if linkage == "complete":
            return max(d[i, j] for i in a_members for j in b_members)
        if linkage == "average":
            vals = [d[i, j] for i in a_members for j in b_members]
            return sum(vals) / len(vals)
        # ward: Lance-Williams distance on the squared-euclidean scale,
        # equal to 2|A||B|/(|A|+|B|) times the squared centroid gap
        mu_a = x[list(a_members)].mean(axis=0)
        mu_b = x[list(b_members)].mean(axis=0)
        na, nb = len(a_members), len(b_members)
        return 2.0 * na * nb / (na + nb) * float(((mu_a - mu_b) ** 2).sum())

    clusters = {i: frozenset([i]) for i in range(n)}
    merges = []
    for t in range(n - 1):
        best = None
        for a, b in itertools.combinations(sorted(clusters), 2):
            dist = cluster_distance(clusters[a], clusters[b])
            if best is None or dist < best[0] or (dist == best[0] and (a, b) < best[1:]):
                best = (dist, a, b)
        dist, a, b = best
        merges.append((a, b, dist))
        clusters[n + t] = clusters.pop(a) | clusters.pop(b)
    return merges


def scan_agglomerate(d, linkage):
    """The library's former O(n^3) agglomeration loop, kept as its oracle.

    Each merge scans the whole working copy for its minimum and takes the
    smallest (node_a, node_b) pair among the entries that hold it. The
    Lance-Williams arithmetic is the library's, operation for operation, so
    the merges must equal `hierarchical`'s exactly, heights included.
    Returns a tuple of (node_a, node_b, height, size).
    """
    d = np.asarray(d, dtype=np.float64)
    n = d.shape[0]
    work = d * d if linkage == "ward" else d.copy()
    np.fill_diagonal(work, np.inf)

    slot_node = np.arange(n)
    slot_size = np.ones(n, dtype=np.int64)
    merges = []
    for t in range(n - 1):
        dist = work.min()
        cand = np.argwhere(work == dist)
        # each tied pair appears in both orders; normalizing by node id and
        # taking the minimum applies the (node_a, node_b) tie-break
        i, j = min(
            ((min(slot_node[p], slot_node[q]), max(slot_node[p], slot_node[q]), p, q)
             for p, q in cand)
        )[2:]
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
        merges.append((a, b, height, si + sj))
    return tuple(merges)


def naive_silhouette(d, labels):
    n = len(labels)
    labels = np.asarray(labels)
    widths = np.zeros(n)
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            continue
        a = sum(d[i, j] for j in own) / len(own)
        b = min(
            sum(d[i, j] for j in np.flatnonzero(labels == c))
            / int((labels == c).sum())
            for c in set(labels.tolist())
            if c != labels[i]
        )
        m = max(a, b)
        widths[i] = 0.0 if m == 0.0 else (b - a) / m
    return widths


def kl_divergence(p, embedding):
    """KL(P || Q) by definition, Q the Student-t affinities of the embedding's
    points over all ordered pairs, from broadcast coordinate differences."""
    p = np.asarray(p, dtype=np.float64)
    y = embedding.coordinates
    n = len(y)
    if p.shape != (n, n):
        raise DataError(f"probability table must be {n} x {n}")
    if not np.isfinite(p).all() or (p < 0).any():
        raise DataError("probability table must be finite and non-negative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise DataError("probability table must sum to 1 within 1e-9")
    num = 1.0 / (1.0 + ((y[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1))
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    mask = p > 0
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def scatter(points):
    mu = points.mean(axis=0)
    return float(((points - mu) ** 2).sum())


def best_two_partition_sse(points):
    """Exhaustive optimum over all 2-cluster partitions (point 0 pinned to
    side A to skip mirror duplicates)."""
    n = len(points)
    best = np.inf
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([True] + [(bits >> i) & 1 == 0 for i in range(n - 1)])
        sse = scatter(points[mask]) + scatter(points[~mask])
        best = min(best, sse)
    return best


def mst_edge_weights(d):
    """Prim's algorithm; returns the n-1 tree edge weights sorted ascending."""
    n = d.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = d[0].copy()
    weights = []
    for _ in range(n - 1):
        best_masked = np.where(in_tree, np.inf, best)
        j = int(best_masked.argmin())
        weights.append(float(best_masked[j]))
        in_tree[j] = True
        best = np.minimum(best, d[j])
    return sorted(weights)


def naive_cumulative_detection(m, n_permutations, seed):
    """Mean running union of detected genes over cell orderings, visiting
    every cell of every ordering in turn.

    The orderings are the library's: all of them when n_permutations covers
    every ordering of at most 12 cells, else the seeded permutations.
    """
    n = m.n_cells
    if n <= 12 and math.factorial(n) <= n_permutations:
        orders = list(itertools.permutations(range(n)))
    else:
        orders = [seeded_rng(seed, p).permutation(n) for p in range(n_permutations)]
    genes_by_cell = [set() for _ in range(m.n_cells)]
    for c, g in zip(m.cell_idx.tolist(), m.gene_idx.tolist()):
        genes_by_cell[c].add(g)
    totals = np.zeros(m.n_cells, dtype=np.float64)
    for order in orders:
        seen = set()
        for step, c in enumerate(order):
            seen |= genes_by_cell[c]
            totals[step] += len(seen)
    return totals / len(orders)


def naive_write_matrix_market(m, path):
    """One formatted line and one write per stored entry."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("%%MatrixMarket matrix coordinate integer general\n")
        fh.write(f"{m.n_cells} {m.n_genes} {m.nnz}\n")
        for cell, gene, cnt in zip(m.cell_idx, m.gene_idx, m.counts):
            fh.write(f"{cell + 1} {gene + 1} {cnt}\n")
