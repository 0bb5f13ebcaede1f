"""Reference implementations used to cross-check the library.

Almost everything here recomputes results from first principles (definitions
over raw pairwise distances, exhaustive enumeration) rather than sharing any
code with the package under test; cumulative detection, for one, is checked
against the running union averaged over every cell ordering. Some pieces share
the library's definitions on purpose: `scan_agglomerate`, the library's former
agglomeration loop, which does the same Lance-Williams arithmetic so that
dendrograms can be compared exactly; `loop_pairwise_distances` and
`matrix_silhouette`, the former one-row distance loop and per-point
silhouette, whose bits the blocked distance kernel must reproduce; `loop_calibrate_rows`,
the perplexity root-find run one row at a time, whose arithmetic the
blocked calibration must reproduce bit for bit, and
`loop_conditional_probabilities`, that loop over each point's other columns, with
`blocked_squared_distances`, the library's d^2 arithmetic, and `symmetrize`,
the former full-matrix joint P, whose strips the library's must equal, beside
`bisect_conditional_probabilities`, the former bisection, whose tolerance
window the root-find must land in;
`loop_quantile_normalize`, the former one-distribution-at-a-time tie
resolution, which the blocked quantile normalization must equal exactly;
and `filter_sparse_genes` and `filter_low_cv`, the former two-step gene
filter, whose composition the one-pass `filter_genes` must equal exactly.
"""
import itertools
import logging
from fractions import Fraction

import numpy as np

from scbench.errors import DataError
from scbench.preprocess import FilterConfig, FilterTrace


def naive_distances(x):
    n = len(x)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = float(np.sqrt(((x[i] - x[j]) ** 2).sum()))
    return d


def loop_pairwise_distances(x):
    """The library's former euclidean distance matrix, one row at a time:
    row i is sqrt(((x_j - x_i)^2).sum()) over the coordinates, for every j."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    d = np.empty((n, n))
    for i in range(n):
        diff = x - x[i]
        d[i] = np.sqrt((diff * diff).sum(axis=1))
    return d


def matrix_silhouette(d, labels):
    """The library's former silhouette widths from a full distance matrix,
    one point at a time: a is the point's row summed over its own cluster
    (itself included) over the cluster size less one, b the smallest mean of
    its row over another cluster; singletons score 0."""
    labels = np.asarray(labels, dtype=np.int64)
    n = d.shape[0]
    uniq = np.unique(labels)
    members = {c: np.flatnonzero(labels == c) for c in uniq}
    widths = np.zeros(n)
    for i in range(n):
        own = members[labels[i]]
        if own.size == 1:
            continue
        a = d[i, own].sum() / (own.size - 1)
        b = min(d[i, members[c]].mean() for c in uniq if c != labels[i])
        m = max(a, b)
        widths[i] = 0.0 if m == 0.0 else (b - a) / m
    return widths


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


def dense_kl_gradient(p, y, boost):
    """The library's former t-SNE step over full n x n arrays: Student-t
    weights from the Gram-matrix form of the squared distances, then KL(P || Q)
    and the gradient of the objective with P scaled by boost.
    Returns (kl, grad)."""
    sq = (y * y).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (y @ y.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    num = 1.0 / (1.0 + d2)
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    w = (boost * p - q) * num
    grad = 4.0 * (y * w.sum(axis=1)[:, None] - w @ y)
    # off-diagonal q is strictly positive; a unit diagonal makes the
    # full-array form exact because the matching p entries are zero
    np.fill_diagonal(q, 1.0)
    mask = p > 0
    kl = float((p[mask] * np.log(p[mask])).sum()) - float((p * np.log(q)).sum())
    return kl, grad


def blocked_squared_distances(x, rows=64):
    """The library's squared distances, operation for operation: per block of
    rows, |x_i|^2 + |x_j|^2 - 2 x_i . x_j from one product with all points,
    clamped at 0, with a zero diagonal."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    sq = (x * x).sum(axis=1)
    d2 = np.empty((n, n))
    for s in range(0, n, rows):
        e = min(s + rows, n)
        block = np.add.outer(sq[s:e], sq)
        block -= 2.0 * (x[s:e] @ x.T)
        d2[s:e] = np.maximum(block, 0.0)
        d2[np.arange(s, e), np.arange(s, e)] = 0.0
    return d2


def symmetrize(cond):
    """The library's former joint P from conditional rows: (cond + cond.T) / 2n."""
    p = cond + cond.T
    p /= 2.0 * cond.shape[0]
    return p


def cut_strips(p, rows=64):
    """A dense P as the library's upper-triangle strips P[s:s + rows, s:]."""
    return [np.ascontiguousarray(p[s:s + rows, s:]) for s in range(0, p.shape[0], rows)]


def assemble_joint(strips):
    """The dense P whose upper-triangle strips these are."""
    n = strips[0].shape[1]
    p = np.empty((n, n))
    s = 0
    for strip in strips:
        e = s + strip.shape[0]
        p[s:e, s:] = strip
        p[e:, s:e] = strip[:, e - s:].T
        s = e
    return p


def loop_calibrate_rows(c, perplexity):
    """The library's perplexity calibration one row at a time, on rows c of
    d^2 to other points: Newton in u = log beta on the row's shifted entropy
    H = log S + beta <w, c> / S, for c = d^2 - min d^2, w = exp(-beta c) and
    S = sum w, safeguarded by the bracket its steps have found, until
    |H - log perplexity| <= 1e-10 or 50 passes, as the library does it. A
    row with at least perplexity nearest points, or whose d^2 are all equal,
    takes equal mass on its nearest points. Returns (P in c's columns,
    achieved perplexities)."""
    tol = 1e-10
    target = np.log(perplexity)
    b, m = c.shape
    p = np.empty((b, m))
    achieved = np.empty(b)
    for i in range(b):
        row = c[i] - c[i].min()
        nearest = (row == 0.0).sum()
        if nearest >= perplexity or nearest == m:
            p[i] = (row == 0.0) / nearest
            achieved[i] = nearest
            continue
        u = -np.log(row.mean())
        lo, hi = -np.inf, np.inf
        for _ in range(50):
            beta = np.exp(u)
            w = np.exp(row * -beta)
            total = w.sum()
            m1 = (w * row).sum() / total
            h = np.log(total) + beta * m1
            f = h - target
            if abs(f) <= tol:
                break
            m2 = (w * row * row).sum() / total
            if f > 0.0:
                lo = u
            else:
                hi = u
            with np.errstate(divide="ignore", invalid="ignore"):
                step = u + np.clip(f / (beta * beta * (m2 - m1 * m1)), -2.0, 2.0)
            if lo < step < hi:
                u = step
            elif np.isinf(lo) or np.isinf(hi):
                u = u + 2.0 if f > 0.0 else u - 2.0
            else:
                u = (lo + hi) / 2.0
        p[i] = w / total
        achieved[i] = np.exp(h)
    return p, achieved


def loop_conditional_probabilities(d2, perplexity):
    """`loop_calibrate_rows` on each row of d2 without its own entry, as an
    n x n P with a zero diagonal. Returns (P, achieved perplexities) and logs
    the library's warnings, under its logger name."""
    log = logging.getLogger("scbench.embed")
    n = d2.shape[0]
    others = ~np.eye(n, dtype=bool)
    cond, achieved = loop_calibrate_rows(d2[others].reshape(n, n - 1), perplexity)
    p = np.zeros((n, n))
    p[others] = cond.ravel()
    for i in range(n):
        if abs(np.log(achieved[i]) - np.log(perplexity)) > 1e-10:
            log.warning(
                "perplexity calibration for point %d stopped at %.6f (target %.6f)",
                i,
                achieved[i],
                perplexity,
            )
    return p, achieved


def bisect_conditional_probabilities(d2, perplexity):
    """The former perplexity calibration one row at a time: bisection on
    each row's precision beta, with the row's entropy taken as
    log S + beta <w, d^2> / S for w = exp(-beta d^2) and S = sum w, until the
    perplexity is within 1e-5 of the target or 50 bisections. Returns
    (P, achieved perplexities) and logs no warnings."""
    tol = 1e-5
    n = d2.shape[0]
    p = np.zeros((n, n))
    achieved = np.empty(n)
    for i in range(n):
        row = np.delete(d2[i], i)
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        perp = np.nan
        weights = None
        for _ in range(50):
            weights = np.exp(-row * beta)
            total = weights.sum()
            if total <= 0.0:
                nearest = row == row.min()
                weights = nearest / nearest.sum()
                perp = float(nearest.sum())
            else:
                perp = float(np.exp(np.log(total) + beta * (weights * row).sum() / total))
                weights = weights / total
            if abs(perp - perplexity) <= tol:
                break
            if perp > perplexity:
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else (beta + beta_min) / 2.0
        achieved[i] = perp
        p[i, np.arange(n) != i] = weights
    return p, achieved


def loop_quantile_normalize(values):
    """The library's former quantile normalization of the rows of `values`:
    sort each row, average the sorted rows into the reference, and give each
    run of tied values the mean of the reference over its positions, one row
    at a time."""
    n_dist, length = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(values, order, axis=1)
    reference = sorted_vals.mean(axis=0)
    out = np.empty_like(values)
    for i in range(n_dist):
        row = sorted_vals[i]
        boundaries = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        run_sums = np.add.reduceat(reference, boundaries)
        run_lengths = np.diff(np.r_[boundaries, length])
        out[i, order[i]] = np.repeat(run_sums / run_lengths, run_lengths)
    return out


def filter_sparse_genes(m, cfg=None):
    """The library's former sparsity filter: drop genes whose zero fraction
    strictly exceeds the threshold, compared as exact fractions."""
    cfg = cfg or FilterConfig()
    if m.n_cells < 1:
        raise DataError("sparsity filter needs at least one cell")
    threshold = Fraction(str(float(cfg.zero_fraction_threshold)))
    max_zeros = threshold.numerator * m.n_cells // threshold.denominator
    keep = (m.n_cells - m.gene_nonzero_count()) <= max_zeros
    out = m.submatrix(np.ones(m.n_cells, dtype=bool), keep)
    removed = tuple(g for g, k in zip(m.gene_ids, keep) if not k)
    return out, FilterTrace(m.n_genes, len(removed), 0, out.n_genes, removed_sparse_ids=removed)


def filter_low_cv(m, cfg=None):
    """The library's former CV filter: drop the floor(fraction * n_genes)
    genes with the smallest CV, ties toward the lower gene index."""
    cfg = cfg or FilterConfig()
    if m.n_cells < 2:
        raise DataError("cv filter needs at least 2 cells")
    k = int(Fraction(str(float(cfg.cv_drop_fraction))) * m.n_genes)
    keep = np.ones(m.n_genes, dtype=bool)
    if k > 0:
        keep[np.argsort(m.gene_stats().cv, kind="stable")[:k]] = False
    out = m.submatrix(np.ones(m.n_cells, dtype=bool), keep)
    removed = tuple(g for g, kept in zip(m.gene_ids, keep) if not kept)
    return out, FilterTrace(m.n_genes, 0, k, out.n_genes, removed_cv_ids=removed)


def svd_pca(x, d):
    """PCA by singular value decomposition of the centred data: the top-d
    right singular vectors, each signed so its largest-magnitude coefficient
    is positive. Returns (scores, components, explained variances)."""
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:d].copy()
    lead = components[np.arange(d), np.abs(components).argmax(axis=1)]
    components *= np.where(lead < 0, -1.0, 1.0)[:, None]
    return centered @ components.T, components, s[:d] ** 2 / (len(x) - 1)


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


def naive_cumulative_detection(m):
    """Running union of detected genes, cell by cell, averaged over every
    ordering of the cells (n <= 6, so at most 720 orderings)."""
    if m.n_cells > 6:
        raise ValueError("every ordering of more than 6 cells is too many")
    genes_by_cell = [set() for _ in range(m.n_cells)]
    for c, g in zip(m.cell_idx.tolist(), m.gene_idx.tolist()):
        genes_by_cell[c].add(g)
    orders = list(itertools.permutations(range(m.n_cells)))
    totals = [0] * m.n_cells
    for order in orders:
        seen = set()
        for step, c in enumerate(order):
            seen |= genes_by_cell[c]
            totals[step] += len(seen)
    # exact integer totals, one rounding each
    return np.array([t / len(orders) for t in totals])


def naive_write_matrix_market(m, path):
    """One formatted line and one write per stored entry."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("%%MatrixMarket matrix coordinate integer general\n")
        fh.write(f"{m.n_cells} {m.n_genes} {m.nnz}\n")
        for cell, gene, cnt in zip(m.cell_idx, m.gene_idx, m.counts):
            fh.write(f"{cell + 1} {gene + 1} {cnt}\n")
