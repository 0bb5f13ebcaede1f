"""Dimensionality reduction: PCA and exact t-SNE.

PCA is computed by eigendecomposition of the feature covariance or of the
cell Gram matrix, whichever is smaller; the shape alone picks the route.
t-SNE is the exact O(n^2) algorithm started from PCA coordinates: per-point
Gaussian bandwidths calibrated by bisection to a target perplexity,
symmetrized joint probabilities, Student-t low-dimensional affinities, and
momentum gradient descent with early exaggeration. A run is a pure function
of (input, parameters, seed).

Both O(n^2) parts work on blocks of _BLOCK_ROWS rows. Calibration bisects the
rows of a block in lockstep, each with its own bracket, and gives the same P,
bit for bit, as bisecting one row at a time. Each iteration visits only the
upper triangle: P lives in one strip P[s:e, s:] per block, squared distances
come from coordinate differences (exactly symmetric), and KL is
sum p log p + sum p log1p(d^2) + log Z, so no log(q) pass is needed. Beyond P
the step holds two scratch buffers of _BLOCK_ROWS x n, not n x n arrays.
Only the descent safeguard reads the KL, so its log1p pass runs only from the
last exaggerated iterate on (and at the final iterate); kl_trace covers those
iterates, not the exaggeration phase before them.

The default learning rate "auto" is max(n / (4 * exaggeration), 50): the
n / exaggeration rule of Belkina et al. 2019 (Nat. Commun. 10:5415) and Kobak
& Berens 2019 (Nat. Commun. 10:5416), divided by 4 because the gradient here
keeps its factor 4, and floored like scikit-learn's "auto". After the
exaggeration phase a descent safeguard rejects any step that raises KL: the
optimizer returns to the previous iterate, drops its momentum and gains, and
halves the step for the rest of the run, so the KL trace never rises there.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ._util import seeded_rng, single_threaded_blas
from .errors import DataError
from .matrix import ExpressionMatrix

log = logging.getLogger(__name__)

PERPLEXITY_DEFAULT = 30.0
LEARNING_RATE_DEFAULT = "auto"
LEARNING_RATE_FLOOR = 50.0
ITERS_DEFAULT = 1000
EXAGGERATION_DEFAULT = 12.0
EXAGGERATION_ITERS_DEFAULT = 250
TSNE_PCA_DIM_DEFAULT = 50
MOMENTUM_EARLY = 0.5
MOMENTUM_LATE = 0.8

_PERPLEXITY_TOL = 1e-5
_MAX_BISECTIONS = 50
_BLOCK_ROWS = 64


@dataclass(frozen=True, eq=False)
class Embedding:
    """Low-dimensional coordinates plus the exact recipe that produced them."""

    coordinates: np.ndarray
    method: str
    params: dict
    seed: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        coords = np.array(self.coordinates, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] < 1:
            raise DataError("embedding coordinates must be n x d with d >= 1")
        if not np.isfinite(coords).all():
            raise DataError("embedding coordinates must be finite")
        coords.flags.writeable = False
        object.__setattr__(self, "coordinates", coords)

    def __reduce__(self):
        # unpickle through __init__, so __post_init__ freezes the copy too
        return (
            Embedding,
            (self.coordinates, self.method, self.params, self.seed, self.diagnostics),
        )

    @property
    def n_points(self) -> int:
        return self.coordinates.shape[0]


@dataclass(frozen=True, eq=False)
class PcaModel:
    components: np.ndarray  # d x n_genes, orthonormal rows
    explained_variance: np.ndarray
    explained_variance_ratio: np.ndarray
    column_means: np.ndarray


def _as_points(x) -> np.ndarray:
    if isinstance(x, ExpressionMatrix):
        return x.values
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError("expected a 2-d array of points")
    return arr


def _fix_signs(components: np.ndarray) -> np.ndarray:
    # a C-ordered copy: the bits of `centered @ components.T` depend on it
    out = components.copy()
    lead = out[np.arange(len(out)), np.abs(out).argmax(axis=1)]
    out[lead < 0] *= -1.0
    return out


@single_threaded_blas()
def pca_fit_transform(x, d: int) -> tuple[Embedding, PcaModel]:
    """Project mean-centered data onto its top-d principal directions.

    The shape picks the eigendecomposition: the genes x genes covariance when
    there are no more genes than cells, else the cells x cells Gram matrix;
    params["method"] names the route ("covariance" or "gram"). Component
    signs are fixed so the largest-magnitude coefficient of each component is
    positive. It runs with numpy's OpenBLAS on one thread, so the bits do not
    depend on OPENBLAS_NUM_THREADS.
    """
    v = _as_points(x)
    n, g = v.shape
    if not np.isfinite(v).all():
        raise DataError("pca input must be finite")
    if n < 2:
        raise DataError("pca needs at least 2 points")
    if not (1 <= d <= min(n, g)):
        raise DataError(f"d={d} out of range for a {n} x {g} matrix")
    method = "covariance" if g <= n else "gram"

    mu = v.mean(axis=0)
    centered = v - mu
    total_var = float((centered * centered).sum()) / (n - 1)

    if method == "covariance":
        cov = centered.T @ centered / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        eigvals = eigvals[::-1][:d]
        components = eigvecs[:, ::-1][:, :d].T
    else:
        gram = centered @ centered.T / (n - 1)
        eigvals_all, u = np.linalg.eigh(gram)
        eigvals = eigvals_all[::-1][:d]
        u = u[:, ::-1][:, :d]
        components = np.empty((d, g))
        scale = np.abs(eigvals_all).max() if eigvals_all.size else 0.0
        for i in range(d):
            direction = centered.T @ u[:, i]
            norm = np.linalg.norm(direction)
            if eigvals[i] <= 1e-12 * max(scale, 1.0) or norm == 0.0:
                raise DataError(
                    "gram-path pca requested a component beyond the numerical rank"
                )
            components[i] = direction / norm

    eigvals = np.maximum(eigvals, 0.0)
    components = _fix_signs(components)
    scores = centered @ components.T
    ratio = eigvals / total_var if total_var > 0 else np.zeros_like(eigvals)
    model = PcaModel(components, eigvals, ratio, mu)
    return Embedding(scores, "pca", {"d": d, "method": method}, seed=0), model


def _squared_distances(points: np.ndarray) -> np.ndarray:
    sq = (points * points).sum(axis=1)
    d2 = np.add.outer(sq, sq)
    gram = points @ points.T
    gram *= 2.0
    d2 -= gram
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _conditional_probabilities(
    d2: np.ndarray, perplexity: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row Gaussian affinities whose perplexity matches the target.

    Bandwidths come from bisection on the precision beta. The rows of each
    block of _BLOCK_ROWS bisect in lockstep, each with its own bracket, and a
    row stops once it hits the target; every row does exactly the arithmetic
    of a one-row loop, so P and the achieved perplexities do not depend on the
    blocking. Rows that cannot reach the target (degenerate geometry) keep
    their last bracket value and are logged.
    """
    n = d2.shape[0]
    p = np.zeros((n, n))
    achieved = np.empty(n)
    for s in range(0, n, _BLOCK_ROWS):
        b = min(_BLOCK_ROWS, n - s)
        off_diag = np.ones((b, n), dtype=bool)
        off_diag[np.arange(b), np.arange(s, s + b)] = False
        neg_rows = -d2[s:s + b][off_diag].reshape(b, n - 1)
        weights = np.empty_like(neg_rows)
        d2_max = -neg_rows.min(axis=1)
        perp = np.full(b, np.nan)
        beta = np.ones(b)
        beta_min = np.full(b, -np.inf)
        beta_max = np.full(b, np.inf)
        active = np.arange(b)
        for it in range(_MAX_BISECTIONS):
            if active.size == b:
                w = neg_rows * beta[:, None]
            else:
                w = neg_rows[active]
                w *= beta[active, None]
            np.exp(w, out=w)
            total = w.sum(axis=1)
            np.divide(w, total[:, None], out=w, where=total[:, None] > 0.0)
            # while beta * max d^2 <= 700 every weight is at least
            # e^-700 / (n - 1) > 0. Rows with a zero weight sum only their
            # positive weights, one row at a time, so every sum sees the terms
            # of the one-row loop
            ragged = np.flatnonzero(beta[active] * d2_max[active] > 700.0)
            if ragged.size:
                ragged = ragged[~(w[ragged] > 0.0).all(axis=1)]
            if ragged.size:
                full = np.ones(active.size, dtype=bool)
                full[ragged] = False
                wf = w[full]
                entropy = np.zeros(active.size)
                entropy[full] = -(wf * np.log(wf)).sum(axis=1)
            else:
                entropy = -(w * np.log(w)).sum(axis=1)
            got = np.exp(entropy)
            for r in ragged:
                if total[r] <= 0.0:
                    # exp underflowed everywhere: the large-beta limit puts
                    # equal mass on the row's nearest points and nothing
                    # elsewhere
                    row = neg_rows[active[r]]
                    nearest = row == row.max()
                    w[r] = nearest / nearest.sum()
                    got[r] = float(nearest.sum())
                else:
                    nzw = w[r][w[r] > 0.0]
                    got[r] = np.exp(-(nzw * np.log(nzw)).sum())
            perp[active] = got
            stop = np.abs(got - perplexity) <= _PERPLEXITY_TOL
            if it == _MAX_BISECTIONS - 1:
                stop[:] = True
            # a row's weights are final once it stops bisecting
            if stop.any():
                weights[active[stop]] = w[stop]
            active, got = active[~stop], got[~stop]
            if not active.size:
                break
            bt, lo, hi = beta[active], beta_min[active], beta_max[active]
            up = got > perplexity
            lo = np.where(up, bt, lo)
            hi = np.where(up, hi, bt)
            beta_min[active], beta_max[active] = lo, hi
            beta[active] = np.where(
                up,
                np.where(hi == np.inf, bt * 2.0, (bt + hi) / 2.0),
                np.where(lo == -np.inf, bt / 2.0, (bt + lo) / 2.0),
            )
        for r in np.flatnonzero(np.abs(perp - perplexity) > _PERPLEXITY_TOL):
            log.warning(
                "perplexity calibration for point %d stopped at %.6f (target %.6f)",
                s + r,
                perp[r],
                perplexity,
            )
        achieved[s:s + b] = perp
        p[s:s + b][off_diag] = weights.ravel()
    return p, achieved


def joint_probabilities(x, perplexity: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized t-SNE input affinities and each point's achieved perplexity.

    The affinities sum to 1 over all ordered pairs.
    """
    points = _as_points(x)
    cond, achieved = _conditional_probabilities(_squared_distances(points), perplexity)
    p = cond + cond.T
    p /= 2.0 * points.shape[0]
    return p, achieved


def _kl_gradient(p: np.ndarray):
    """Exact KL(P || Q) and its gradient, computed over the upper triangle.

    P is symmetric with a zero diagonal and sums to 1. It is copied into one
    contiguous strip P[s:e, s:] per block of _BLOCK_ROWS rows, so the caller
    may drop it. Returns evaluate(y, boost, with_kl) -> (kl, grad), where grad
    is the gradient of the objective with P scaled by boost and kl is the KL
    of y against P, or None unless with_kl; the gradient's bits do not depend
    on with_kl. Each block forms d^2 from coordinate differences, which are
    exactly symmetric, so the square on the diagonal counts once and the
    rest of the strip twice, and its transposed products feed the rows past
    the block:

        KL = sum p log p + sum p log1p(d^2) + log Z
        grad_i = 4 sum_j w_ij (y_i - y_j),  w = boost p t - t^2 / Z

    with t = 1 / (1 + d^2) off the diagonal and Z = sum t, so each block
    contributes (p t) @ [y, 1] and t^2 @ [y, 1]. The two scratch buffers
    belong to this call, so concurrent runs share nothing.
    """
    n = p.shape[0]
    blocks = [(s, np.ascontiguousarray(p[s:s + _BLOCK_ROWS, s:]))
              for s in range(0, n, _BLOCK_ROWS)]
    p_log_p = 0.0
    for _, strip in blocks:
        b = strip.shape[0]
        plogp = np.zeros_like(strip)
        np.log(strip, out=plogp, where=strip > 0.0)
        plogp *= strip
        p_log_p += float(plogp[:, :b].sum()) + 2.0 * float(plogp[:, b:].sum())
    width = min(_BLOCK_ROWS, n) * n
    buf_a, buf_b = np.empty(width), np.empty(width)

    def evaluate(
        y: np.ndarray, boost: float, with_kl: bool = True
    ) -> tuple[float | None, np.ndarray]:
        d = y.shape[1]
        yt = np.ascontiguousarray(y.T)
        y1 = np.hstack([y, np.ones((n, 1))])
        attr = np.zeros((n, d + 1))
        rep = np.zeros((n, d + 1))
        z = p_log1p = 0.0
        for s, strip in blocks:
            b, m = strip.shape
            e = s + b
            num = buf_a[:b * m].reshape(b, m)
            tmp = buf_b[:b * m].reshape(b, m)
            np.subtract(yt[0, s:e, None], yt[0, None, s:], out=num)
            np.square(num, out=num)
            for k in range(1, d):
                np.subtract(yt[k, s:e, None], yt[k, None, s:], out=tmp)
                np.square(tmp, out=tmp)
                num += tmp
            if with_kl:
                np.log1p(num, out=tmp)
                tmp *= strip
                p_log1p += float(tmp[:, :b].sum()) + 2.0 * float(tmp[:, b:].sum())
            num += 1.0
            np.reciprocal(num, out=num)
            np.fill_diagonal(num[:, :b], 0.0)
            z += float(num[:, :b].sum()) + 2.0 * float(num[:, b:].sum())
            np.multiply(strip, num, out=tmp)
            attr[s:e] += tmp @ y1[s:]
            attr[e:] += tmp[:, b:].T @ y1[s:e]
            np.square(num, out=tmp)
            rep[s:e] += tmp @ y1[s:]
            rep[e:] += tmp[:, b:].T @ y1[s:e]
        w = boost * attr - rep / z
        grad = 4.0 * (y * w[:, d:] - w[:, :d])
        kl = p_log_p + p_log1p + float(np.log(z)) if with_kl else None
        return kl, grad

    return evaluate


@single_threaded_blas()
def tsne(
    x,
    perplexity: float = PERPLEXITY_DEFAULT,
    d: int = 2,
    seed: int = 0,
    iters: int = ITERS_DEFAULT,
    learning_rate: float | str = LEARNING_RATE_DEFAULT,
    exaggeration: float = EXAGGERATION_DEFAULT,
    exaggeration_iters: int = EXAGGERATION_ITERS_DEFAULT,
) -> Embedding:
    """Exact t-SNE embedding of `x` as given, a pure function of its arguments.

    Any PCA pre-reduction is the caller's: the CLI passes the first
    TSNE_PCA_DIM_DEFAULT principal components. The start is the first d
    principal components of `x`, scaled so the leading one has standard
    deviation 1e-4. Where `x` has no columns or that leading coordinate has
    no spread, the start is Gaussian noise of scale 1e-4 drawn from `seed`;
    the seed matters only there. Momentum is 0.5 during the
    early-exaggeration phase and 0.8 after; per-coordinate gain factors
    follow the standard 0.2 up / 0.8 down rule.

    learning_rate "auto" resolves to max(n / (4 * exaggeration), 50), the
    n / exaggeration rule of Belkina et al. 2019 and Kobak & Berens 2019
    rescaled to this gradient's factor 4 (as in scikit-learn); a number
    overrides it. params["learning_rate"] records the resolved number.

    KL (against the unexaggerated P) is evaluated only where it is read:
    from the last exaggerated iterate (after exaggeration_iters - 1 steps) to
    the end, and always at the final iterate. diagnostics["kl_trace_start"]
    is the first iterate evaluated, min(max(exaggeration_iters - 1, 0),
    iters - 1), and diagnostics["kl_trace"][i] is the KL of the iterate after
    kl_trace_start + i steps. After the exaggeration phase, a step whose
    iterate has a higher KL than the one before is rejected: the run goes
    back to the previous iterate and its gradient, zeroes the momentum,
    resets the gains to 1 and halves the learning rate for the rest of the
    run. kl_trace then repeats the previous KL at that index, so it never
    rises after the exaggeration phase. diagnostics["rejected_steps"] counts
    the rejections. The returned coordinates are the last iterate evaluated,
    so diagnostics["final_kl"] (= kl_trace[-1]) is their KL. Like
    pca_fit_transform, it runs with numpy's OpenBLAS on one thread.
    """
    points = _as_points(x)
    n = points.shape[0]
    if not np.isfinite(points).all():
        raise DataError("tsne input must be finite")
    if n < 3:
        raise DataError("tsne needs at least 3 points")
    if perplexity <= 0 or 3.0 * perplexity >= n:
        raise DataError(
            f"perplexity {perplexity} infeasible for {n} points (need 3*perplexity < n)"
        )
    if d < 1 or iters < 1:
        raise DataError("d and iters must be positive")
    if not exaggeration > 0 or exaggeration_iters < 0:
        raise DataError("exaggeration must be positive and exaggeration_iters >= 0")
    if learning_rate == "auto":
        learning_rate = max(n / (4.0 * exaggeration), LEARNING_RATE_FLOOR)
    elif isinstance(learning_rate, str) or not learning_rate > 0:
        raise DataError(
            f"learning_rate must be 'auto' or positive, got {learning_rate!r}"
        )

    p_joint, achieved = joint_probabilities(points, perplexity)
    kl_and_gradient = _kl_gradient(p_joint)
    del p_joint

    y = np.zeros((n, d))
    if points.shape[1] >= 1:
        k = min(d, points.shape[1], n)
        y[:, :k] = pca_fit_transform(points, k)[0].coordinates
    lead_std = float(np.std(y[:, 0]))
    if lead_std > 0:
        y *= 1e-4 / lead_std
    else:
        y = seeded_rng(seed, 0).normal(0.0, 1e-4, size=(n, d))

    update = np.zeros_like(y)
    gains = np.ones_like(y)
    kl_start = min(max(exaggeration_iters - 1, 0), iters - 1)
    kl_trace = np.empty(iters - kl_start)
    step = learning_rate
    rejected = 0
    y_prev = grad_prev = None
    for t in range(iters):
        boost = exaggeration if t < exaggeration_iters else 1.0
        momentum = MOMENTUM_EARLY if t < exaggeration_iters else MOMENTUM_LATE

        kl, grad = kl_and_gradient(y, boost, t >= kl_start)

        # descent safeguard: the step from y_prev was unexaggerated and raised KL
        if t > exaggeration_iters and kl > kl_trace[t - 1 - kl_start]:
            y, grad, kl = y_prev, grad_prev, kl_trace[t - 1 - kl_start]
            update = np.zeros_like(y)
            gains = np.ones_like(y)
            step *= 0.5
            rejected += 1
        if t >= kl_start:
            kl_trace[t - kl_start] = kl
        if t == iters - 1:
            break
        y_prev, grad_prev = y, grad

        flip = (update * grad) < 0.0
        gains[flip] += 0.2
        gains[~flip] *= 0.8
        np.maximum(gains, 0.01, out=gains)
        update = momentum * update - step * (gains * grad)
        y = y + update
        y = y - y.mean(axis=0)

    params = {
        "perplexity": perplexity,
        "d": d,
        "iters": iters,
        "learning_rate": learning_rate,
        "exaggeration": exaggeration,
        "exaggeration_iters": exaggeration_iters,
        "momentum": [MOMENTUM_EARLY, MOMENTUM_LATE],
    }
    diagnostics = {
        "kl_trace": kl_trace,
        "kl_trace_start": kl_start,
        "achieved_perplexity": achieved,
        "final_kl": float(kl_trace[-1]),
        "rejected_steps": rejected,
    }
    return Embedding(y, "tsne", params, seed, diagnostics)
