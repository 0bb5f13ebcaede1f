"""Dimensionality reduction: PCA and exact t-SNE.

PCA is computed by eigendecomposition of the feature covariance or of the
cell Gram matrix, whichever is smaller; the shape alone picks the route.
t-SNE is the exact O(n^2) algorithm started from PCA coordinates: per-point
Gaussian bandwidths calibrated to a target perplexity by a root-find,
symmetrized joint probabilities, Student-t low-dimensional affinities, and
momentum gradient descent with early exaggeration. A run is a pure function
of (input, parameters, seed).

Both O(n^2) parts work on blocks of _BLOCK_ROWS rows, and P exists only as
its upper triangle, one strip P[s:e, s:] per block. A block's rows take
their d^2 from one product with all points, are calibrated by a Newton
root-find on all of them at once (bit for bit a one-row loop) and go
straight into the strips. Each iteration takes 1 + d^2 of a block from one
matrix product with d + 2 inner terms, clamped at 1. KL is sum p log p +
sum p log(1 + d^2) + log Z, read from the same buffer, so no log(q) pass is
needed. No n x n array exists: beside the strips, calibration holds four
_BLOCK_ROWS x n blocks and the step two. Only the descent safeguard reads
the KL, so its log pass runs only from the last exaggerated iterate on (and
at the final iterate); kl_trace covers those iterates, not the exaggeration
phase before them.

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

from ._util import seeded_rng, single_threaded_blas, unpickle_read_only
from .errors import DataError
from .matrix import _BLOCK_ROWS, _as_points, _sq_distances

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

_ENTROPY_TOL = 1e-10
_MAX_NEWTON = 50


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

    __setstate__ = unpickle_read_only("coordinates")

    @property
    def n_points(self) -> int:
        return self.coordinates.shape[0]


@dataclass(frozen=True, eq=False)
class PcaModel:
    components: np.ndarray  # d x n_genes, orthonormal rows
    explained_variance: np.ndarray
    explained_variance_ratio: np.ndarray
    column_means: np.ndarray


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
    positive. Components past the numerical rank explain no variance: the
    covariance route gives null-space directions for them, the Gram route
    zero vectors. It runs with numpy's OpenBLAS on one thread, so the bits do
    not depend on OPENBLAS_NUM_THREADS.
    """
    v = _as_points(x)
    n, g = v.shape
    if n < 2:
        raise DataError("pca needs at least 2 points")
    if not (1 <= d <= min(n, g)):
        raise DataError(f"d={d} out of range for a {n} x {g} matrix")
    method = "covariance" if g <= n else "gram"

    mu = v.mean(axis=0)
    centered = v - mu
    total_var = float(np.einsum("ij,ij->", centered, centered)) / (n - 1)
    if method == "covariance":
        square = centered.T @ centered / (n - 1)
    else:
        square = centered @ centered.T / (n - 1)
    # eigh's input and output take the centred copy's place; it is made again
    del centered
    eigvals_all, eigvecs = np.linalg.eigh(square)
    del square
    centered = v - mu
    eigvals = eigvals_all[::-1][:d]

    if method == "covariance":
        components = eigvecs[:, ::-1][:, :d].T
    else:
        u = eigvecs[:, ::-1][:, :d]
        components = np.zeros((d, g))
        # relative to the top eigenvalue, or where that is itself the
        # rounding of centring, to the input's largest squared entry
        scale = np.abs(eigvals_all).max() if eigvals_all.size else 0.0
        rounding = np.finfo(np.float64).eps * max(v.max(), -v.min()) ** 2
        for i in range(d):
            direction = centered.T @ u[:, i]
            norm = np.linalg.norm(direction)
            if eigvals[i] <= 1e-12 * max(scale, rounding) or norm == 0.0:
                # past the numerical rank: zero components with zero variance
                eigvals[i:] = 0.0
                break
            components[i] = direction / norm

    eigvals = np.maximum(eigvals, 0.0)
    components = _fix_signs(components)
    scores = centered @ components.T
    ratio = eigvals / total_var if total_var > 0 else np.zeros_like(eigvals)
    model = PcaModel(components, eigvals, ratio, mu)
    return Embedding(scores, "pca", {"d": d, "method": method}, seed=0), model


def _calibrate_block(c: np.ndarray, perplexity: float, scratch) -> tuple:
    """Gaussian affinities of a block of points at the target perplexity.

    c is b x m: each point's d^2 to m other points, its own left out; the
    call overwrites it. Returns the b x m affinities p, in c's columns, and
    each row's achieved perplexity. A row's precision beta is the root of
    H = log perplexity, for its entropy H = log S + beta <w, c> / S with
    c = d^2 - min d^2, w = exp(-beta c) and S = sum w (van der Maaten & Hinton
    2008, JMLR 9:2579): -sum p log p for p = w / S, without a log of any
    weight, and the nearest weight is 1, so no row underflows. Newton runs
    in u = log beta, where dH/du = -beta^2 Var_p(c), from beta = 1 / mean c,
    inside the bracket its steps have found, until |H - log perplexity| <=
    _ENTROPY_TOL (or _MAX_NEWTON passes); p is from that pass. Each row does
    the arithmetic of a one-row loop, whatever rows share the call. A row
    with at least perplexity nearest points (duplicates, perplexity <= 1)
    has no finite root: it takes the beta -> infinity limit, equal mass on
    its nearest points, with no Newton pass. scratch is the passes' two
    buffers of m columns, with b rows or more, that a caller keeps.
    """
    b, m = c.shape
    target = np.log(perplexity)
    p = np.empty((b, m))
    c -= c.min(axis=1)[:, None]
    nearest = (c == 0.0).sum(axis=1)
    # no root (a row of equal d^2 has none either): the limit beta -> inf
    limit = (nearest >= perplexity) | (nearest == m)
    for r in np.flatnonzero(limit):
        np.divide(c[r] == 0.0, nearest[r], out=p[r])
    achieved = nearest.astype(np.float64)  # the other rows' are found below
    active = kept = np.flatnonzero(~limit)
    lo, hi = np.full(active.size, -np.inf), np.full(active.size, np.inf)
    w_buf, t_buf = scratch
    # a row whose Newton step is not finite falls back to the bracket
    with np.errstate(divide="ignore", invalid="ignore"):
        u = -np.log(c.mean(axis=1)[active])
        for it in range(_MAX_NEWTON):
            k = active.size
            if not k:
                break
            # the active rows move up to sit compacted at the top of c
            for dst, src in enumerate(kept):
                if dst < src:
                    c[dst] = c[src]
            beta = np.exp(u)
            cc, w, t = c[:k], w_buf[:k], t_buf[:k]
            np.multiply(cc, -beta[:, None], out=w)
            np.exp(w, out=w)
            total = w.sum(axis=1)
            np.multiply(w, cc, out=t)
            m1 = t.sum(axis=1) / total
            h = np.log(total) + beta * m1
            f = h - target
            done = (np.abs(f) <= _ENTROPY_TOL) | (it == _MAX_NEWTON - 1)
            for j in np.flatnonzero(done):
                np.divide(w[j], total[j], out=p[active[j]])
            achieved[active[done]] = np.exp(h[done])
            t *= cc
            m2 = t.sum(axis=1) / total
            slope = beta * beta * (m2 - m1 * m1)
            # H falls as beta grows: f > 0 puts the root above u
            above = f > 0.0
            lo = np.where(above, u, lo)
            hi = np.where(above, hi, u)
            step = u + np.clip(f / slope, -2.0, 2.0)
            fallback = np.where(
                np.isinf(lo) | np.isinf(hi), np.where(above, u + 2.0, u - 2.0), (lo + hi) / 2.0
            )
            u = np.where((step > lo) & (step < hi), step, fallback)
            kept = np.flatnonzero(~done)
            active, u, lo, hi = active[kept], u[kept], lo[kept], hi[kept]
    return p, achieved


def _joint_strips(points: np.ndarray, perplexity: float) -> tuple[list, np.ndarray]:
    """P = (cond + cond.T) / 2n as strips P[s:e, s:] of _BLOCK_ROWS rows, and
    each point's achieved perplexity, for the calibrated rows cond.

    A block's rows are calibrated on their d^2 to the other points, which
    one mask cuts from `_sq_distances` of the rows to all points, and go
    into the strips at once: columns s on around a zero diagonal into its
    own strip, the transpose of its diagonal square onto that, and earlier
    columns, transposed, into the earlier strips. So every entry receives
    cond[i, j] and cond[j, i] onto 0. Points that miss the target are
    logged in index order.
    """
    n = points.shape[0]
    strips, achieved = [], np.empty(n)
    scratch = np.empty((2, min(_BLOCK_ROWS, n), n - 1))
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        b = e - s
        others = ~np.eye(b, n, s, dtype=bool)
        c = _sq_distances(points[s:e], points)[others].reshape(b, n - 1)
        p, achieved[s:e] = _calibrate_block(c, perplexity, scratch)
        del c
        strip = np.zeros((b, n - s))
        strip[others[:, s:]] = p[:, s:].ravel()
        strip[:, :b] += strip[:, :b].T
        for k, earlier in enumerate(strips):
            r = k * _BLOCK_ROWS
            earlier[:, s - r:s - r + b] += p[:, r:r + _BLOCK_ROWS].T
        strips.append(strip)
        del p  # before the next block's is made
    for i in np.flatnonzero(np.abs(np.log(achieved) - np.log(perplexity)) > _ENTROPY_TOL):
        log.warning("perplexity calibration for point %d stopped at %.6f (target %.6f)",
                    i, achieved[i], perplexity)
    for strip in strips:
        strip /= 2.0 * n
    return strips, achieved


def _kl_gradient(strips: list):
    """Exact KL(P || Q) and its gradient, computed over the upper triangle.

    P (symmetric, zero diagonal, sum 1) is _joint_strips' strips, read in
    place. Returns evaluate(y, boost, with_kl) -> (kl, grad), where grad is
    the gradient of the objective with P scaled by boost and kl is the KL of
    y against P, or None unless with_kl; the gradient's bits do not depend
    on with_kl. Each block takes 1 + d^2 from one product of the rows
    [y_i, |y_i|^2 + 1, 1] with the columns [-2 y_j; 1; |y_j|^2], clamped at 1:
    this Gram form rounds at the scale of |y|^2, and coincident points far
    from the origin can cancel to 0. A sum over all pairs is twice the
    strip's sum less that of its square on the diagonal, whose two copies of
    a pair come from different rows and may round apart; the strip past the
    square feeds the rows past the block through its transposed products:

        KL = sum p log p + sum p log(1 + d^2) + log Z
        grad_i = 4 sum_j w_ij (y_i - y_j),  w = boost p t - t^2 / Z

    with t = 1 / (1 + d^2) off the diagonal and Z = sum t, so each block
    contributes (p t) @ [y, 1] and t^2 @ [y, 1]; the KL's middle term is two
    dot products of the strip with log(1 + d^2). The two scratch buffers
    belong to this call, so concurrent runs share nothing.
    """
    n = strips[0].shape[1]
    blocks = list(zip(range(0, n, _BLOCK_ROWS), strips))
    p_log_p = 0.0
    for strip in strips:
        b = strip.shape[0]
        plogp = np.zeros_like(strip)
        np.log(strip, out=plogp, where=strip > 0.0)
        plogp *= strip
        p_log_p += float(plogp[:, :b].sum()) + 2.0 * float(plogp[:, b:].sum())
    # both buffers start on a 64-byte line: a step ran about 10% slower with
    # their starts 8 to 32 bytes apart within one, as two allocations left them
    width = min(_BLOCK_ROWS, n) * n
    width += -width % 8
    buf = np.empty(2 * width + 8)
    base = -(buf.ctypes.data // 8) % 8
    buf_a, buf_b = buf[base:base + width], buf[base + width:base + 2 * width]

    def evaluate(
        y: np.ndarray, boost: float, with_kl: bool = True
    ) -> tuple[float | None, np.ndarray]:
        d = y.shape[1]
        sq = (y * y).sum(axis=1)
        # left[i] @ right[:, j] = |y_i|^2 + 1 + |y_j|^2 - 2 y_i . y_j = 1 + d_ij^2
        left = np.column_stack([y, sq + 1.0, np.ones(n)])
        right = np.vstack([-2.0 * y.T, np.ones(n), sq])
        y1 = np.hstack([y, np.ones((n, 1))])
        attr = np.zeros((n, d + 1))
        rep = np.zeros((n, d + 1))
        z = p_log_num = 0.0
        for s, strip in blocks:
            b, m = strip.shape
            e = s + b
            num = buf_a[:b * m].reshape(b, m)
            tmp = buf_b[:b * m].reshape(b, m)
            np.matmul(left[s:e], right[:, s:], out=num)
            # rounding can take the Gram form below 1 where points coincide
            np.maximum(num, 1.0, out=num)
            if with_kl:
                np.log(num, out=tmp)
                p_log_num += 2.0 * float(np.vdot(strip, tmp)) - float(
                    np.vdot(strip[:, :b], tmp[:, :b]))
            np.reciprocal(num, out=num)
            # the square's diagonal, through the flat buffer
            buf_a[:b * m:m + 1] = 0.0
            z += 2.0 * float(num.sum()) - float(num[:, :b].sum())
            np.multiply(strip, num, out=tmp)
            attr[s:e] += tmp @ y1[s:]
            attr[e:] += tmp[:, b:].T @ y1[s:e]
            np.square(num, out=tmp)
            rep[s:e] += tmp @ y1[s:]
            rep[e:] += tmp[:, b:].T @ y1[s:e]
        w = boost * attr - rep / z
        grad = 4.0 * (y * w[:, d:] - w[:, :d])
        kl = p_log_p + p_log_num + float(np.log(z)) if with_kl else None
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
    max(2, min(TSNE_PCA_DIM_DEFAULT, n - 1, g)) principal components of n
    cells and g genes. The start is the first d principal components of
    `x`, scaled so the leading one has standard deviation 1e-4. Where `x`
    has no columns or that leading coordinate has no spread, the start is
    Gaussian noise of scale 1e-4 drawn from `seed`; the seed matters only
    there. Momentum is 0.5 during the early-exaggeration phase and 0.8
    after; per-coordinate gain factors follow the standard 0.2 up / 0.8 down
    rule.

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
    if n < 3:
        raise DataError("tsne needs at least 3 points")
    if not (perplexity > 0 and 3.0 * perplexity < n):
        raise DataError(f"perplexity {perplexity} infeasible for {n} points "
                        "(need 3*perplexity < n)")
    if d < 1 or iters < 1:
        raise DataError("d and iters must be positive")
    if not exaggeration > 0 or exaggeration_iters < 0:
        raise DataError("exaggeration must be positive and exaggeration_iters >= 0")
    if learning_rate == "auto":
        learning_rate = max(n / (4.0 * exaggeration), LEARNING_RATE_FLOOR)
    elif isinstance(learning_rate, str) or not learning_rate > 0:
        raise DataError(f"learning_rate must be 'auto' or positive, got {learning_rate!r}")

    strips, achieved = _joint_strips(points, perplexity)
    kl_and_gradient = _kl_gradient(strips)

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

        gains = np.where((update * grad) < 0.0, gains + 0.2, gains * 0.8)
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
