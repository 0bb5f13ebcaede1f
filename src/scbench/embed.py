"""Dimensionality reduction: PCA and exact t-SNE.

PCA is computed by eigendecomposition of either the feature covariance or the
cell Gram matrix, whichever is smaller; both routes produce the same model.
t-SNE is the exact O(n^2) algorithm: per-point Gaussian bandwidths calibrated
by bisection to a target perplexity, symmetrized joint probabilities, Student-t
low-dimensional affinities, and momentum gradient descent with early
exaggeration. A run is a pure function of (input, parameters, seed).

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

from ._util import seeded_rng
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

    @property
    def n_points(self) -> int:
        return self.coordinates.shape[0]

    @property
    def dim(self) -> int:
        return self.coordinates.shape[1]


@dataclass(frozen=True, eq=False)
class PcaModel:
    components: np.ndarray  # d x n_genes, orthonormal rows
    explained_variance: np.ndarray
    explained_variance_ratio: np.ndarray
    column_means: np.ndarray


def _as_points(x) -> np.ndarray:
    if isinstance(x, ExpressionMatrix):
        return x.values
    if isinstance(x, Embedding):
        return x.coordinates
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError("expected a 2-d array of points")
    return arr


def _fix_signs(components: np.ndarray) -> np.ndarray:
    out = components.copy()
    for row in out:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return out


def pca_fit_transform(
    x, d: int, method: str = "auto"
) -> tuple[Embedding, PcaModel]:
    """Project mean-centered data onto its top-d principal directions.

    method picks the eigendecomposition route: "covariance" works on the
    genes x genes covariance, "gram" on the cells x cells Gram matrix, and
    "auto" takes whichever is smaller. Component signs are fixed so the
    largest-magnitude coefficient of each component is positive.
    """
    v = _as_points(x)
    n, g = v.shape
    if not np.isfinite(v).all():
        raise DataError("pca input must be finite")
    if n < 2:
        raise DataError("pca needs at least 2 points")
    if not (1 <= d <= min(n, g)):
        raise DataError(f"d={d} out of range for a {n} x {g} matrix")
    if method not in ("auto", "covariance", "gram"):
        raise DataError(f"unknown pca method {method!r}")
    if method == "auto":
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
    embedding = Embedding(
        scores, "pca", {"d": d, "method": method}, seed=0
    )
    return embedding, model


def _squared_distances(points: np.ndarray) -> np.ndarray:
    sq = (points * points).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _conditional_probabilities(
    d2: np.ndarray, perplexity: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row Gaussian affinities whose perplexity matches the target.

    Bandwidths come from bisection on the precision beta; rows that cannot
    reach the target (degenerate geometry) keep their last bracket value and
    are logged.
    """
    n = d2.shape[0]
    p = np.zeros((n, n))
    achieved = np.empty(n)
    for i in range(n):
        row = np.delete(d2[i], i)
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        perp = np.nan
        weights = None
        for _ in range(_MAX_BISECTIONS):
            weights = np.exp(-row * beta)
            total = weights.sum()
            if total <= 0.0:
                # exp underflowed everywhere: the large-beta limit puts equal
                # mass on the row's nearest points and nothing elsewhere
                nearest = row == row.min()
                weights = nearest / nearest.sum()
                perp = float(nearest.sum())
                entropy = float(np.log(perp))
            else:
                weights = weights / total
                nzw = weights[weights > 0.0]
                entropy = float(-(nzw * np.log(nzw)).sum())
                perp = float(np.exp(entropy))
            if abs(perp - perplexity) <= _PERPLEXITY_TOL:
                break
            if perp > perplexity:
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else (beta + beta_min) / 2.0
        if abs(perp - perplexity) > _PERPLEXITY_TOL:
            log.warning(
                "perplexity calibration for point %d stopped at %.6f (target %.6f)",
                i,
                perp,
                perplexity,
            )
        achieved[i] = perp
        p[i, np.arange(n) != i] = weights
    return p, achieved


def _student_t_weights(y: np.ndarray) -> np.ndarray:
    num = 1.0 / (1.0 + _squared_distances(y))
    np.fill_diagonal(num, 0.0)
    return num


def joint_probabilities(x, perplexity: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized t-SNE input affinities and each point's achieved perplexity.

    The affinities sum to 1 over all ordered pairs.
    """
    points = _as_points(x)
    cond, achieved = _conditional_probabilities(_squared_distances(points), perplexity)
    return (cond + cond.T) / (2.0 * points.shape[0]), achieved


def tsne(
    x,
    perplexity: float = PERPLEXITY_DEFAULT,
    d: int = 2,
    seed: int = 0,
    iters: int = ITERS_DEFAULT,
    learning_rate: float | str = LEARNING_RATE_DEFAULT,
    exaggeration: float = EXAGGERATION_DEFAULT,
    exaggeration_iters: int = EXAGGERATION_ITERS_DEFAULT,
    init: str = "pca",
) -> Embedding:
    """Exact t-SNE embedding of `x` as given, deterministic for a given seed.

    Any PCA pre-reduction is the caller's: the CLI passes the first
    TSNE_PCA_DIM_DEFAULT principal components. Momentum is 0.5 during the
    early-exaggeration phase and 0.8 after; per-coordinate gain factors
    follow the standard 0.2 up / 0.8 down rule.

    learning_rate "auto" resolves to max(n / (4 * exaggeration), 50), the
    n / exaggeration rule of Belkina et al. 2019 and Kobak & Berens 2019
    rescaled to this gradient's factor 4 (as in scikit-learn); a number
    overrides it. params["learning_rate"] records the resolved number.

    diagnostics["kl_trace"][t] is the KL (against the unexaggerated P) of the
    iterate after t steps. After the exaggeration phase, a step whose iterate
    has a higher KL than the one before is rejected: the run goes back to the
    previous iterate and its gradient, zeroes the momentum, resets the gains
    to 1 and halves the learning rate for the rest of the run. kl_trace then
    repeats the previous KL at that index, so it never rises after the
    exaggeration phase. diagnostics["rejected_steps"] counts the rejections.
    The returned coordinates are the last iterate evaluated, so
    diagnostics["final_kl"] (= kl_trace[-1]) is their KL.
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
    if init not in ("pca", "random"):
        raise DataError(f"unknown init {init!r}")

    p_joint_, achieved = joint_probabilities(points, perplexity)

    rng = seeded_rng(seed, 0)
    if init == "pca" and points.shape[1] >= 1:
        k = min(d, points.shape[1], n)
        emb, _ = pca_fit_transform(points, k)
        y = np.zeros((n, d))
        y[:, :k] = emb.coordinates
        lead_std = float(np.std(y[:, 0]))
        if lead_std > 0:
            y *= 1e-4 / lead_std
        else:
            y = rng.normal(0.0, 1e-4, size=(n, d))
    else:
        y = rng.normal(0.0, 1e-4, size=(n, d))

    mask = p_joint_ > 0
    const_p = float((p_joint_[mask] * np.log(p_joint_[mask])).sum())

    update = np.zeros_like(y)
    gains = np.ones_like(y)
    kl_trace = np.empty(iters)
    step = learning_rate
    rejected = 0
    y_prev = grad_prev = None
    for t in range(iters):
        boost = exaggeration if t < exaggeration_iters else 1.0
        momentum = MOMENTUM_EARLY if t < exaggeration_iters else MOMENTUM_LATE

        num = _student_t_weights(y)
        q_sum = num.sum()
        q = num / q_sum

        w = (boost * p_joint_ - q) * num
        grad = 4.0 * (y * w.sum(axis=1)[:, None] - w @ y)

        # off-diagonal q is strictly positive; a unit diagonal makes the
        # full-array form exact because the matching p entries are zero
        np.fill_diagonal(q, 1.0)
        kl = const_p - float((p_joint_ * np.log(q)).sum())

        # descent safeguard: the step from y_prev was unexaggerated and raised KL
        if t > exaggeration_iters and kl > kl_trace[t - 1]:
            y, grad, kl = y_prev, grad_prev, kl_trace[t - 1]
            update = np.zeros_like(y)
            gains = np.ones_like(y)
            step *= 0.5
            rejected += 1
        kl_trace[t] = kl
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
        "init": init,
        "momentum": [MOMENTUM_EARLY, MOMENTUM_LATE],
    }
    diagnostics = {
        "kl_trace": kl_trace,
        "achieved_perplexity": achieved,
        "final_kl": float(kl_trace[-1]),
        "rejected_steps": rejected,
    }
    return Embedding(y, "tsne", params, seed, diagnostics)
