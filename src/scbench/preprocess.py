"""Gene filtering and quantile normalization ahead of embedding and clustering.

Filter boundaries are evaluated with exact rational arithmetic against the
decimal value of each configured fraction, so a gene with exactly the
threshold zero fraction is never removed by floating-point accident.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DataError
from .matrix import CountMatrix, ExpressionMatrix

ZERO_FRACTION_DEFAULT = 0.8
CV_DROP_FRACTION_DEFAULT = 0.15


def _as_fraction(x: float) -> Fraction:
    # str() keeps the shortest decimal that round-trips the float, which is
    # the number the caller actually wrote (0.8, 0.15, ...)
    return Fraction(str(float(x)))


@dataclass(frozen=True)
class FilterConfig:
    zero_fraction_threshold: float = ZERO_FRACTION_DEFAULT
    cv_drop_fraction: float = CV_DROP_FRACTION_DEFAULT

    def __post_init__(self):
        for name in ("zero_fraction_threshold", "cv_drop_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise DataError(f"{name} must be in [0, 1), got {v}")


@dataclass(frozen=True)
class FilterTrace:
    genes_in: int
    removed_by_sparsity: int
    removed_by_cv: int
    genes_out: int
    removed_sparse_ids: tuple[str, ...] = field(default=())
    removed_cv_ids: tuple[str, ...] = field(default=())


def filter_sparse_genes(
    m: CountMatrix, cfg: FilterConfig | None = None
) -> tuple[CountMatrix, FilterTrace]:
    """Drop genes whose zero fraction strictly exceeds the threshold."""
    cfg = cfg or FilterConfig()
    if m.n_cells < 1:
        raise DataError("sparsity filter needs at least one cell")
    threshold = _as_fraction(cfg.zero_fraction_threshold)
    nonzero = m.gene_nonzero_count()
    keep = np.array(
        [Fraction(m.n_cells - int(nz), m.n_cells) <= threshold for nz in nonzero],
        dtype=bool,
    )
    removed_ids = tuple(g for g, k in zip(m.gene_ids, keep) if not k)
    out = m.submatrix(np.ones(m.n_cells, dtype=bool), keep)
    trace = FilterTrace(
        genes_in=m.n_genes,
        removed_by_sparsity=int((~keep).sum()),
        removed_by_cv=0,
        genes_out=out.n_genes,
        removed_sparse_ids=removed_ids,
    )
    return out, trace


def filter_low_cv(
    m: CountMatrix, cfg: FilterConfig | None = None
) -> tuple[CountMatrix, FilterTrace]:
    """Drop the floor(fraction * n_genes) genes with the smallest coefficient
    of variation; ties resolve toward the lower gene index."""
    cfg = cfg or FilterConfig()
    if m.n_cells < 2:
        raise DataError("cv filter needs at least 2 cells")
    k = int(_as_fraction(cfg.cv_drop_fraction) * m.n_genes)
    keep = np.ones(m.n_genes, dtype=bool)
    if k > 0:
        cv = m.gene_stats().cv
        drop = np.argsort(cv, kind="stable")[:k]
        keep[drop] = False
    removed_ids = tuple(g for g, kept in zip(m.gene_ids, keep) if not kept)
    out = m.submatrix(np.ones(m.n_cells, dtype=bool), keep)
    trace = FilterTrace(
        genes_in=m.n_genes,
        removed_by_sparsity=0,
        removed_by_cv=int(k),
        genes_out=out.n_genes,
        removed_cv_ids=removed_ids,
    )
    return out, trace


def quantile_normalize(x: ExpressionMatrix, axis: str = "cells") -> ExpressionMatrix:
    """Classic quantile normalization making every distribution identical.

    axis="cells" treats each cell's expression profile as one distribution
    (the in-memory default); axis="genes" normalizes per-gene columns instead.
    Tied values within a distribution receive the average of the reference
    values at the tied positions.
    """
    if axis not in ("cells", "genes"):
        raise DataError(f"unknown normalization axis {axis!r}")
    values = x.values if axis == "cells" else x.values.T
    n_dist, length = values.shape
    if n_dist < 2:
        raise DataError("quantile normalization needs at least 2 distributions")
    if length == 0:
        raise DataError("quantile normalization needs non-empty distributions")

    order = np.argsort(values, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(values, order, axis=1)
    reference = sorted_vals.mean(axis=0)

    out = np.empty_like(values)
    for i in range(n_dist):
        row = sorted_vals[i]
        boundaries = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        run_sums = np.add.reduceat(reference, boundaries)
        run_lengths = np.diff(np.r_[boundaries, length])
        run_means = run_sums / run_lengths
        assigned = np.repeat(run_means, run_lengths)
        out[i, order[i]] = assigned
    if axis == "genes":
        out = out.T
    return x.with_values(out)


def filter_genes(
    m: CountMatrix, cfg: FilterConfig | None = None
) -> tuple[CountMatrix, FilterTrace]:
    """Sparsity filter then CV filter; the trace covers both."""
    cfg = cfg or FilterConfig()
    after_sparse, trace_sparse = filter_sparse_genes(m, cfg)
    after_cv, trace_cv = filter_low_cv(after_sparse, cfg)
    trace = FilterTrace(
        genes_in=m.n_genes,
        removed_by_sparsity=trace_sparse.removed_by_sparsity,
        removed_by_cv=trace_cv.removed_by_cv,
        genes_out=after_cv.n_genes,
        removed_sparse_ids=trace_sparse.removed_sparse_ids,
        removed_cv_ids=trace_cv.removed_cv_ids,
    )
    return after_cv, trace


def preprocess_pipeline(
    m: CountMatrix,
    cfg: FilterConfig | None = None,
    normalize_axis: str = "cells",
    log1p: bool = False,
) -> tuple[ExpressionMatrix, FilterTrace]:
    """filter_genes, densify, then quantile normalize."""
    kept, trace = filter_genes(m, cfg)
    if kept.n_genes == 0:
        raise DataError("all genes removed by filtering; nothing to normalize")
    dense = kept.to_dense()
    if log1p:
        dense = dense.with_values(np.log1p(dense.values))
    return quantile_normalize(dense, axis=normalize_axis), trace
