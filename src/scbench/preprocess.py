"""Gene filtering and quantile normalization ahead of embedding and clustering.

Filter boundaries are evaluated with exact rational arithmetic against the
decimal value of each configured fraction, so a gene with exactly the
threshold zero fraction is never removed by floating-point accident.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DataError
from .matrix import _BLOCK_ROWS, CountMatrix, ExpressionMatrix

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
    removed_sparse_ids: tuple[str, ...] = ()
    removed_cv_ids: tuple[str, ...] = ()


def quantile_normalize(x: ExpressionMatrix, axis: str = "cells") -> ExpressionMatrix:
    """Classic quantile normalization making every distribution identical.

    axis="cells" treats each cell's expression profile as one distribution
    (the in-memory default); axis="genes" normalizes per-gene columns instead.
    Tied values within a distribution receive the average of the reference
    values at the tied positions.

    It works on _BLOCK_ROWS distributions at a time, so besides its input and
    output it holds only each value's rank order, in the smallest unsigned
    type that indexes a distribution. The first pass sorts each block and adds
    its sorted rows into the reference one row at a time, in row order, which
    gives the bits of the sorted rows' mean over axis 0. The second gathers
    each block again through the stored order and resolves its ties, one
    array call per step, with the same arithmetic per run of ties as one
    distribution at a time.
    """
    if axis not in ("cells", "genes"):
        raise DataError(f"unknown normalization axis {axis!r}")
    values = x.values if axis == "cells" else x.values.T
    n_dist, length = values.shape
    if n_dist < 2:
        raise DataError("quantile normalization needs at least 2 distributions")
    if length == 0:
        raise DataError("quantile normalization needs non-empty distributions")

    # cells x genes in C order on either axis, as the constructor's copy was
    out = np.empty(x.values.shape)
    dest = out if axis == "cells" else out.T
    order = np.empty(values.shape, dtype=np.min_scalar_type(length - 1))
    reference = None
    for s in range(0, n_dist, _BLOCK_ROWS):
        block = values[s:s + _BLOCK_ROWS]
        order[s:s + _BLOCK_ROWS] = block_order = np.argsort(block, axis=1, kind="stable")
        for row in np.take_along_axis(block, block_order, axis=1):
            if reference is None:
                reference = row.copy()
            else:
                reference += row
    reference /= n_dist

    tiled = np.tile(reference, min(_BLOCK_ROWS, n_dist))
    for s in range(0, n_dist, _BLOCK_ROWS):
        block_order = order[s:s + _BLOCK_ROWS]
        block = np.take_along_axis(values[s:s + _BLOCK_ROWS], block_order, axis=1)
        # a run of ties starts at each row's first value and at every change;
        # runs never cross rows, so each sums the reference at its positions
        starts = np.ones(block.shape, dtype=bool)
        np.not_equal(block[:, 1:], block[:, :-1], out=starts[:, 1:])
        starts = np.flatnonzero(starts)
        run_sums = np.add.reduceat(tiled[:block.size], starts)
        run_lengths = np.diff(starts, append=block.size)
        assigned = np.repeat(run_sums / run_lengths, run_lengths)
        if not np.isfinite(assigned).all():
            raise DataError("expression values must be finite")
        np.put_along_axis(dest[s:s + _BLOCK_ROWS], block_order,
                          assigned.reshape(block.shape), axis=1)
    return ExpressionMatrix._derived(out, x.cell_ids, x.gene_ids)


def filter_genes(
    m: CountMatrix, cfg: FilterConfig | None = None
) -> tuple[CountMatrix, FilterTrace]:
    """Drop sparse genes, then the lowest-CV share of the genes left.

    The sparsity filter drops genes whose zero fraction strictly exceeds the
    threshold. Of the kept genes, the floor(cv_drop_fraction * kept) with the
    smallest coefficient of variation go too; ties resolve toward the lower
    gene index. A gene's statistics sum only its own entries, in entry order,
    so CVs of the unfiltered matrix equal those of the sparsity-filtered one
    bit for bit. The trace covers both filters.
    """
    cfg = cfg or FilterConfig()
    if m.n_cells < 1:
        raise DataError("sparsity filter needs at least one cell")
    if m.n_cells < 2:
        raise DataError("cv filter needs at least 2 cells")
    # zeros / n <= num / den  <=>  zeros <= floor(num * n / den), in Python ints
    threshold = _as_fraction(cfg.zero_fraction_threshold)
    max_zeros = threshold.numerator * m.n_cells // threshold.denominator
    dense_enough = (m.n_cells - m.gene_nonzero_count()) <= max_zeros
    kept = np.flatnonzero(dense_enough)
    k = int(_as_fraction(cfg.cv_drop_fraction) * kept.size)
    keep = dense_enough.copy()
    if k > 0:
        cv = m.gene_stats().cv[kept]
        keep[kept[np.argsort(cv, kind="stable")[:k]]] = False
    low_cv = dense_enough & ~keep
    trace = FilterTrace(
        genes_in=m.n_genes,
        removed_by_sparsity=m.n_genes - kept.size,
        removed_by_cv=k,
        genes_out=kept.size - k,
        removed_sparse_ids=tuple(g for g, d in zip(m.gene_ids, dense_enough) if not d),
        removed_cv_ids=tuple(g for g, low in zip(m.gene_ids, low_cv) if low),
    )
    return m.submatrix(np.ones(m.n_cells, dtype=bool), keep), trace


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
    del kept  # the filtered entries are not held through normalization
    if log1p:
        dense = ExpressionMatrix._derived(
            np.log1p(dense.values), dense.cell_ids, dense.gene_ids
        )
    return quantile_normalize(dense, axis=normalize_axis), trace
