"""Comparative quality metrics: dropout rate, gene detection, cumulative detection.

Everything here works off stored sparse entries; matrices are never densified.
Nothing here is random: the cumulative curve is an exact expectation, so
these tables do not depend on the seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import quartiles
from .errors import DataError
from .matrix import CountMatrix


@dataclass(frozen=True, eq=False)
class DropoutReport:
    """Zero-entry fractions: one number for the whole matrix, one per gene."""

    overall_rate: float
    per_gene_rate: np.ndarray


@dataclass(frozen=True, eq=False)
class DetectionStats:
    """Genes detected (count >= 1) per cell with quartile summaries.

    Quartiles use linear interpolation between closest ranks.
    """

    per_cell_detected: np.ndarray
    median: float
    q1: float
    q3: float


@dataclass(frozen=True, eq=False)
class CumulativeCurve:
    """Expected distinct genes detected among x cells, over every cell ordering."""

    x: np.ndarray
    y: np.ndarray
    # a class attribute, not a field: perfbench's tracer still reads it to
    # count steps (len(x) * n_permutations); it goes when perfbench reads a
    # run record instead of wrapping scbench's functions
    n_permutations = 1


def dropout_rate(m: CountMatrix) -> DropoutReport:
    if m.n_cells < 1 or m.n_genes < 1:
        raise DataError("dropout rate needs a non-degenerate matrix")
    # zero-count over total, as a single division, so the result is
    # bit-identical to counting zeros on the densified matrix
    total = m.n_cells * m.n_genes
    overall = (total - m.nnz) / total
    per_gene = (m.n_cells - m.gene_nonzero_count()) / m.n_cells
    return DropoutReport(overall, per_gene)


def detection_stats(m: CountMatrix) -> DetectionStats:
    if m.n_cells < 1:
        raise DataError("detection stats need at least one cell")
    detected = m.cell_nonzero_count()
    q1, med, q3 = quartiles(detected)
    return DetectionStats(detected, float(med), float(q1), float(q3))


def cumulative_detection(m: CountMatrix) -> CumulativeCurve:
    """Expected distinct genes detected among x cells drawn without
    replacement, for x = 1..n: the mean over every cell ordering.

    With c_g the number of cells that detect gene g, this is sample-based
    rarefaction (Hurlbert 1971; Colwell et al. 2012):
    E[U(x)] = sum_g [1 - prod_{i<x} (n - c_g - i) / (n - i)].
    Genes are grouped by c_g and the groups added in ascending c_g, so the
    curve is a fixed function of the counts. The product reaches an exact 0
    at x = n - c_g + 1, so y(n) is the number of detected genes exactly.
    """
    n = m.n_cells
    if n < 1:
        raise DataError("cumulative detection needs at least one cell")
    i = np.arange(n)
    y = np.zeros(n, dtype=np.float64)
    for c, k in zip(*np.unique(m.gene_nonzero_count(), return_counts=True)):
        if c > 0:
            y += k * (1.0 - np.cumprod(np.maximum(n - c - i, 0) / (n - i)))
    return CumulativeCurve(np.arange(1, n + 1), y)
