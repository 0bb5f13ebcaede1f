"""Comparative quality metrics: dropout rate, gene detection, cumulative detection.

Everything here works off stored sparse entries; matrices are never densified.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import quartiles, seeded_rng
from .errors import DataError
from .matrix import CountMatrix

CUMULATIVE_PERMUTATIONS_DEFAULT = 20
CUMULATIVE_SEED_DEFAULT = 42


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
    """Mean distinct genes detected among the first x cells, over seeded orderings."""

    x: np.ndarray
    y: np.ndarray
    n_permutations: int
    seed: int


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


def cumulative_detection(
    m: CountMatrix,
    n_permutations: int = CUMULATIVE_PERMUTATIONS_DEFAULT,
    seed: int = CUMULATIVE_SEED_DEFAULT,
) -> CumulativeCurve:
    """Running union of detected genes as cells accumulate in random order.

    The curve is averaged over n_permutations cell orderings, however few
    cells there are; permutation p draws from a generator sub-seeded with
    (seed, p), so the result does not depend on evaluation order or worker
    count.
    """
    if n_permutations < 1:
        raise DataError("need at least one permutation")
    if m.n_cells < 1:
        raise DataError("cumulative detection needs at least one cell")
    # entries are gene-major, so each detected gene is one run of entries
    gene_starts = np.flatnonzero(np.diff(m.gene_idx, prepend=-1))
    steps = np.arange(m.n_cells)
    rank = np.empty(m.n_cells, dtype=np.int64)
    totals = np.zeros(m.n_cells, dtype=np.float64)
    for p in range(n_permutations):
        rank[seeded_rng(seed, p).permutation(m.n_cells)] = steps
        # the step at which each detected gene is first seen
        first = np.minimum.reduceat(rank[m.cell_idx], gene_starts)
        # exact integer counts added in permutation order: the sum is the
        # same float64 value a per-cell running union gives
        totals += np.cumsum(np.bincount(first, minlength=m.n_cells))
    return CumulativeCurve(
        np.arange(1, m.n_cells + 1),
        totals / n_permutations,
        n_permutations,
        seed,
    )
