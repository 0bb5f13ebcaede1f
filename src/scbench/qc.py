"""Comparative quality metrics: dropout rate, gene detection, cumulative detection.

Everything here works off stored sparse entries; matrices are never densified.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ._util import seeded_rng
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
    """Mean distinct genes detected among the first x cells, over permutations."""

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
    q1, med, q3 = np.percentile(detected, [25.0, 50.0, 75.0])
    return DetectionStats(detected, float(med), float(q1), float(q3))


def _genes_by_cell(m: CountMatrix) -> list[np.ndarray]:
    order = np.argsort(m.cell_idx, kind="stable")
    per_cell = np.bincount(m.cell_idx, minlength=m.n_cells)
    return np.split(m.gene_idx[order], np.cumsum(per_cell)[:-1])


def cumulative_detection(
    m: CountMatrix,
    n_permutations: int = CUMULATIVE_PERMUTATIONS_DEFAULT,
    seed: int = CUMULATIVE_SEED_DEFAULT,
) -> CumulativeCurve:
    """Running union of detected genes as cells accumulate in random order.

    The curve is averaged over n_permutations cell orderings; permutation p
    draws from a generator sub-seeded with (seed, p), so the result does not
    depend on evaluation order or worker count. When the permutation budget
    covers every ordering of a small matrix (n_cells <= 12 and
    n_cells! <= n_permutations) the average is taken exactly over all
    orderings instead, and n_permutations reports the count actually used.
    """
    if n_permutations < 1:
        raise DataError("need at least one permutation")
    if m.n_cells < 1:
        raise DataError("cumulative detection needs at least one cell")
    genes_by_cell = _genes_by_cell(m)
    if m.n_cells <= 12 and math.factorial(m.n_cells) <= n_permutations:
        orders = [np.array(p) for p in permutations(range(m.n_cells))]
    else:
        orders = [
            seeded_rng(seed, p).permutation(m.n_cells)
            for p in range(n_permutations)
        ]
    totals = np.zeros(m.n_cells, dtype=np.float64)
    for order in orders:
        seen = np.zeros(m.n_genes, dtype=bool)
        running = 0
        for step, c in enumerate(order):
            genes = genes_by_cell[c]
            new = genes[~seen[genes]]
            running += new.size
            seen[new] = True
            totals[step] += running
    return CumulativeCurve(
        np.arange(1, m.n_cells + 1),
        totals / len(orders),
        len(orders),
        seed,
    )
