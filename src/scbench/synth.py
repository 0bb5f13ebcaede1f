"""Synthetic count data with planted cluster structure.

Counts are negative binomial around per-gene base means drawn from a
log-normal, with each cluster's marker genes shifted up by a fold factor and
an independent per-entry dropout (zero-inflation) applied afterwards. The
generator is a pure function of its configuration and seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import seeded_rng
from .errors import DataError
from .ingest import CellAnnotation
from .matrix import CountMatrix, from_dense


@dataclass(frozen=True)
class SynthConfig:
    n_clusters: int = 3
    cells_per_cluster: int = 100
    n_genes: int = 200
    n_marker_genes_per_cluster: int = 10
    base_mean: float = 5.0
    marker_fold: float = 8.0
    dropout_prob: float = 0.5
    dispersion: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 1 or self.cells_per_cluster < 1 or self.n_genes < 1:
            raise DataError("cluster, cell, and gene counts must be positive")
        if self.n_marker_genes_per_cluster < 0:
            raise DataError("n_marker_genes_per_cluster must be non-negative, "
                            f"got {self.n_marker_genes_per_cluster}")
        if self.n_marker_genes_per_cluster * self.n_clusters > self.n_genes:
            raise DataError("marker genes cannot exceed total genes")
        if not (0.0 <= self.dropout_prob < 1.0):
            raise DataError("dropout_prob must be in [0, 1)")
        for name in ("base_mean", "marker_fold", "dispersion"):
            if not np.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        if self.base_mean <= 0 or self.marker_fold < 1.0 or self.dispersion <= 0:
            raise DataError("base_mean, marker_fold, dispersion out of range")


def generate(
    cfg: SynthConfig, method: str = "synthetic", replicate: str = "r1"
) -> tuple[CountMatrix, np.ndarray, list[CellAnnotation]]:
    """Draw one synthetic sample.

    Returns the counts (cells x genes), the planted cluster label per cell,
    and ready-made cell annotations carrying the given method and replicate.
    Marker blocks are contiguous: cluster c owns genes
    [c*m, (c+1)*m) where m = n_marker_genes_per_cluster.
    """
    rng = seeded_rng(cfg.seed, 0)
    n_cells = cfg.n_clusters * cfg.cells_per_cluster
    labels = np.repeat(np.arange(cfg.n_clusters), cfg.cells_per_cluster)

    gene_factor = rng.lognormal(mean=0.0, sigma=0.5, size=cfg.n_genes)
    mu = np.tile(cfg.base_mean * gene_factor, (n_cells, 1))
    m = cfg.n_marker_genes_per_cluster
    for c in range(cfg.n_clusters):
        rows = labels == c
        mu[np.ix_(rows, np.arange(c * m, (c + 1) * m))] *= cfg.marker_fold

    r = cfg.dispersion
    counts = rng.negative_binomial(r, r / (r + mu)).astype(np.int64)
    if cfg.dropout_prob > 0.0:
        keep = rng.random(size=counts.shape) >= cfg.dropout_prob
        counts = counts * keep

    cell_ids = [f"{method}-{replicate}-c{i:05d}" for i in range(n_cells)]
    gene_ids = [f"g{j:05d}" for j in range(cfg.n_genes)]
    matrix = from_dense(counts, cell_ids=cell_ids, gene_ids=gene_ids)
    annotations = [
        CellAnnotation(cell_ids[i], method, replicate, cell_type=f"type{labels[i]}")
        for i in range(n_cells)
    ]
    return matrix, labels, annotations
