"""Sparse count-matrix storage and the per-gene statistics downstream stages consume.

Counts live as coordinate triplets kept in a fixed gene-major order (sorted by
gene index, then cell index) so that every reduction over stored entries is
order-deterministic regardless of how the matrix was built.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._util import unpickle_read_only
from .errors import DataError

DENSIFY_BUDGET_DEFAULT = 500_000_000

# ingest rejects counts above this; storage itself is int64
COUNT_MAX = 2**31 - 1
# ingest rejects a declared row or column count above this before it names them
DIM_MAX = 2**31 - 1
# the rows of every blocked n x n or n x g pass: a block holds about 64 x n values
_BLOCK_ROWS = 64


def default_cell_ids(n: int) -> tuple[str, ...]:
    return tuple(f"cell_{i}" for i in range(n))


def default_gene_ids(n: int) -> tuple[str, ...]:
    return tuple(f"gene_{i}" for i in range(n))


def _validate_ids(ids: Sequence[str], n: int, kind: str) -> tuple[str, ...]:
    ids = tuple(ids)
    if len(ids) != n:
        raise DataError(f"{kind} id list has {len(ids)} entries, expected {n}")
    if len(set(ids)) != len(ids):
        raise DataError(f"duplicate {kind} ids")
    return ids


def _check_indices(n_cells: int, n_genes: int, cell: np.ndarray, gene: np.ndarray) -> None:
    if cell.size:
        if cell.min() < 0 or cell.max() >= n_cells:
            raise DataError("cell index out of range")
        if gene.min() < 0 or gene.max() >= n_genes:
            raise DataError("gene index out of range")


@dataclass(frozen=True, eq=False)
class GeneStats:
    """Per-gene summaries over all cells, zeros included.

    sd is the population standard deviation (divisor n). cv = sd / mean where
    mean > 0 and 0 otherwise, so all-zero genes sort as least variable.
    """

    nonzero_cells: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    cv: np.ndarray


@dataclass(frozen=True, eq=False)
class ExpressionMatrix:
    """Dense real-valued cells x genes matrix with row/column identifiers."""

    values: np.ndarray
    cell_ids: tuple[str, ...]
    gene_ids: tuple[str, ...]

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise DataError("expression values must be 2-d")
        if vals.size and not np.isfinite(vals).all():
            raise DataError("expression values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(
            self, "cell_ids", _validate_ids(self.cell_ids, vals.shape[0], "cell")
        )
        object.__setattr__(
            self, "gene_ids", _validate_ids(self.gene_ids, vals.shape[1], "gene")
        )

    __setstate__ = unpickle_read_only("values")

    @classmethod
    def _derived(cls, values, cell_ids, gene_ids):
        """A matrix of values scbench has just computed, under checked ids.

        Like unpickling, it skips __post_init__: `values` is stored as given,
        not copied, and marked read-only, so it must be a finite 2-d float64
        array that nothing else writes to.
        """
        m = cls.__new__(cls)
        m.__setstate__({"values": values, "cell_ids": cell_ids, "gene_ids": gene_ids})
        return m

    @property
    def n_cells(self) -> int:
        return self.values.shape[0]

    @property
    def n_genes(self) -> int:
        return self.values.shape[1]


def _as_points(x) -> np.ndarray:
    """The rows of `x` as a finite 2-d float64 array (an ExpressionMatrix's own values)."""
    if isinstance(x, ExpressionMatrix):
        return x.values
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError("expected a 2-d array of points")
    if not np.isfinite(arr).all():
        raise DataError("points must be finite")
    return arr


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared euclidean distances, rows of `a` by rows of `b`: the Gram form
    |a_i|^2 + |b_j|^2 - 2 a_i . b_j, clamped at 0, which rounds at that scale."""
    d2 = np.add.outer((a * a).sum(axis=1), (b * b).sum(axis=1))
    d2 -= 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0, out=d2)


@dataclass(frozen=True, eq=False)
class CountMatrix:
    """Immutable cells x genes sparse count matrix; stored entries are all >= 1.

    Entry arrays already in canonical order are stored without a sort: a
    read-only one as it is, a writeable one as a copy.
    """

    n_cells: int
    n_genes: int
    cell_idx: np.ndarray
    gene_idx: np.ndarray
    counts: np.ndarray
    cell_ids: tuple[str, ...]
    gene_ids: tuple[str, ...]

    def __post_init__(self):
        cell = np.asarray(self.cell_idx, dtype=np.int64).reshape(-1)
        gene = np.asarray(self.gene_idx, dtype=np.int64).reshape(-1)
        cnt = np.asarray(self.counts, dtype=np.int64).reshape(-1)
        if not (cell.shape == gene.shape == cnt.shape):
            raise DataError("entry arrays must have equal length")
        if self.n_cells < 0 or self.n_genes < 0:
            raise DataError("negative dimension")
        _check_indices(self.n_cells, self.n_genes, cell, gene)
        if cnt.size and cnt.min() < 1:
            raise DataError("stored counts must be >= 1")
        dg, dc = np.diff(gene), np.diff(cell)
        # strictly increasing (gene, cell) keys: canonical order, no duplicates
        if not ((dg > 0) | ((dg == 0) & (dc > 0))).all():
            order = np.lexsort((cell, gene))
            cell, gene, cnt = cell[order], gene[order], cnt[order]
            dup = (np.diff(gene) == 0) & (np.diff(cell) == 0)
            if dup.any():
                k = int(np.flatnonzero(dup)[0])
                raise DataError(f"duplicate entry at cell {cell[k]}, gene {gene[k]}")
        else:
            # a writeable input is the caller's to change; read-only ones are
            # another matrix's entries or the reader's own columns
            cell, gene, cnt = (a.copy() if a.flags.writeable else a for a in (cell, gene, cnt))
        for name, arr in (("cell_idx", cell), ("gene_idx", gene), ("counts", cnt)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(
            self, "cell_ids", _validate_ids(self.cell_ids, self.n_cells, "cell")
        )
        object.__setattr__(
            self, "gene_ids", _validate_ids(self.gene_ids, self.n_genes, "gene")
        )

    __setstate__ = unpickle_read_only("cell_idx", "gene_idx", "counts")

    @classmethod
    def _derived(cls, n_cells, n_genes, cell_idx, gene_idx, counts, cell_ids, gene_ids):
        """A matrix whose entries and ids come from one that passed the checks.

        Like unpickling, it skips __post_init__: the arrays are stored as given
        and marked read-only, so they must already be in canonical order.
        """
        m = cls.__new__(cls)
        m.__setstate__({
            "n_cells": n_cells, "n_genes": n_genes, "cell_idx": cell_idx,
            "gene_idx": gene_idx, "counts": counts, "cell_ids": cell_ids,
            "gene_ids": gene_ids,
        })
        return m

    @classmethod
    def from_triplets(
        cls,
        triplets: Iterable[tuple[int, int, int]] | np.ndarray,
        n_cells: int,
        n_genes: int,
        cell_ids: Sequence[str] | None = None,
        gene_ids: Sequence[str] | None = None,
    ) -> "CountMatrix":
        """Build from (cell, gene, count) rows.

        Zero-count triplets are dropped; duplicate coordinates and
        out-of-range indices are errors.
        """
        if isinstance(triplets, np.ndarray):
            arr = np.asarray(triplets, dtype=np.int64)
        else:
            arr = np.array(list(triplets), dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise DataError("triplets must be (cell, gene, count) rows")
        cell, gene, cnt = arr[:, 0], arr[:, 1], arr[:, 2]
        if cnt.size and cnt.min() < 0:
            raise DataError("negative count in triplets")
        keep = cnt > 0
        if not keep.all():
            # the constructor checks the kept entries; dropped ones must fit too
            _check_indices(n_cells, n_genes, cell, gene)
            cell, gene, cnt = cell[keep], gene[keep], cnt[keep]
        return cls(
            n_cells,
            n_genes,
            cell,
            gene,
            cnt,
            tuple(cell_ids) if cell_ids is not None else default_cell_ids(n_cells),
            tuple(gene_ids) if gene_ids is not None else default_gene_ids(n_genes),
        )

    @property
    def nnz(self) -> int:
        return int(self.counts.size)

    def with_ids(
        self,
        cell_ids: Sequence[str] | None = None,
        gene_ids: Sequence[str] | None = None,
    ) -> "CountMatrix":
        """Same entries, new ids for the axes given (checked like the constructor's)."""
        return CountMatrix._derived(
            self.n_cells,
            self.n_genes,
            self.cell_idx,
            self.gene_idx,
            self.counts,
            self.cell_ids if cell_ids is None else _validate_ids(cell_ids, self.n_cells, "cell"),
            self.gene_ids if gene_ids is None else _validate_ids(gene_ids, self.n_genes, "gene"),
        )

    def submatrix(self, cell_mask: Sequence[bool], gene_mask: Sequence[bool]) -> "CountMatrix":
        """Keep masked rows/columns; relative order, ids and counts are preserved."""
        cm = np.asarray(cell_mask, dtype=bool).reshape(-1)
        gm = np.asarray(gene_mask, dtype=bool).reshape(-1)
        if cm.shape[0] != self.n_cells:
            raise DataError("cell mask length mismatch")
        if gm.shape[0] != self.n_genes:
            raise DataError("gene mask length mismatch")
        new_cell = np.cumsum(cm) - 1
        new_gene = np.cumsum(gm) - 1
        keep = cm[self.cell_idx] & gm[self.gene_idx]
        return CountMatrix._derived(
            int(cm.sum()),
            int(gm.sum()),
            new_cell[self.cell_idx[keep]],
            new_gene[self.gene_idx[keep]],
            self.counts[keep],
            tuple(i for i, m in zip(self.cell_ids, cm) if m),
            tuple(i for i, m in zip(self.gene_ids, gm) if m),
        )

    def gene_nonzero_count(self) -> np.ndarray:
        return np.bincount(self.gene_idx, minlength=self.n_genes)

    def cell_nonzero_count(self) -> np.ndarray:
        return np.bincount(self.cell_idx, minlength=self.n_cells)

    def gene_stats(self) -> GeneStats:
        if self.n_cells < 2:
            raise DataError("gene statistics need at least 2 cells")
        n = self.n_cells
        nz = self.gene_nonzero_count()
        w = self.counts.astype(np.float64)
        total = np.bincount(self.gene_idx, weights=w, minlength=self.n_genes)
        mean = total / n
        dev = w - mean[self.gene_idx]
        ss = np.bincount(self.gene_idx, weights=dev * dev, minlength=self.n_genes)
        var = (ss + (n - nz) * mean * mean) / n
        sd = np.sqrt(np.maximum(var, 0.0))
        safe = np.where(mean > 0, mean, 1.0)
        cv = np.where(mean > 0, sd / safe, 0.0)
        return GeneStats(nz, mean, sd, cv)

    def to_dense(self, budget: int = DENSIFY_BUDGET_DEFAULT) -> ExpressionMatrix:
        if self.n_cells * self.n_genes > budget:
            raise DataError(
                f"dense size {self.n_cells * self.n_genes} exceeds budget {budget}"
            )
        dense = np.zeros((self.n_cells, self.n_genes))
        dense[self.cell_idx, self.gene_idx] = self.counts
        return ExpressionMatrix._derived(dense, self.cell_ids, self.gene_ids)

    def transpose(self) -> "CountMatrix":
        """Swap the cell and gene axes (ids move with their axis)."""
        # gene-major entries stably sorted by cell are the transpose's
        # canonical order; a cell index of 16 bits or less sorts by radix
        key = self.cell_idx.astype(np.min_scalar_type(max(self.n_cells - 1, 0)))
        order = np.argsort(key, kind="stable")
        return CountMatrix._derived(
            self.n_genes,
            self.n_cells,
            self.gene_idx[order],
            self.cell_idx[order],
            self.counts[order],
            self.gene_ids,
            self.cell_ids,
        )


def from_dense(dense: np.ndarray, cell_ids=None, gene_ids=None) -> CountMatrix:
    """Sparse matrix from a dense integer array; zeros are not stored."""
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise DataError("dense input must be 2-d")
    cell, gene = np.nonzero(dense)
    return CountMatrix.from_triplets(
        np.column_stack([cell, gene, dense[cell, gene].astype(np.int64)]),
        dense.shape[0],
        dense.shape[1],
        cell_ids,
        gene_ids,
    )


def vstack_cells(parts: Sequence[CountMatrix]) -> CountMatrix:
    """Concatenate matrices over the same genes along the cell axis."""
    if not parts:
        raise DataError("nothing to stack")
    first = parts[0]
    for p in parts[1:]:
        if p.n_genes != first.n_genes or p.gene_ids != first.gene_ids:
            raise DataError("gene axes differ between stacked matrices")
    offsets = np.cumsum([0] + [p.n_cells for p in parts])
    cell = np.concatenate([p.cell_idx + off for p, off in zip(parts, offsets)])
    gene = np.concatenate([p.gene_idx for p in parts])
    cnt = np.concatenate([p.counts for p in parts])
    cell_ids = tuple(i for p in parts for i in p.cell_ids)
    return CountMatrix(
        int(offsets[-1]), first.n_genes, cell, gene, cnt, cell_ids, first.gene_ids
    )
