"""Dropout, detection, and cumulative-detection metrics."""
import itertools
import math

import numpy as np
import pytest
from conftest import random_dense, random_matrix

from scbench import (
    CountMatrix,
    DataError,
    cumulative_detection,
    detection_stats,
    dropout_rate,
    from_dense,
    vstack_cells,
)


def test_dropout_half_zero():
    m = from_dense(np.array([[1, 0], [0, 2]]))
    assert dropout_rate(m).overall_rate == 0.5


def test_dropout_all_zero_matrix():
    m = CountMatrix.from_triplets([], 3, 4)
    rep = dropout_rate(m)
    assert rep.overall_rate == 1.0
    assert np.array_equal(rep.per_gene_rate, np.ones(4))


def test_dropout_matches_dense_zero_count():
    dense = random_dense(0, 200, 500, density=0.25)
    rep = dropout_rate(from_dense(dense))
    assert rep.overall_rate == (dense == 0).mean()
    assert np.array_equal(rep.per_gene_rate, (dense == 0).mean(axis=0))


def test_dropout_rejects_empty_dimension():
    with pytest.raises(DataError):
        dropout_rate(CountMatrix.from_triplets([], 0, 3))
    with pytest.raises(DataError):
        dropout_rate(CountMatrix.from_triplets([], 3, 0))


def test_per_gene_dropout_mean_is_overall():
    for seed in range(5):
        rep = dropout_rate(random_matrix(seed, 31, 17))
        assert math.isclose(rep.per_gene_rate.mean(), rep.overall_rate, abs_tol=1e-12)


def test_dropout_of_stacked_matrices_is_entry_weighted_mean():
    for seed in range(5):
        a = random_matrix(seed, 11, 13, density=0.3)
        b = random_matrix(seed + 100, 29, 13, density=0.7)
        b = b.with_ids(cell_ids=tuple(f"b{i}" for i in range(29)))
        stacked = dropout_rate(vstack_cells([a, b])).overall_rate
        wa = a.n_cells * a.n_genes
        wb = b.n_cells * b.n_genes
        expected = (
            dropout_rate(a).overall_rate * wa + dropout_rate(b).overall_rate * wb
        ) / (wa + wb)
        assert math.isclose(stacked, expected, abs_tol=1e-12)


def test_detection_counts_genes_with_any_signal():
    m = CountMatrix.from_triplets([(0, g, g + 1) for g in range(7)], 2, 9)
    stats = detection_stats(m)
    assert stats.per_cell_detected.tolist() == [7, 0]


def test_detection_quartiles_interpolate():
    rows = [(c, g, 1) for c in range(5) for g in range(c + 1)]
    m = CountMatrix.from_triplets(rows, 5, 5)
    stats = detection_stats(m)
    assert sorted(stats.per_cell_detected.tolist()) == [1, 2, 3, 4, 5]
    assert (stats.q1, stats.median, stats.q3) == (2.0, 3.0, 4.0)


def test_detection_identical_cells_collapse_quartiles():
    m = from_dense(np.tile([1, 0, 2], (4, 1)))
    stats = detection_stats(m)
    assert stats.q1 == stats.median == stats.q3 == 2.0


def test_detection_requires_cells():
    with pytest.raises(DataError):
        detection_stats(CountMatrix.from_triplets([], 0, 3))


def test_detection_sums_to_entry_count():
    for seed in range(5):
        m = random_matrix(seed, 19, 23)
        assert detection_stats(m).per_cell_detected.sum() == m.nnz


def test_detection_quartiles_match_percentile_rule():
    m = random_matrix(50, 40, 30)
    stats = detection_stats(m)
    q1, med, q3 = np.percentile(stats.per_cell_detected, [25, 50, 75])
    assert (stats.q1, stats.median, stats.q3) == (q1, med, q3)


def test_cumulative_single_cell():
    m = CountMatrix.from_triplets([(0, 0, 1), (0, 2, 4)], 1, 3)
    curve = cumulative_detection(m, n_permutations=5, seed=0)
    assert curve.x.tolist() == [1] and curve.y.tolist() == [2.0]


def test_cumulative_exhausts_small_orderings():
    dense = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    m = from_dense(dense)
    curve = cumulative_detection(m, n_permutations=100, seed=7)
    assert curve.n_permutations == 6

    detected = [set(np.flatnonzero(row)) for row in dense]
    totals = np.zeros(3)
    for order in itertools.permutations(range(3)):
        seen = set()
        for step, c in enumerate(order):
            seen |= detected[c]
            totals[step] += len(seen)
    assert np.allclose(curve.y, totals / 6, atol=1e-12)


def test_cumulative_duplicate_cells_flat_after_first():
    m = from_dense(np.tile([1, 0, 3, 1], (4, 1)))
    curve = cumulative_detection(m, n_permutations=8, seed=1)
    assert np.array_equal(curve.y, np.full(4, 3.0))


def test_cumulative_monotone_and_ends_at_detectable_genes():
    for seed in range(5):
        m = random_matrix(seed, 15, 40, density=0.15)
        curve = cumulative_detection(m, n_permutations=10, seed=seed)
        assert (np.diff(curve.y) >= -1e-12).all()
        detectable = int((m.gene_nonzero_count() > 0).sum())
        assert curve.y[-1] == detectable


def test_cumulative_deterministic():
    m = random_matrix(60, 30, 50)
    a = cumulative_detection(m, n_permutations=12, seed=3)
    b = cumulative_detection(m, n_permutations=12, seed=3)
    c = cumulative_detection(m, n_permutations=12, seed=4)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_cumulative_rejects_bad_budget():
    m = random_matrix(61, 3, 3)
    with pytest.raises(DataError):
        cumulative_detection(m, n_permutations=0)
