"""Dropout, detection, and cumulative-detection metrics."""
import dataclasses
import math

import numpy as np
import pytest
from conftest import random_dense, random_matrix
from oracles import naive_cumulative_detection

from scbench import (
    CountMatrix,
    DataError,
    cumulative_detection,
    detection_stats,
    dropout_rate,
    from_dense,
    vstack_cells,
)
from scbench._util import quartiles


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


def quartile_corpus():
    rng = np.random.default_rng(44)
    for n in range(1, 6):
        yield np.arange(n)  # ints, no ties
        yield np.full(n, 3)  # all tied
        yield rng.integers(0, 3, n)  # ints with ties
        yield rng.normal(size=n) * 1e3  # floats
        yield np.round(rng.normal(size=n), 1)  # floats with ties
    for n in (6, 7, 8, 9, 10, 11, 101, 1000):
        yield rng.integers(0, 50, n)
        yield rng.normal(size=n) * 10.0 ** rng.integers(-6, 6)
    yield [2, 1, 4]  # a list, unsorted
    yield np.array([0.1, 0.2, 0.7, 1e300, -1e300])


def test_quartiles_equal_np_percentile_bit_for_bit():
    for values in quartile_corpus():
        got = quartiles(values)
        want = np.percentile(values, [25, 50, 75])
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes(), values


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
    curve = cumulative_detection(m)
    assert curve.x.tolist() == [1] and curve.y.tolist() == [2.0]


def test_cumulative_duplicate_cells_flat_after_first():
    m = from_dense(np.tile([1, 0, 3, 1], (4, 1)))
    curve = cumulative_detection(m)
    assert np.array_equal(curve.y, np.full(4, 3.0))


def test_cumulative_curve_holds_only_its_points():
    m = random_matrix(60, 30, 50)
    curve = cumulative_detection(m)
    assert [f.name for f in dataclasses.fields(curve)] == ["x", "y"]
    assert np.array_equal(curve.x, np.arange(1, 31))


def test_cumulative_equals_the_all_orderings_oracle():
    rng = np.random.default_rng(62)
    cases = [
        from_dense(np.zeros((5, 4), dtype=np.int64)),  # no entries
        CountMatrix.from_triplets([(0, 1, 2), (0, 3, 1)], 1, 5),
    ]
    for n_cells in range(1, 7):
        for density in (0.1, 0.4, 0.8):
            dense = random_dense(None, n_cells, 12, density=density, rng=rng)
            dense[:, 0] = 0  # an all-zero gene
            dense[:, 1] = 1  # a gene in every cell
            cases.append(from_dense(dense))
            dense[rng.integers(n_cells)] = 0  # an empty cell
            cases.append(from_dense(dense))
    for m in cases:
        curve = cumulative_detection(m)
        np.testing.assert_allclose(curve.y, naive_cumulative_detection(m), rtol=1e-12, atol=0)


def test_cumulative_monotone_and_ends_at_detectable_genes():
    shapes = ((1, 5, 0.5), (6, 12, 0.3), (15, 40, 0.15), (60, 200, 0.02), (300, 400, 0.05))
    for seed, (n_cells, n_genes, density) in enumerate(shapes * 3):
        m = random_matrix(seed, n_cells, n_genes, density=density)
        y = cumulative_detection(m).y
        assert y.dtype == np.float64 and y.shape == (n_cells,)
        assert y[-1] == int((m.gene_nonzero_count() > 0).sum())
        # y(1) is the mean number of genes a cell detects
        assert math.isclose(y[0], m.nnz / n_cells, rel_tol=1e-12, abs_tol=0)
        # non-decreasing exactly; concave up to the rounding of y(n)
        steps = np.diff(y)
        assert (steps >= 0).all()
        assert (np.diff(steps) <= 8 * np.finfo(np.float64).eps * y[-1]).all()
