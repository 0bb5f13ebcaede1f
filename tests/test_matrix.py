"""Count-matrix storage, per-gene statistics, and densification."""
import math

import numpy as np
import pytest
from conftest import (
    random_dense,
    random_matrix,
    same_matrix,
    traced_peak,
    triplets,
    unpickle_without_post_init,
)
from oracles import naive_distances

from scbench import CountMatrix, DataError, ExpressionMatrix, from_dense, vstack_cells
from scbench.matrix import _sq_distances


def test_from_triplets_stores_entries():
    m = CountMatrix.from_triplets([(0, 0, 1), (1, 1, 2)], 2, 2)
    assert m.nnz == 2
    assert m.n_cells == 2 and m.n_genes == 2


def test_from_triplets_drops_zero_counts():
    m = CountMatrix.from_triplets([(0, 0, 0)], 1, 1)
    assert m.nnz == 0


def test_from_triplets_rejects_duplicates():
    with pytest.raises(DataError, match="duplicate"):
        CountMatrix.from_triplets([(0, 0, 1), (0, 0, 2)], 1, 1)


def test_from_triplets_rejects_out_of_range_indices():
    with pytest.raises(DataError, match="out of range"):
        CountMatrix.from_triplets([(2, 0, 1)], 2, 1)
    with pytest.raises(DataError, match="out of range"):
        CountMatrix.from_triplets([(0, 5, 1)], 2, 3)


def test_from_triplets_rejects_negative_counts():
    with pytest.raises(DataError, match="negative"):
        CountMatrix.from_triplets([(0, 0, -1)], 1, 1)


def test_id_list_length_must_match_dimension():
    with pytest.raises(DataError):
        CountMatrix.from_triplets([(0, 0, 1)], 1, 1, cell_ids=("a", "b"))


def test_duplicate_ids_rejected():
    with pytest.raises(DataError, match="duplicate"):
        CountMatrix.from_triplets([], 2, 1, cell_ids=("a", "a"))


def test_entries_kept_in_gene_major_order():
    m = CountMatrix.from_triplets(
        [(1, 1, 5), (0, 0, 1), (1, 0, 2), (0, 1, 3)], 2, 2
    )
    assert triplets(m).tolist() == [[0, 0, 1], [1, 0, 2], [0, 1, 3], [1, 1, 5]]


def test_unsorted_triplets_are_put_in_canonical_order():
    rng = np.random.default_rng(65)
    m = random_matrix(65, 30, 20, density=0.3)
    shuffled = triplets(m)[rng.permutation(m.nnz)]
    again = CountMatrix.from_triplets(shuffled, 30, 20)
    assert np.array_equal(triplets(again), triplets(m))
    # the same cell twice in a gene run, or a gene run out of order
    for entries in ([(1, 0, 1), (0, 0, 2), (2, 0, 3)], [(0, 1, 1), (0, 0, 2)]):
        expected = sorted(entries, key=lambda t: (t[1], t[0]))
        got = triplets(CountMatrix.from_triplets(entries, 3, 2)).tolist()
        assert got == [list(t) for t in expected]


def test_sorted_input_with_duplicate_still_raises():
    with pytest.raises(DataError, match=r"duplicate entry at cell 1, gene 0"):
        CountMatrix.from_triplets([(0, 0, 1), (1, 0, 2), (1, 0, 3), (0, 1, 1)], 2, 2)
    with pytest.raises(DataError, match=r"duplicate entry at cell 0, gene 1"):
        CountMatrix(2, 2, [0, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1], ("a", "b"), ("x", "y"))


def test_stored_entries_do_not_alias_caller_arrays():
    cell = np.array([0, 1, 0], dtype=np.int64)
    gene = np.array([0, 0, 1], dtype=np.int64)
    cnt = np.array([4, 5, 6], dtype=np.int64)
    m = CountMatrix(2, 2, cell, gene, cnt, ("a", "b"), ("x", "y"))
    cnt[0] = 99
    cell[0] = 1
    assert triplets(m).tolist() == [[0, 0, 4], [1, 0, 5], [0, 1, 6]]
    # an already-canonical immutable matrix is re-identified without copying
    renamed = m.with_ids(cell_ids=("c", "d"))
    assert np.shares_memory(renamed.counts, m.counts)


def test_stored_counts_all_positive():
    m = random_matrix(0, 15, 9)
    assert m.nnz == 0 or m.counts.min() >= 1


def test_submatrix_identity_masks():
    m = random_matrix(1, 12, 7)
    sub = m.submatrix([True] * 12, [True] * 7)
    assert same_matrix(sub, m)


def test_submatrix_empty_cell_mask():
    m = random_matrix(2, 5, 4)
    sub = m.submatrix([False] * 5, [True] * 4)
    assert sub.n_cells == 0 and sub.n_genes == 4 and sub.nnz == 0


def test_submatrix_matches_triplet_filter():
    rng = np.random.default_rng(3)
    m = from_dense(random_dense(None, 20, 30, rng=rng))
    cm = rng.random(20) < 0.6
    gm = rng.random(30) < 0.6
    cmap = {old: new for new, old in enumerate(np.flatnonzero(cm))}
    gmap = {old: new for new, old in enumerate(np.flatnonzero(gm))}
    expected = sorted(
        (gmap[g], cmap[c], v)
        for c, g, v in triplets(m)
        if c in cmap and g in gmap
    )
    sub = m.submatrix(cm, gm)
    got = [(g, c, v) for c, g, v in triplets(sub)]
    assert got == expected
    assert sub.cell_ids == tuple(np.array(m.cell_ids)[cm])
    assert sub.gene_ids == tuple(np.array(m.gene_ids)[gm])


def test_submatrix_mask_length_mismatch():
    m = random_matrix(4, 5, 4)
    with pytest.raises(DataError, match="mask length"):
        m.submatrix([True] * 4, [True] * 4)
    with pytest.raises(DataError, match="mask length"):
        m.submatrix([True] * 5, [True] * 5)


def test_submatrix_composes():
    rng = np.random.default_rng(5)
    m = from_dense(random_dense(None, 15, 10, rng=rng))
    a = rng.random(15) < 0.7
    b = rng.random(10) < 0.7
    a2 = rng.random(int(a.sum())) < 0.7
    b2 = rng.random(int(b.sum())) < 0.7
    combined_a = a.copy()
    combined_a[np.flatnonzero(a)] = a2
    combined_b = b.copy()
    combined_b[np.flatnonzero(b)] = b2
    twice = m.submatrix(a, b).submatrix(a2, b2)
    once = m.submatrix(combined_a, combined_b)
    assert same_matrix(twice, once)


def test_nonzero_fraction_matches_dense_count():
    dense = random_dense(6, 50, 100)
    dense[:, 3] = 0  # an all-zero gene
    m = from_dense(dense)
    assert np.array_equal(m.gene_nonzero_count() / m.n_cells, (dense != 0).mean(axis=0))


def test_nonzero_fraction_sums_to_entry_count():
    for seed in range(5):
        m = random_matrix(seed, 23, 17)
        assert m.gene_nonzero_count().sum() == m.nnz


def test_gene_stats_constant_gene():
    m = CountMatrix.from_triplets([(0, 0, 2), (1, 0, 2), (2, 0, 2)], 3, 1)
    s = m.gene_stats()
    assert s.mean[0] == 2.0 and s.sd[0] == 0.0 and s.cv[0] == 0.0


def test_gene_stats_mixed_zero_gene():
    m = CountMatrix.from_triplets([(2, 0, 4)], 3, 1)
    s = m.gene_stats()
    expected_sd = math.sqrt((2 * 16 / 9 + 64 / 9) / 3)
    assert math.isclose(s.mean[0], 4 / 3, rel_tol=1e-15)
    assert math.isclose(s.sd[0], expected_sd, rel_tol=1e-12)
    assert math.isclose(s.cv[0], expected_sd * 3 / 4, rel_tol=1e-12)


def test_gene_stats_all_zero_gene_cv_convention():
    m = CountMatrix.from_triplets([(0, 0, 1)], 3, 2)
    s = m.gene_stats()
    assert s.mean[1] == 0.0 and s.cv[1] == 0.0


def test_gene_stats_needs_two_cells():
    m = CountMatrix.from_triplets([(0, 0, 1)], 1, 1)
    with pytest.raises(DataError):
        m.gene_stats()


def test_gene_stats_matches_dense_oracle():
    dense = random_dense(7, 40, 25)
    m = from_dense(dense)
    s = m.gene_stats()
    assert np.array_equal(s.nonzero_cells, (dense != 0).sum(axis=0))
    assert np.allclose(s.mean, dense.mean(axis=0), atol=1e-12)
    assert np.allclose(s.sd, dense.std(axis=0), atol=1e-12)
    mean = dense.mean(axis=0)
    cv = np.where(mean > 0, dense.std(axis=0) / np.where(mean > 0, mean, 1), 0.0)
    assert np.allclose(s.cv, cv, atol=1e-12)


def test_to_dense_places_entries():
    m = CountMatrix.from_triplets([(0, 1, 3)], 2, 2)
    assert m.to_dense().values.tolist() == [[0.0, 3.0], [0.0, 0.0]]


def test_to_dense_empty_matrix():
    m = CountMatrix.from_triplets([], 3, 2)
    assert not m.to_dense().values.any()


def test_to_dense_budget():
    m = random_matrix(8, 10, 10)
    with pytest.raises(DataError, match="budget"):
        m.to_dense(budget=99)


def test_dense_round_trip_identity():
    for seed in range(10):
        dense = random_dense(seed, 17, 11, density=0.3)
        m = from_dense(dense)
        back = m.to_dense()
        assert np.array_equal(back.values, dense)
        assert same_matrix(from_dense(back.values.astype(np.int64)), m)


def test_transpose_swaps_axes_and_ids():
    m = random_matrix(9, 6, 4)
    t = m.transpose()
    assert (t.n_cells, t.n_genes) == (4, 6)
    assert t.cell_ids == m.gene_ids and t.gene_ids == m.cell_ids
    assert np.array_equal(t.to_dense().values, m.to_dense().values.T)
    assert same_matrix(t.transpose(), m)


def test_vstack_concatenates_cells():
    a = random_matrix(10, 5, 8)
    b = from_dense(random_dense(11, 7, 8), gene_ids=a.gene_ids)
    b = b.with_ids(cell_ids=tuple(f"other_{i}" for i in range(7)))
    stacked = vstack_cells([a, b])
    assert stacked.n_cells == 12 and stacked.n_genes == 8
    assert stacked.nnz == a.nnz + b.nnz
    assert np.array_equal(
        stacked.to_dense().values,
        np.vstack([a.to_dense().values, b.to_dense().values]),
    )
    assert stacked.cell_ids == a.cell_ids + b.cell_ids


def test_vstack_rejects_gene_mismatch():
    a = random_matrix(12, 4, 5)
    b = random_matrix(13, 4, 6)
    with pytest.raises(DataError, match="gene axes"):
        vstack_cells([a, b])


def test_expression_matrix_rejects_nonfinite():
    with pytest.raises(DataError, match="finite"):
        ExpressionMatrix(np.array([[1.0, np.nan]]), ("c0",), ("g0", "g1"))


def test_the_constructor_copies_and_to_dense_does_not_copy_again():
    arr = np.arange(6.0).reshape(2, 3)
    em = ExpressionMatrix(arr, ("a", "b"), ("x", "y", "z"))
    assert not np.shares_memory(arr, em.values) and not em.values.flags.writeable
    assert arr.flags.writeable
    arr[0, 0] = 9.0
    assert em.values[0, 0] == 0.0
    # the array to_dense fills is the matrix's own; a copy would double the peak
    m = random_matrix(15, 200, 300)
    assert traced_peak(m.to_dense) <= 1.5 * m.n_cells * m.n_genes * 8


def test_matrices_are_immutable():
    m = random_matrix(14, 4, 4)
    with pytest.raises(ValueError):
        m.counts[0] = 99
    em = m.to_dense()
    with pytest.raises(ValueError):
        em.values[0, 0] = 1.0


def test_count_matrix_stays_read_only_through_pickle(monkeypatch):
    m = random_matrix(31, 9, 7)
    back = unpickle_without_post_init(m, monkeypatch)
    assert same_matrix(back, m)
    assert not any(a.flags.writeable for a in (back.cell_idx, back.gene_idx, back.counts))


def test_expression_matrix_stays_read_only_through_pickle(monkeypatch):
    m = ExpressionMatrix(np.arange(6.0).reshape(2, 3), ("c0", "c1"), ("g0", "g1", "g2"))
    back = unpickle_without_post_init(m, monkeypatch)
    assert not back.values.flags.writeable
    assert np.array_equal(back.values, m.values)
    assert (back.cell_ids, back.gene_ids) == (m.cell_ids, m.gene_ids)


def assert_as_constructed(derived, dense, cell_ids, gene_ids):
    """`derived` stores what the validating constructor makes of these entries."""
    built = from_dense(dense, cell_ids, gene_ids)
    assert same_matrix(derived, built)
    for name in ("cell_idx", "gene_idx", "counts"):
        got, want = getattr(derived, name), getattr(built, name)
        assert got.dtype == want.dtype == np.int64
        assert not got.flags.writeable and not want.flags.writeable
        assert got.flags.c_contiguous


def test_derived_matrices_equal_the_validating_constructor():
    # transpose, submatrix and with_ids skip the entry checks; what they
    # store must still be what checked construction gives
    dense = random_dense(40, 9, 7, density=0.5)
    m = from_dense(dense)
    cells, genes = m.cell_ids, m.gene_ids
    assert_as_constructed(m.transpose(), dense.T, genes, cells)
    cm = np.arange(9) % 3 != 1
    gm = np.arange(7) % 2 == 0
    assert_as_constructed(
        m.submatrix(cm, gm), dense[cm][:, gm],
        [c for c, k in zip(cells, cm) if k], [g for g, k in zip(genes, gm) if k],
    )
    new_cells = [f"c{i}" for i in range(9)]
    assert_as_constructed(m.with_ids(cell_ids=new_cells), dense, new_cells, genes)
    new_genes = [f"g{i}" for i in range(7)]
    assert_as_constructed(m.with_ids(gene_ids=new_genes), dense, cells, new_genes)


def test_with_ids_still_checks_new_ids():
    m = random_matrix(41, 3, 2)
    with pytest.raises(DataError, match="expected 3"):
        m.with_ids(cell_ids=("a", "b"))
    with pytest.raises(DataError, match="expected 2"):
        m.with_ids(gene_ids=("a", "b", "c"))
    with pytest.raises(DataError, match="duplicate cell ids"):
        m.with_ids(cell_ids=("a", "b", "a"))
    with pytest.raises(DataError, match="duplicate gene ids"):
        m.with_ids(gene_ids=("g", "g"))


def test_from_triplets_rejects_out_of_range_indices_of_dropped_zero_counts():
    with pytest.raises(DataError, match="cell index out of range"):
        CountMatrix.from_triplets([(0, 0, 1), (5, 0, 0)], 2, 1)
    with pytest.raises(DataError, match="gene index out of range"):
        CountMatrix.from_triplets([(0, 3, 0)], 2, 1)


@pytest.mark.parametrize("dim", [1, 2, 10, 50])
@pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (1e-3, 10.0), (1e3, 1e4)])
def test_sq_distances_are_the_squared_distances_within_the_gram_forms_rounding(
    dim, scale, offset
):
    x = np.random.default_rng(dim).normal(size=(40, dim)) * scale + offset
    sq = (x * x).sum(axis=1)
    d2 = _sq_distances(x, x)
    assert (d2 >= 0.0).all()
    bound = 8 * np.finfo(np.float64).eps * np.add.outer(sq, sq)
    assert (np.abs(d2 - naive_distances(x) ** 2) <= bound).all()
