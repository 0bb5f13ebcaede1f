"""Gene filters and quantile normalization."""
import numpy as np
import pytest
from conftest import random_dense, random_matrix, same_matrix, traced_peak
from oracles import filter_low_cv, filter_sparse_genes, loop_quantile_normalize

from scbench import (
    DataError,
    ExpressionMatrix,
    FilterConfig,
    FilterTrace,
    filter_genes,
    from_dense,
    preprocess_pipeline,
    quantile_normalize,
)


def matrix_with_zero_fractions(n_cells, fractions):
    """One gene per requested zero fraction; nonzero cells get count 1."""
    cols = []
    for f in fractions:
        nz = n_cells - round(f * n_cells)
        cols.append([1] * nz + [0] * (n_cells - nz))
    return from_dense(np.array(cols, dtype=np.int64).T)


def sparse_filter(m, threshold=0.8):
    return filter_genes(m, FilterConfig(zero_fraction_threshold=threshold, cv_drop_fraction=0.0))


def cv_filter(m, fraction=0.15):
    out, trace = filter_genes(
        m, FilterConfig(zero_fraction_threshold=0.99, cv_drop_fraction=fraction)
    )
    assert trace.removed_by_sparsity == 0
    return out, trace


def oracle_filter(m, cfg):
    after_sparse, t1 = filter_sparse_genes(m, cfg)
    out, t2 = filter_low_cv(after_sparse, cfg)
    return out, FilterTrace(
        m.n_genes, t1.removed_by_sparsity, t2.removed_by_cv, out.n_genes,
        t1.removed_sparse_ids, t2.removed_cv_ids,
    )


def filter_cases():
    """(name, dense counts, config) covering the filters' edge cases."""
    boundary = np.zeros((100, 4), dtype=np.int64)
    boundary[:20, 0] = 1  # exactly 80% zeros: kept
    boundary[:19, 1] = 1  # exactly 81% zeros: removed
    boundary[:, 2] = np.arange(1, 101)
    boundary[:, 3] = 5
    ties = random_dense(40, 12, 30, density=0.7)
    ties[:, 10:16] = ties[:, [3]]  # six genes with one CV
    ties[:, 20:24] = 7  # constant genes: CV 0
    ties[:, 25:28] = 0  # all-zero genes
    yield "boundary", boundary, FilterConfig(0.8, 0.5)
    for fraction in (0.0, 0.15, 0.3, 0.67):
        yield f"ties-{fraction}", ties, FilterConfig(0.5, fraction)
    for seed in range(6):
        dense = random_dense(seed + 50, 15, 60, density=0.1 + 0.15 * seed)
        yield f"random-{seed}", dense, FilterConfig(0.7, 0.2)


@pytest.mark.parametrize("dense, cfg", [pytest.param(d, c, id=n) for n, d, c in filter_cases()])
def test_filter_genes_equals_the_two_filter_composition(dense, cfg):
    m = from_dense(dense)
    out, trace = filter_genes(m, cfg)
    expected, expected_trace = oracle_filter(m, cfg)
    assert same_matrix(out, expected)
    assert trace == expected_trace


def test_filter_genes_keeps_the_error_order():
    with pytest.raises(DataError, match="sparsity filter needs at least one cell"):
        filter_genes(from_dense(np.zeros((0, 3), dtype=np.int64)))
    with pytest.raises(DataError, match="cv filter needs at least 2 cells"):
        filter_genes(from_dense(np.ones((1, 3), dtype=np.int64)))


def test_sparse_filter_boundary_is_strict():
    m = matrix_with_zero_fractions(10, [0.8, 0.9])
    out, trace = sparse_filter(m)
    assert out.gene_ids == ("gene_0",)
    assert trace.removed_by_sparsity == 1
    assert trace.removed_sparse_ids == ("gene_1",)

    # 2 zeros of 3 exceed the written threshold 0.6666666666666666, though
    # the float 2/3 compares equal to it
    m = from_dense(np.array([[1], [0], [0]], dtype=np.int64))
    out, trace = sparse_filter(m, 2 / 3)
    assert out.n_genes == 0 and trace.removed_sparse_ids == ("gene_0",)


def test_sparse_filter_keeps_dense_matrix():
    m = from_dense(np.ones((6, 5), dtype=np.int64))
    out, trace = sparse_filter(m)
    assert same_matrix(out, m) and trace.removed_by_sparsity == 0


def test_sparse_filter_matches_zero_counting():
    for seed in range(5):
        dense = random_dense(seed, 25, 60, density=0.25)
        m = from_dense(dense)
        out, trace = sparse_filter(m, 0.7)
        expected = (dense == 0).mean(axis=0) <= 0.7
        assert out.gene_ids == tuple(np.array(m.gene_ids)[expected])
        assert trace.genes_out == int(expected.sum())
        assert trace.genes_in - trace.removed_by_sparsity == trace.genes_out


def test_sparse_filter_monotone_in_threshold():
    m = random_matrix(9, 20, 50, density=0.3)
    kept = [sparse_filter(m, t)[0].n_genes for t in (0.0, 0.2, 0.4, 0.6, 0.8, 0.99)]
    assert kept == sorted(kept)


def test_filters_commute_with_cell_permutation():
    rng = np.random.default_rng(10)
    dense = random_dense(None, 18, 40, density=0.3, rng=rng)
    perm = rng.permutation(18)
    for cfg in (FilterConfig(0.75, 0.2), FilterConfig(0.75, 0.0), FilterConfig(0.99, 0.2)):
        straight = filter_genes(from_dense(dense), cfg)[0]
        permuted = filter_genes(from_dense(dense[perm]), cfg)[0]
        assert straight.gene_ids == permuted.gene_ids


def test_filter_config_validation():
    with pytest.raises(DataError):
        FilterConfig(zero_fraction_threshold=1.0)
    with pytest.raises(DataError):
        FilterConfig(cv_drop_fraction=-0.1)


def test_cv_filter_keeps_85_of_100():
    m = random_matrix(11, 12, 100, density=0.9)
    out, trace = cv_filter(m, 0.15)
    assert out.n_genes == 85
    assert trace.removed_by_cv == 15


def test_cv_filter_floor_semantics():
    m = random_matrix(12, 10, 10, density=0.9)
    out, _ = cv_filter(m, 0.15)
    assert out.n_genes == 9
    out0, _ = cv_filter(m, 0.05)
    assert out0.n_genes == 10


def test_cv_filter_drops_constant_gene_first():
    dense = random_dense(13, 8, 6, density=0.9)
    dense[:, 3] = 7
    out, trace = cv_filter(from_dense(dense), 0.2)
    assert "gene_3" in trace.removed_cv_ids


def test_cv_filter_breaks_ties_by_index():
    dense = np.column_stack(
        [np.full(6, 4), np.full(6, 9), np.arange(1, 7)]
    ).astype(np.int64)
    out, trace = cv_filter(from_dense(dense), 0.67)
    assert trace.removed_cv_ids == ("gene_0", "gene_1")
    out1, trace1 = cv_filter(from_dense(dense), 0.34)
    assert trace1.removed_cv_ids == ("gene_0",)


def test_cv_filter_matches_sort_oracle():
    for seed in range(5):
        m = random_matrix(seed + 20, 15, 37, density=0.5)
        out, _ = cv_filter(m, 0.3)
        cv = m.gene_stats().cv
        k = int(0.3 * 37)
        dropped = set(np.argsort(cv, kind="stable")[:k].tolist())
        expected = tuple(
            g for i, g in enumerate(m.gene_ids) if i not in dropped
        )
        assert out.gene_ids == expected


def test_cv_filter_needs_two_cells():
    with pytest.raises(DataError):
        filter_genes(random_matrix(14, 1, 5))


def test_quantile_identical_distributions_unchanged():
    row = np.array([3.0, 1.0, 4.0, 1.5])
    em = ExpressionMatrix(
        np.tile(row, (5, 1)),
        tuple(f"c{i}" for i in range(5)),
        tuple(f"g{i}" for i in range(4)),
    )
    out = quantile_normalize(em)
    assert np.allclose(out.values, em.values, atol=1e-12)


def test_quantile_two_by_two():
    em = ExpressionMatrix(
        np.array([[1.0, 3.0], [2.0, 4.0]]), ("c0", "c1"), ("g0", "g1")
    )
    out = quantile_normalize(em)
    assert out.values.tolist() == [[1.5, 3.5], [1.5, 3.5]]


def test_quantile_tie_values_share_rank_average():
    em = ExpressionMatrix(
        np.array([[1.0, 1.0, 2.0], [3.0, 4.0, 5.0]]),
        ("c0", "c1"),
        ("g0", "g1", "g2"),
    )
    out = quantile_normalize(em)
    assert out.values[0].tolist() == [2.25, 2.25, 3.5]
    assert out.values[1].tolist() == [2.0, 2.5, 3.5]


def test_quantile_sorted_rows_identical():
    rng = np.random.default_rng(21)
    em = ExpressionMatrix(
        rng.random((100, 8)) * 50,
        tuple(f"c{i}" for i in range(100)),
        tuple(f"g{i}" for i in range(8)),
    )
    out = quantile_normalize(em)
    ref = np.sort(out.values[0])
    for row in out.values:
        assert np.array_equal(np.sort(row), ref)


def test_quantile_idempotent_on_tie_free_data():
    # the tie policy averages position means, so strict idempotence is only
    # claimed for tie-free (continuous) distributions
    rng = np.random.default_rng(22)
    em = ExpressionMatrix(
        rng.random((40, 12)) * 30,
        tuple(f"c{i}" for i in range(40)),
        tuple(f"g{i}" for i in range(12)),
    )
    once = quantile_normalize(em)
    twice = quantile_normalize(once)
    assert np.abs(twice.values - once.values).max() <= 1e-12


def test_quantile_gene_axis_is_transposed_cells_axis():
    rng = np.random.default_rng(23)
    vals = rng.random((9, 6))
    em = ExpressionMatrix(
        vals, tuple(f"c{i}" for i in range(9)), tuple(f"g{i}" for i in range(6))
    )
    emt = ExpressionMatrix(
        vals.T, tuple(f"g{i}" for i in range(6)), tuple(f"c{i}" for i in range(9))
    )
    by_gene = quantile_normalize(em, axis="genes")
    assert np.array_equal(by_gene.values, quantile_normalize(emt).values.T)


def distributions(kind, n_dist, length, seed):
    rng = np.random.default_rng(seed)
    if kind == "counts":
        depth = rng.integers(1, 4, size=(n_dist, 1))
        return (rng.poisson(0.7, size=(n_dist, length)) * depth).astype(np.float64)
    if kind == "continuous":
        return rng.normal(size=(n_dist, length)) * 10.0
    return rng.integers(0, 3, size=(n_dist, length)).astype(np.float64)


def labelled(values):
    n, g = values.shape
    return ExpressionMatrix(
        values, tuple(f"c{i}" for i in range(n)), tuple(f"g{j}" for j in range(g))
    )


@pytest.mark.parametrize("kind", ["counts", "continuous", "tied"])
@pytest.mark.parametrize("n_dist", [2, 63, 64, 65, 129])
def test_blocked_quantile_normalization_equals_the_row_loop(kind, n_dist):
    # blocks of 64 distributions: short, exact multiples and a 1-row tail
    values = distributions(kind, n_dist, 37, n_dist)
    out = quantile_normalize(labelled(values)).values
    assert np.array_equal(out, loop_quantile_normalize(values))
    by_gene = quantile_normalize(labelled(values.T), axis="genes").values
    assert np.array_equal(by_gene, loop_quantile_normalize(values).T)


@pytest.mark.parametrize("length", [256, 257])
def test_quantile_normalization_equals_the_row_loop_on_either_rank_type(length):
    # each value's rank is held in 8 bits up to 256 values per distribution,
    # in 16 from 257 on; square inputs give both axes that length
    for kind in ("counts", "continuous", "tied"):
        values = distributions(kind, length, length, length)
        out = quantile_normalize(labelled(values))
        assert np.array_equal(out.values, loop_quantile_normalize(values))
        # cells x genes in C order, as the pipeline holds it: the genes axis
        # normalizes strided columns and still returns C-ordered values
        by_gene = quantile_normalize(labelled(values), axis="genes")
        assert np.array_equal(by_gene.values, loop_quantile_normalize(values.T).T)
        for em in (out, by_gene):
            assert em.values.flags.c_contiguous and not em.values.flags.writeable


def test_quantile_normalization_holds_its_output_and_the_ranks():
    # the output, each value's rank in 16 bits and 64-row temporaries; the
    # whole-matrix form held about 4.4 copies of the input, and one more
    # when its result was copied into the returned matrix
    values = distributions("counts", 300, 1000, 5)
    em = labelled(values)
    for axis in ("cells", "genes"):
        assert traced_peak(lambda: quantile_normalize(em, axis=axis)) <= 2.5 * values.nbytes


def test_quantile_rejects_degenerate_input():
    one_row = ExpressionMatrix(np.ones((1, 3)), ("c0",), ("a", "b", "c"))
    with pytest.raises(DataError):
        quantile_normalize(one_row)
    with pytest.raises(DataError):
        quantile_normalize(
            ExpressionMatrix(np.ones((3, 0)), ("x", "y", "z"), ()), axis="cells"
        )
    with pytest.raises(DataError, match="axis"):
        quantile_normalize(one_row, axis="rows")


def test_pipeline_clean_matrix_removes_nothing():
    m = from_dense(random_dense(24, 10, 20, density=1.0))
    normalized, trace = preprocess_pipeline(m, FilterConfig(cv_drop_fraction=0.0))
    assert trace.removed_by_sparsity == 0 and trace.removed_by_cv == 0
    assert normalized.n_genes == 20


def test_pipeline_removes_planted_junk_genes():
    rng = np.random.default_rng(25)
    good = random_dense(None, 20, 14, density=0.8, rng=rng)
    good[good == 0] = 1
    junk = np.zeros((20, 6), dtype=np.int64)
    junk[:3] = rng.integers(1, 5, size=(3, 6))
    dense = np.concatenate([good, junk], axis=1)
    _, trace = preprocess_pipeline(from_dense(dense))
    assert trace.removed_by_sparsity == 6
    assert trace.genes_out == trace.genes_in - 6 - trace.removed_by_cv


def test_pipeline_errors_when_nothing_survives():
    dense = np.zeros((10, 3), dtype=np.int64)
    dense[0] = 1
    with pytest.raises(DataError, match="nothing to normalize"):
        preprocess_pipeline(from_dense(dense))


def test_pipeline_log1p_flag():
    m = random_matrix(26, 12, 15, density=0.9)
    cfg = FilterConfig(cv_drop_fraction=0.1)
    with_flag, _ = preprocess_pipeline(m, cfg, log1p=True)
    kept, _ = filter_genes(m, cfg)
    manual = quantile_normalize(
        ExpressionMatrix(np.log1p(kept.to_dense().values), kept.cell_ids, kept.gene_ids)
    )
    assert np.array_equal(with_flag.values, manual.values)


def test_pipeline_trace_is_consistent():
    for seed in range(5):
        m = random_matrix(seed + 30, 15, 50, density=0.35)
        try:
            _, trace = preprocess_pipeline(m)
        except DataError:
            continue
        assert trace.genes_out == (
            trace.genes_in - trace.removed_by_sparsity - trace.removed_by_cv
        )
        assert len(trace.removed_sparse_ids) == trace.removed_by_sparsity
        assert len(trace.removed_cv_ids) == trace.removed_by_cv
