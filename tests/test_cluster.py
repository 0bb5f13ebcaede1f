"""k-means, hierarchical clustering, silhouettes, and ARI."""
import math
import warnings

import numpy as np
import pytest
from conftest import traced_peak, unpickle_without_post_init
from oracles import (
    best_two_partition_sse,
    loop_pairwise_distances,
    matrix_silhouette,
    mst_edge_weights,
    naive_agglomerate,
    naive_distances,
    naive_silhouette,
    scan_agglomerate,
    scatter,
)

from scbench import (
    ClusterResult,
    DataError,
    adjusted_rand_index,
    cut_dendrogram,
    hierarchical,
    kmeans,
    pairwise_distances,
    silhouette,
)

LINKAGES = ("single", "complete", "average", "ward")


def heights(dend):
    return np.array([m.height for m in dend.merges])


def blob(seed, n, g=3, scale=1.0):
    return np.random.default_rng(seed).normal(size=(n, g)) * scale


def test_pairwise_identical_rows_are_zero_distance():
    x = np.tile([1.0, 2.0, 5.0], (2, 1))
    assert pairwise_distances(x)[0, 1] == 0.0


def test_pairwise_matches_naive_loop():
    x = blob(0, 10, 4)
    d = pairwise_distances(x)
    assert np.abs(d - naive_distances(x)).max() <= 1e-12
    assert np.array_equal(d, d.T)
    assert np.abs(np.diagonal(d)).max() == 0.0


def test_kmeans_k_equals_n():
    x = blob(1, 6)
    result = kmeans(x, 6, seed=0)
    assert result.sse <= 1e-12
    assert sorted(result.labels.tolist()) == list(range(6))


def test_kmeans_k_one_gives_total_scatter():
    x = blob(2, 12)
    result = kmeans(x, 1, seed=0)
    assert np.allclose(result.centers[0], x.mean(axis=0), atol=1e-12)
    assert math.isclose(result.sse, scatter(x), rel_tol=1e-12)


def test_kmeans_small_instances_reach_exhaustive_optimum():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(int(rng.integers(4, 11)), 2))
        result = kmeans(x, 2, seed=seed)
        opt = best_two_partition_sse(x)
        assert result.sse >= opt - 1e-9
        if result.sse <= opt + 1e-9:
            hits += 1
    assert hits >= 19


def test_kmeans_rejects_bad_k():
    x = blob(3, 5)
    with pytest.raises(DataError):
        kmeans(x, 0)
    with pytest.raises(DataError):
        kmeans(x, 6)


def test_kmeans_splits_identical_points_without_empty_clusters():
    # every 2-way split of identical points is optimal; the repair step must
    # still hand back two nonempty clusters
    x = np.ones((5, 2))
    result = kmeans(x, 2, seed=0)
    assert result.sse == 0.0
    assert len(np.unique(result.labels)) == 2


def test_kmeans_deterministic_and_best_of_restarts():
    x = blob(4, 30)
    a = kmeans(x, 3, seed=7, restarts=5)
    b = kmeans(x, 3, seed=7, restarts=5)
    assert np.array_equal(a.labels, b.labels) and a.sse == b.sse
    assert len(a.restart_sses) == 5
    assert a.sse == a.restart_sses.min()


def test_kmeans_sse_trace_nonincreasing():
    for seed in range(5):
        x = blob(seed + 10, 50, 4)
        result = kmeans(x, 4, seed=seed)
        trace = np.array(result.sse_trace)
        assert (np.diff(trace) <= 1e-9).all()
        assert trace[-1] == result.sse


def test_kmeans_translation_and_scaling_invariance():
    x = blob(5, 25)
    base = kmeans(x, 3, seed=1)
    shifted = kmeans(x + np.array([100.0, -40.0, 7.0]), 3, seed=1)
    assert adjusted_rand_index(base.labels, shifted.labels) == 1.0
    scaled = kmeans(x * 3.7, 3, seed=1)
    assert adjusted_rand_index(base.labels, scaled.labels) == 1.0


def test_hierarchical_two_points():
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    for linkage in LINKAGES:
        dend = hierarchical(x, linkage=linkage)
        assert len(dend.merges) == 1
        expected = 25.0 if linkage == "ward" else 5.0
        assert math.isclose(dend.merges[0].height, expected, rel_tol=1e-12)
        assert (dend.merges[0].node_a, dend.merges[0].node_b) == (0, 1)


def test_hierarchical_single_linkage_line():
    x = np.array([[0.0], [1.0], [10.0]])
    dend = hierarchical(x, linkage="single")
    assert [m.height for m in dend.merges] == [1.0, 9.0]
    assert (dend.merges[0].node_a, dend.merges[0].node_b) == (0, 1)
    assert (dend.merges[1].node_a, dend.merges[1].node_b) == (2, 3)


def test_hierarchical_tie_break_on_unit_square():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    dend = hierarchical(x, linkage="single")
    got = [(m.node_a, m.node_b, m.height, m.size) for m in dend.merges]
    assert got == [(0, 1, 1.0, 2), (2, 3, 1.0, 2), (4, 5, 1.0, 4)]


def test_hierarchical_matches_naive_oracle():
    def check(x, linkage):
        dend = hierarchical(x, linkage=linkage)
        expected = naive_agglomerate(x, linkage)
        got = [(m.node_a, m.node_b) for m in dend.merges]
        assert got == [(a, b) for a, b, _ in expected]
        want = np.array([h for _, _, h in expected])
        assert np.abs(heights(dend) - want).max() <= 1e-9

    rng = np.random.default_rng(20)
    for trial in range(3):
        x = rng.normal(size=(12, 4))
        for linkage in LINKAGES:
            check(x, linkage)
    # integer grids tie many distances; average and ward round differently
    # from the oracle at such ties, so only single and complete take them
    for trial in range(3):
        x = rng.integers(0, 3, size=(12, 2)).astype(float)
        for linkage in ("single", "complete"):
            check(x, linkage)


def test_hierarchical_equals_the_scan_loop():
    # the cache must reproduce the full-scan merge order exactly, heights
    # and sizes included, under every linkage and on heavily tied inputs
    def check(x):
        d = pairwise_distances(x)
        before = x.copy()
        for linkage in LINKAGES:
            got = hierarchical(x, linkage=linkage).merges
            assert got == scan_agglomerate(d, linkage), linkage
        assert np.array_equal(x, before)  # the caller's points are not written to

    rng = np.random.default_rng(70)
    for n in range(2, 41):
        check(rng.normal(size=(n, 3)))
    for trial in range(20):
        # duplicated grid points tie at height 0, other pairs at grid steps
        grid = rng.integers(0, 4, size=(int(rng.integers(2, 40)), 2))
        check(grid.astype(float))
    centers = np.repeat([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]], 75, axis=0)
    check(centers + rng.normal(size=(300, 2)))


def block_bytes(n):
    """Bytes of one _BLOCK_ROWS x n float64 block."""
    return 64 * n * 8


def test_hierarchical_memory_stays_near_one_working_copy():
    # the working copy is the one n x n array; the kernel's strips and the
    # cache's refreshes take row blocks (2.0 blocks measured), so a second
    # whole-matrix array, or a copy of the distances, breaks the bound
    n = 600
    x = blob(80, n, 2)
    for linkage in LINKAGES:
        peak = traced_peak(lambda: hierarchical(x, linkage=linkage))
        assert peak <= 8 * n * n + 3 * block_bytes(n), (linkage, peak / (8 * n * n))


@pytest.mark.parametrize("n", [1500, 3000])
def test_kmeans_and_silhouette_hold_no_n_by_n_array(n):
    # measured at 2.1 blocks of 64 x n; an n x n array of any dtype, even
    # bool, on top of that breaks the bound
    x = blob(81, n, 2)

    def stage():
        silhouette(x, kmeans(x, 4, seed=0).labels)

    assert traced_peak(stage) <= 3 * block_bytes(n)


def test_distance_strips_hold_a_bounded_difference_block_at_50_dims():
    # one row per strip at 50 coordinates: 1.0 block of 64 x n measured, where
    # a 64-row strip's differences alone would hold 50
    n = 1000
    x = blob(82, n, 50)
    labels = np.arange(n) % 4
    assert traced_peak(lambda: silhouette(x, labels)) <= 3 * block_bytes(n)


def test_hierarchical_heights_nondecreasing():
    for seed in range(5):
        x = blob(seed + 30, 20, 4)
        for linkage in LINKAGES:
            dend = hierarchical(x, linkage=linkage)
            assert (np.diff(heights(dend)) >= -1e-9).all()


def test_single_linkage_heights_are_mst_edges():
    for seed in range(5):
        x = blob(seed + 40, 18, 3)
        dend = hierarchical(x, linkage="single")
        assert np.allclose(
            sorted(heights(dend)), mst_edge_weights(pairwise_distances(x)), atol=1e-9
        )


def test_hierarchical_invariant_to_input_order():
    rng = np.random.default_rng(50)
    x = rng.normal(size=(16, 3))
    perm = rng.permutation(16)
    straight = hierarchical(x, linkage="complete")
    shuffled = hierarchical(x[perm], linkage="complete")
    assert np.allclose(
        sorted(heights(straight)), sorted(heights(shuffled)), atol=1e-9
    )
    k = 4
    labels_straight = cut_dendrogram(straight, k)
    labels_shuffled = cut_dendrogram(shuffled, k)
    assert adjusted_rand_index(labels_straight[perm], labels_shuffled) == 1.0


def test_hierarchical_rejects_invalid_input():
    with pytest.raises(DataError, match="linkage"):
        hierarchical(blob(23, 5), linkage="median")
    with pytest.raises(DataError, match="at least 2"):
        hierarchical(np.zeros((1, 2)))
    with pytest.raises(DataError, match="2-d"):
        hierarchical(np.zeros(3))
    with pytest.raises(DataError, match="finite"):
        hierarchical(np.array([[0.0], [np.nan], [1.0]]))


def test_hierarchical_raises_when_a_merge_height_overflows():
    # (0, 0) and (1, 0) sit 5e153 from (s, 0) and (0, s): ward's squares
    # stay finite, but the update after its second merge sums two terms
    # near 1e308, past float64.
    # Points 1e155 apart are past float64 in the distances themselves, under
    # every linkage. At 1e153, single and complete pick among the distances
    # and finish.
    s = 5e153
    far = np.array([[0.0, 0.0], [1.0, 0.0], [s, 0.0], [0.0, s]])
    beyond = np.array([[0.0], [1.0], [1e155]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DataError, match="overflow"):
            hierarchical(far, linkage="ward")
        for linkage in LINKAGES:
            with pytest.raises(DataError, match="overflow"):
                hierarchical(beyond, linkage=linkage)
        with pytest.raises(DataError, match="overflow"):
            silhouette(beyond, [0, 0, 1])
        for linkage in ("single", "complete"):
            merges = hierarchical(np.array([[1e153], [0.0], [1.0]]), linkage=linkage).merges
            assert merges == ((1, 2, 1.0, 2), (0, 3, 1e153, 3)), linkage


def test_cut_identity_and_single_cluster():
    x = blob(24, 7)
    dend = hierarchical(x, linkage="average")
    assert cut_dendrogram(dend, 7).tolist() == list(range(7))
    assert not cut_dendrogram(dend, 1).any()
    with pytest.raises(DataError):
        cut_dendrogram(dend, 0)
    with pytest.raises(DataError):
        cut_dendrogram(dend, 8)


def test_cut_labels_by_smallest_member():
    dend = hierarchical(np.array([[0.0], [1.0], [10.0]]), linkage="single")
    assert cut_dendrogram(dend, 2).tolist() == [0, 0, 1]


def test_cut_supports_known_type_counts():
    x = blob(25, 30, 5)
    dend = hierarchical(x, linkage="ward")
    for k in (9, 10):
        labels = cut_dendrogram(dend, k)
        assert len(np.unique(labels)) == k


def test_cut_to_singletons_breaks_silhouette():
    x = blob(26, 6)
    labels = cut_dendrogram(hierarchical(x, linkage="average"), 6)
    with pytest.raises(DataError, match="singleton"):
        silhouette(x, labels)


def test_silhouette_duplicated_points():
    x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    rep = silhouette(x, [0, 0, 1, 1])
    assert rep.widths.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert rep.mean == 1.0


def test_silhouette_single_cluster_is_error():
    with pytest.raises(DataError, match="at least 2"):
        silhouette(blob(27, 5), np.zeros(5, dtype=int))


def test_silhouette_hand_case():
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    rep = silhouette(x, [0, 0, 1, 1])
    assert math.isclose(rep.widths[0], (10.5 - 1.0) / 10.5, rel_tol=1e-12)
    assert set(rep.per_cluster_mean) == {0, 1}


def test_silhouette_singleton_cluster_scores_zero():
    x = np.array([[0.0], [0.5], [9.0]])
    rep = silhouette(x, [0, 0, 1])
    assert rep.widths[2] == 0.0


def test_silhouette_matches_naive_oracle():
    rng = np.random.default_rng(28)
    for _ in range(10):
        n = int(rng.integers(6, 30))
        x = rng.normal(size=(n, 3))
        k = int(rng.integers(2, min(n - 1, 6) + 1))
        labels = np.r_[np.arange(k), rng.integers(0, k, size=n - k)]
        rng.shuffle(labels)
        rep = silhouette(x, labels)
        assert np.abs(rep.widths - naive_silhouette(naive_distances(x), labels)).max() <= 1e-12
        assert (np.abs(rep.widths) <= 1.0 + 1e-12).all()
        assert math.isclose(rep.mean, rep.widths.mean(), abs_tol=1e-12)


def test_silhouette_relabeling_invariance():
    x = blob(29, 15)
    labels = np.random.default_rng(30).integers(0, 3, size=15)
    labels[:3] = [0, 1, 2]
    a = silhouette(x, labels)
    b = silhouette(x, 7 - labels)
    assert np.array_equal(a.widths, b.widths)


KERNEL_SIZES = [2, 3, 63, 64, 65, 129, 200]


def kernel_points(n, dim):
    # a third of the points one duplicated point
    x = np.random.default_rng(n * 100 + dim).normal(size=(n, dim))
    x[1:n // 3] = x[0]
    return x


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_pairwise_distances_equal_the_row_loop(n):
    # strips of 64, 32 and 1 rows at 1, 2 and 50 coordinates
    for dim in (1, 2, 50):
        x = kernel_points(n, dim)
        assert np.array_equal(pairwise_distances(x), loop_pairwise_distances(x)), dim


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_silhouette_equals_the_matrix_loop(n):
    # labels that are not 0..k-1, with a singleton cluster (label 99)
    rng = np.random.default_rng(n)
    k = max(1, min(4, n - 2))
    labels = 7 * np.r_[np.arange(k), rng.integers(0, k, size=n - 1 - k)] - 3
    rng.shuffle(labels)
    labels = np.r_[labels, 99]
    for dim in (1, 2, 50):
        x = kernel_points(n, dim)
        if n == 2:
            with pytest.raises(DataError, match="singleton"):
                silhouette(x, labels)
            continue
        rep = silhouette(x, labels)
        want = matrix_silhouette(loop_pairwise_distances(x), labels)
        assert np.array_equal(rep.widths, want), dim
        assert rep.widths[-1] == 0.0
        assert rep.mean == float(want.mean())


def test_ari_identical_and_relabeled():
    labels = np.array([0, 0, 1, 1, 2, 2])
    assert adjusted_rand_index(labels, labels) == 1.0
    assert adjusted_rand_index(labels, (labels + 1) % 3) == 1.0


def test_ari_fixed_pair_matches_contingency_formula():
    a = np.array([0, 0, 0, 1, 1, 1])
    b = np.array([0, 0, 1, 1, 2, 2])
    # contingency [[2,1,0],[0,1,2]]: sum_ij=2, sum_a=6, sum_b=3, total=15
    expected = (2 - 6 * 3 / 15) / ((6 + 3) / 2 - 6 * 3 / 15)
    assert math.isclose(adjusted_rand_index(a, b), expected, rel_tol=1e-12)


def test_ari_independent_labelings_center_on_zero():
    rng = np.random.default_rng(32)
    vals = [
        adjusted_rand_index(rng.integers(0, 4, 60), rng.integers(0, 4, 60))
        for _ in range(200)
    ]
    assert abs(np.mean(vals)) < 0.02


def test_ari_trivial_partitions():
    assert adjusted_rand_index(np.zeros(5), np.zeros(5)) == 1.0


def test_ari_length_mismatch():
    with pytest.raises(DataError):
        adjusted_rand_index([0, 1], [0, 1, 2])


def test_cluster_result_stays_read_only_through_pickle(monkeypatch):
    result = kmeans(blob(32, 30), 3, seed=4)
    assert isinstance(result, ClusterResult)
    back = unpickle_without_post_init(result, monkeypatch)
    assert not back.labels.flags.writeable and not back.centers.flags.writeable
    assert np.array_equal(back.labels, result.labels)
    assert np.array_equal(back.centers, result.centers)
    assert (back.sse, back.n_iters, back.seed) == (result.sse, result.n_iters, result.seed)
    assert np.array_equal(back.restart_sses, result.restart_sses)
