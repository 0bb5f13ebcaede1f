"""k-means, hierarchical clustering, silhouettes, and ARI."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import (
    best_two_partition_sse,
    mst_edge_weights,
    naive_agglomerate,
    naive_distances,
    naive_silhouette,
    scan_agglomerate,
    scatter,
)

from scbench import (
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


def cityblock(x):
    return np.abs(x[:, None, :] - x[None, :, :]).sum(axis=2)


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
        dend = hierarchical(pairwise_distances(x), linkage=linkage)
        assert len(dend.merges) == 1
        expected = 25.0 if linkage == "ward" else 5.0
        assert math.isclose(dend.merges[0].height, expected, rel_tol=1e-12)
        assert (dend.merges[0].node_a, dend.merges[0].node_b) == (0, 1)


def test_hierarchical_single_linkage_line():
    x = np.array([[0.0], [1.0], [10.0]])
    dend = hierarchical(pairwise_distances(x), linkage="single")
    assert [m.height for m in dend.merges] == [1.0, 9.0]
    assert (dend.merges[0].node_a, dend.merges[0].node_b) == (0, 1)
    assert (dend.merges[1].node_a, dend.merges[1].node_b) == (2, 3)


def test_hierarchical_tie_break_on_unit_square():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    dend = hierarchical(pairwise_distances(x), linkage="single")
    got = [(m.node_a, m.node_b, m.height, m.size) for m in dend.merges]
    assert got == [(0, 1, 1.0, 2), (2, 3, 1.0, 2), (4, 5, 1.0, 4)]


def test_hierarchical_matches_naive_oracle():
    def check(x, linkage):
        dend = hierarchical(pairwise_distances(x), linkage=linkage)
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
    def check(d):
        for linkage in LINKAGES:
            got = hierarchical(d, linkage=linkage).merges
            assert got == scan_agglomerate(d, linkage), linkage

    rng = np.random.default_rng(70)
    for n in range(2, 41):
        check(pairwise_distances(rng.normal(size=(n, 3))))
    for trial in range(20):
        grid = rng.integers(0, 4, size=(int(rng.integers(2, 40)), 2))
        check(pairwise_distances(grid.astype(float)))
    for trial in range(20):
        n = int(rng.integers(2, 40))
        upper = np.triu(rng.integers(0, 4, size=(n, n)), 1).astype(float)
        check(upper + upper.T)  # zeros off the diagonal tie at height 0
    centers = np.repeat([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]], 75, axis=0)
    check(pairwise_distances(centers + rng.normal(size=(300, 2))))


def test_hierarchical_memory_stays_near_one_working_copy():
    # the cache is filled and refreshed in row blocks; a whole-matrix
    # temporary on top of the working copy would roughly double the peak
    d = pairwise_distances(blob(80, 600, 2))
    for linkage in LINKAGES:
        tracemalloc.start()
        try:
            hierarchical(d, linkage=linkage)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * d.nbytes, (linkage, peak / d.nbytes)


def test_hierarchical_accepts_precomputed_distances():
    # any valid matrix clusters, not only pairwise_distances' euclidean one,
    # and the caller's matrix is left as it was
    d = cityblock(blob(21, 14, 4))
    before = d.copy()
    for linkage in LINKAGES:
        hierarchical(d, linkage=linkage)
        assert np.array_equal(d, before), linkage
    dend = hierarchical(d, linkage="single")
    assert np.allclose(sorted(heights(dend)), mst_edge_weights(d), atol=1e-9)


def test_hierarchical_heights_nondecreasing():
    for seed in range(5):
        x = blob(seed + 30, 20, 4)
        for linkage in LINKAGES:
            dend = hierarchical(pairwise_distances(x), linkage=linkage)
            assert (np.diff(heights(dend)) >= -1e-9).all()


def test_single_linkage_heights_are_mst_edges():
    for seed in range(5):
        x = blob(seed + 40, 18, 3)
        d = pairwise_distances(x)
        dend = hierarchical(d, linkage="single")
        assert np.allclose(sorted(heights(dend)), mst_edge_weights(d), atol=1e-9)


def test_hierarchical_invariant_to_input_order():
    rng = np.random.default_rng(50)
    x = rng.normal(size=(16, 3))
    perm = rng.permutation(16)
    straight = hierarchical(pairwise_distances(x), linkage="complete")
    shuffled = hierarchical(pairwise_distances(x[perm]), linkage="complete")
    assert np.allclose(
        sorted(heights(straight)), sorted(heights(shuffled)), atol=1e-9
    )
    k = 4
    labels_straight = cut_dendrogram(straight, k)
    labels_shuffled = cut_dendrogram(shuffled, k)
    assert adjusted_rand_index(labels_straight[perm], labels_shuffled) == 1.0


def test_hierarchical_rejects_invalid_input():
    with pytest.raises(DataError, match="linkage"):
        hierarchical(pairwise_distances(blob(23, 5)), linkage="median")
    with pytest.raises(DataError, match="at least 2"):
        hierarchical(np.zeros((1, 1)))
    with pytest.raises(DataError, match="square"):
        hierarchical(np.zeros((3, 2)))
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(DataError, match="symmetric"):
        hierarchical(bad)


def test_hierarchical_raises_when_a_merge_height_overflows():
    # ward squares 1e200 and average adds 1.5e308 to itself, both past
    # float64; single and complete only pick among the inputs and finish.
    # The 4-point ward update overflows to inf - inf, a NaN.
    def three(big):
        return np.array([[0.0, big, big], [big, 0.0, 1.0], [big, 1.0, 0.0]])

    s = 1e154
    four = np.array([[0, 1, s, s], [1, 0, s, s], [s, s, 0, s], [s, s, s, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for linkage, d in (("ward", three(1e200)), ("ward", three(1.5e308)),
                           ("average", three(1.5e308)), ("ward", four)):
            with pytest.raises(DataError, match="overflow"):
                hierarchical(d, linkage=linkage)
        for linkage in ("single", "complete"):
            merges = hierarchical(three(1.5e308), linkage=linkage).merges
            assert merges == ((1, 2, 1.0, 2), (0, 3, 1.5e308, 3)), linkage


def test_cut_identity_and_single_cluster():
    x = blob(24, 7)
    dend = hierarchical(pairwise_distances(x), linkage="average")
    assert cut_dendrogram(dend, 7).tolist() == list(range(7))
    assert not cut_dendrogram(dend, 1).any()
    with pytest.raises(DataError):
        cut_dendrogram(dend, 0)
    with pytest.raises(DataError):
        cut_dendrogram(dend, 8)


def test_cut_labels_by_smallest_member():
    d = pairwise_distances(np.array([[0.0], [1.0], [10.0]]))
    dend = hierarchical(d, linkage="single")
    assert cut_dendrogram(dend, 2).tolist() == [0, 0, 1]


def test_cut_supports_known_type_counts():
    x = blob(25, 30, 5)
    dend = hierarchical(pairwise_distances(x), linkage="ward")
    for k in (9, 10):
        labels = cut_dendrogram(dend, k)
        assert len(np.unique(labels)) == k


def test_cut_to_singletons_breaks_silhouette():
    x = blob(26, 6)
    labels = cut_dendrogram(hierarchical(pairwise_distances(x), linkage="average"), 6)
    with pytest.raises(DataError, match="singleton"):
        silhouette(pairwise_distances(x), labels)


def test_silhouette_duplicated_points():
    x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    rep = silhouette(pairwise_distances(x), [0, 0, 1, 1])
    assert rep.widths.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert rep.mean == 1.0


def test_silhouette_single_cluster_is_error():
    with pytest.raises(DataError, match="at least 2"):
        silhouette(pairwise_distances(blob(27, 5)), np.zeros(5, dtype=int))


def test_silhouette_hand_case():
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    rep = silhouette(pairwise_distances(x), [0, 0, 1, 1])
    assert math.isclose(rep.widths[0], (10.5 - 1.0) / 10.5, rel_tol=1e-12)
    assert set(rep.per_cluster_mean) == {0, 1}


def test_silhouette_singleton_cluster_scores_zero():
    x = np.array([[0.0], [0.5], [9.0]])
    rep = silhouette(pairwise_distances(x), [0, 0, 1])
    assert rep.widths[2] == 0.0


def test_silhouette_matches_naive_oracle():
    rng = np.random.default_rng(28)
    for _ in range(10):
        n = int(rng.integers(6, 30))
        x = rng.normal(size=(n, 3))
        k = int(rng.integers(2, min(n - 1, 6) + 1))
        labels = np.r_[np.arange(k), rng.integers(0, k, size=n - k)]
        rng.shuffle(labels)
        rep = silhouette(pairwise_distances(x), labels)
        d = naive_distances(x)
        assert np.abs(rep.widths - naive_silhouette(d, labels)).max() <= 1e-12
        assert (np.abs(rep.widths) <= 1.0 + 1e-12).all()
        assert math.isclose(rep.mean, rep.widths.mean(), abs_tol=1e-12)


def test_silhouette_relabeling_invariance():
    x = blob(29, 15)
    labels = np.random.default_rng(30).integers(0, 3, size=15)
    labels[:3] = [0, 1, 2]
    a = silhouette(pairwise_distances(x), labels)
    b = silhouette(pairwise_distances(x), 7 - labels)
    assert np.array_equal(a.widths, b.widths)


def test_silhouette_precomputed_distances_match():
    # widths follow whatever valid matrix is given, not only euclidean ones
    d = cityblock(blob(31, 12))
    labels = np.r_[np.zeros(6, int), np.ones(6, int)]
    rep = silhouette(d, labels)
    assert np.abs(rep.widths - naive_silhouette(d, labels)).max() <= 1e-12


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
