"""PCA and exact t-SNE."""
import logging
import math

import numpy as np
import pytest
from oracles import kl_divergence

from scbench import DataError, pca_fit_transform, tsne
from scbench.embed import Embedding, joint_probabilities


def seeded_points(seed, n, g, scale=1.0):
    return np.random.default_rng(seed).normal(size=(n, g)) * scale


def test_pca_collinear_points():
    t = np.linspace(-3, 3, 9)
    x = np.column_stack([t, t])
    emb, model = pca_fit_transform(x, 1)
    assert np.allclose(model.components[0], [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)
    assert math.isclose(model.explained_variance_ratio[0], 1.0, abs_tol=1e-12)
    assert emb.coordinates.shape == (9, 1)


def test_pca_full_rank_captures_total_variance():
    x = seeded_points(0, 12, 5)
    _, model = pca_fit_transform(x, 5)
    centered = x - x.mean(axis=0)
    total = (centered * centered).sum() / 11
    assert math.isclose(model.explained_variance.sum(), total, rel_tol=1e-8)
    assert math.isclose(model.explained_variance_ratio.sum(), 1.0, abs_tol=1e-8)


def test_pca_matches_naive_eigendecomposition():
    x = seeded_points(1, 10, 5)
    _, model = pca_fit_transform(x, 4)
    cov = np.cov(x, rowvar=False, ddof=1)
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert np.allclose(model.explained_variance, eigvals[:4], atol=1e-8)


def test_pca_components_orthonormal_and_sorted():
    x = seeded_points(2, 30, 8)
    _, model = pca_fit_transform(x, 8)
    gram = model.components @ model.components.T
    assert np.abs(gram - np.eye(8)).max() < 1e-8
    assert (np.diff(model.explained_variance) <= 1e-12).all()


def test_pca_first_component_dominates_random_directions():
    x = seeded_points(3, 40, 6)
    _, model = pca_fit_transform(x, 1)
    centered = x - x.mean(axis=0)
    rng = np.random.default_rng(99)
    for _ in range(200):
        u = rng.normal(size=6)
        u /= np.linalg.norm(u)
        var = ((centered @ u) ** 2).sum() / 39
        assert var <= model.explained_variance[0] + 1e-10


def test_pca_full_reconstruction():
    x = seeded_points(4, 15, 7)
    emb, model = pca_fit_transform(x, 7)
    rebuilt = emb.coordinates @ model.components + model.column_means
    assert np.abs(rebuilt - x).max() < 1e-8


def test_pca_scores_follow_cell_permutation():
    x = seeded_points(5, 20, 6)
    perm = np.random.default_rng(6).permutation(20)
    emb, _ = pca_fit_transform(x, 3)
    emb_perm, _ = pca_fit_transform(x[perm], 3)
    assert np.abs(emb.coordinates[perm] - emb_perm.coordinates).max() < 1e-8


def test_pca_variances_invariant_to_feature_rotation():
    x = seeded_points(7, 25, 5)
    q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(5, 5)))
    _, straight = pca_fit_transform(x, 5)
    _, rotated = pca_fit_transform(x @ q, 5)
    assert np.abs(straight.explained_variance - rotated.explained_variance).max() < 1e-8


def test_pca_covariance_and_gram_paths_agree():
    for n, g in ((8, 20), (20, 8)):
        x = seeded_points(9, n, g)
        d = min(n - 1, g)
        emb_cov, m_cov = pca_fit_transform(x, d, method="covariance")
        emb_gram, m_gram = pca_fit_transform(x, d, method="gram")
        assert np.abs(m_cov.explained_variance - m_gram.explained_variance).max() < 1e-8
        assert np.abs(m_cov.components - m_gram.components).max() < 1e-8
        assert np.abs(emb_cov.coordinates - emb_gram.coordinates).max() < 1e-8


def test_pca_leading_scores_do_not_depend_on_d():
    # the CLI's PCA view and t-SNE's 50-d input come from one decomposition
    for shape, method in (((60, 80), "gram"), ((80, 60), "covariance")):
        x = seeded_points(9, *shape)
        two, _ = pca_fit_transform(x, 2, method=method)
        fifty, _ = pca_fit_transform(x, 50, method=method)
        lead = fifty.coordinates[:, :2]
        assert np.abs(two.coordinates - lead).max() <= 1e-12 * np.abs(lead).max()


def test_pca_gram_path_rejects_components_beyond_rank():
    x = seeded_points(10, 5, 10)
    with pytest.raises(DataError, match="rank"):
        pca_fit_transform(x, 5, method="gram")


def test_pca_rejects_bad_inputs():
    x = seeded_points(11, 6, 4)
    with pytest.raises(DataError, match="out of range"):
        pca_fit_transform(x, 0)
    with pytest.raises(DataError, match="out of range"):
        pca_fit_transform(x, 5)
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(DataError, match="finite"):
        pca_fit_transform(bad, 2)
    with pytest.raises(DataError, match="method"):
        pca_fit_transform(x, 2, method="svd")


def test_pca_column_means_recorded():
    x = seeded_points(12, 9, 4) + 10
    _, model = pca_fit_transform(x, 2)
    assert np.allclose(model.column_means, x.mean(axis=0), atol=1e-12)


def two_blobs(seed, per_cluster=30, g=5, gap=50.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(per_cluster, g))
    b = rng.normal(size=(per_cluster, g))
    b[:, 0] += gap
    labels = np.r_[np.zeros(per_cluster, int), np.ones(per_cluster, int)]
    return np.vstack([a, b]), labels


def test_tsne_deterministic_given_seed():
    x, _ = two_blobs(0)
    a = tsne(x, perplexity=10, seed=4, iters=120)
    b = tsne(x, perplexity=10, seed=4, iters=120)
    c = tsne(x, perplexity=10, seed=5, iters=120, init="random")
    assert np.array_equal(a.coordinates, b.coordinates)
    assert not np.array_equal(a.coordinates, c.coordinates)


def test_tsne_separates_distant_clusters():
    x, labels = two_blobs(1)
    emb = tsne(x, perplexity=10, seed=0, iters=800)
    y = emb.coordinates
    intra, inter = [], []
    for i in range(len(y)):
        for j in range(i + 1, len(y)):
            d = np.linalg.norm(y[i] - y[j])
            (intra if labels[i] == labels[j] else inter).append(d)
    assert min(inter) > 2.0 * np.mean(intra)


def test_tsne_equidistant_points_stay_equidistant():
    emb = tsne(np.eye(3), perplexity=0.9, seed=0, iters=400)
    y = emb.coordinates
    d = np.array(
        [np.linalg.norm(y[i] - y[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    )
    assert d.max() <= 1.05 * d.min()


def test_tsne_logs_unreachable_perplexity(caplog):
    with caplog.at_level(logging.WARNING, logger="scbench.embed"):
        tsne(np.eye(3), perplexity=0.9, seed=0, iters=5)
    assert any("calibration" in r.message for r in caplog.records)


def test_tsne_calibration_hits_target():
    x = seeded_points(13, 60, 10)
    emb = tsne(x, perplexity=15, seed=1, iters=50)
    achieved = emb.diagnostics["achieved_perplexity"]
    assert np.abs(achieved - 15).max() <= 1e-4


def test_tsne_kl_tail_is_nonincreasing():
    x, _ = two_blobs(2)
    emb = tsne(x, perplexity=12, seed=2, iters=400)
    tail = emb.diagnostics["kl_trace"][-100:]
    assert (np.diff(tail) <= 1e-6).all()
    assert emb.diagnostics["final_kl"] == tail[-1]


def test_tsne_safeguard_keeps_kl_tail_monotone():
    # at learning rate 50 without the safeguard this input's tail rises by 3.2e-4
    x = seeded_points(2, 200, 50)
    emb = tsne(x, perplexity=30, seed=2, iters=600)
    tail = emb.diagnostics["kl_trace"][-100:]
    assert (np.diff(tail) <= 0.0).all()
    assert emb.diagnostics["rejected_steps"] >= 1
    fixed = tsne(x, perplexity=30, seed=2, iters=600, learning_rate=200)
    assert emb.diagnostics["final_kl"] < fixed.diagnostics["final_kl"]


def test_tsne_returns_the_iterate_whose_kl_it_reports():
    x = seeded_points(2, 80, 20)
    emb = tsne(x, perplexity=10, seed=2, iters=300)
    p, _ = joint_probabilities(x, 10)
    assert math.isclose(kl_divergence(p, emb), emb.diagnostics["final_kl"], rel_tol=1e-12)


def test_tsne_rejects_infeasible_perplexity():
    x = seeded_points(14, 10, 4)
    with pytest.raises(DataError, match="infeasible"):
        tsne(x, perplexity=4)
    with pytest.raises(DataError, match="infeasible"):
        tsne(x, perplexity=0)


def test_tsne_rejects_nonfinite():
    x = seeded_points(15, 12, 4)
    x[3, 1] = np.inf
    with pytest.raises(DataError, match="finite"):
        tsne(x, perplexity=3)


def test_tsne_records_params():
    x = seeded_points(16, 20, 4)
    emb = tsne(x, perplexity=5, seed=9, iters=30, learning_rate=150)
    assert emb.method == "tsne" and emb.seed == 9
    assert emb.params["perplexity"] == 5
    assert emb.params["learning_rate"] == 150
    assert emb.params["iters"] == 30
    # "auto" is max(n / (4 * exaggeration), 50)
    assert tsne(x, perplexity=5, iters=5).params["learning_rate"] == 50.0
    auto = tsne(x, perplexity=5, iters=5, exaggeration=0.05)
    assert auto.params["learning_rate"] == 100.0
    for bad in (
        {"learning_rate": "fast"},
        {"learning_rate": 0},
        {"exaggeration": 0},
        {"exaggeration_iters": -1},
    ):
        with pytest.raises(DataError):
            tsne(x, perplexity=5, iters=5, **bad)


def test_kl_divergence_zero_when_q_matches_p():
    y = seeded_points(18, 15, 2)
    emb = Embedding(y, "tsne", {}, seed=0)
    num = 1.0 / (1.0 + ((y[:, None, :] - y[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    assert abs(kl_divergence(q, emb)) <= 1e-9


def test_kl_divergence_nonnegative():
    rng = np.random.default_rng(19)
    y = rng.normal(size=(12, 2))
    emb = Embedding(y, "tsne", {}, seed=0)
    p = rng.random((12, 12))
    np.fill_diagonal(p, 0.0)
    p = (p + p.T) / 2
    p /= p.sum()
    assert kl_divergence(p, emb) >= 0.0


def test_kl_divergence_validates_table():
    emb = Embedding(seeded_points(20, 8, 2), "tsne", {}, seed=0)
    with pytest.raises(DataError, match="8 x 8"):
        kl_divergence(np.ones((4, 4)) / 16, emb)
    bad = np.full((8, 8), 1 / 64)
    bad[0, 0] = -bad[0, 0]
    with pytest.raises(DataError, match="non-negative"):
        kl_divergence(bad, emb)
    with pytest.raises(DataError, match="sum to 1"):
        kl_divergence(np.full((8, 8), 1.0), emb)


def test_joint_probabilities_form():
    x = seeded_points(21, 25, 6)
    p, achieved = joint_probabilities(x, perplexity=7)
    assert p.shape == (25, 25)
    assert np.abs(achieved - 7).max() <= 1e-4
    assert np.array_equal(p, p.T)
    assert np.abs(np.diagonal(p)).max() == 0.0
    assert (p >= 0).all()
    assert math.isclose(p.sum(), 1.0, abs_tol=1e-9)
