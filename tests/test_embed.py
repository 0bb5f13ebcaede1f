"""PCA and exact t-SNE."""
import logging
import math
import pickle
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from oracles import dense_kl_gradient, kl_divergence, loop_conditional_probabilities, svd_pca

import scbench.embed
from scbench import DataError, pca_fit_transform, tsne
from scbench._util import seeded_rng
from scbench.embed import (
    Embedding,
    _conditional_probabilities,
    _kl_gradient,
    _squared_distances,
    joint_probabilities,
)


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


def test_pca_routes_picked_by_shape_match_svd():
    # covariance when genes <= cells, else the Gram matrix
    for n, g in ((8, 20), (20, 8), (30, 30)):
        x = seeded_points(9, n, g)
        d = min(n - 1, g)
        emb, model = pca_fit_transform(x, d)
        assert emb.params["method"] == ("covariance" if g <= n else "gram")
        scores, components, variances = svd_pca(x, d)
        assert np.abs(model.explained_variance - variances).max() < 1e-8
        assert np.abs(model.components - components).max() < 1e-8
        assert np.abs(emb.coordinates - scores).max() < 1e-8
        assert model.components.flags.c_contiguous


def test_pca_leading_scores_do_not_depend_on_d():
    # the CLI's PCA view and t-SNE's 50-d input come from one decomposition
    for shape, method in (((60, 80), "gram"), ((80, 60), "covariance")):
        x = seeded_points(9, *shape)
        two, _ = pca_fit_transform(x, 2)
        fifty, _ = pca_fit_transform(x, 50)
        assert two.params["method"] == fifty.params["method"] == method
        lead = fifty.coordinates[:, :2]
        assert np.abs(two.coordinates - lead).max() <= 1e-12 * np.abs(lead).max()


def test_pca_gram_path_rejects_components_beyond_rank():
    # 5 points in 10 dimensions take the Gram route; centred, they have rank 4
    x = seeded_points(10, 5, 10)
    with pytest.raises(DataError, match="rank"):
        pca_fit_transform(x, 5)


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
    assert np.array_equal(a.coordinates, b.coordinates)


def test_tsne_identical_points_start_from_seeded_noise():
    # no spread for PCA to start from: the start is N(0, 1e-4) noise from
    # the seed's stream, and with one iteration the start is the result
    x = np.ones((12, 3))
    starts = {seed: tsne(x, perplexity=3, seed=seed, iters=1).coordinates for seed in (1, 2)}
    for seed, y in starts.items():
        expected = seeded_rng(seed, 0).normal(0.0, 1e-4, size=(12, 2))
        assert np.array_equal(y, expected)
    assert not np.array_equal(starts[1], starts[2])
    a = tsne(x, perplexity=3, seed=1, iters=60)
    assert np.array_equal(a.coordinates, tsne(x, perplexity=3, seed=1, iters=60).coordinates)
    assert not np.array_equal(a.coordinates, tsne(x, perplexity=3, seed=2, iters=60).coordinates)


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


def test_tsne_safeguard_keeps_kl_tail_monotone(monkeypatch):
    # at learning rate 50 without the safeguard this input's tail rises by 3.2e-4
    x = seeded_points(2, 200, 50)
    iters = 600
    calls = []

    def recording(p):
        evaluate = _kl_gradient(p)

        def recorded(y, boost, with_kl=True):
            kl, grad = evaluate(y, boost, with_kl)
            calls.append((y.copy(), kl, grad))
            return kl, grad

        return recorded

    monkeypatch.setattr(scbench.embed, "_kl_gradient", recording)
    emb = tsne(x, perplexity=30, seed=2, iters=iters)
    trace = emb.diagnostics["kl_trace"]
    start = emb.diagnostics["kl_trace_start"]
    assert (np.diff(trace[-100:]) <= 0.0).all()
    assert len(calls) == iters

    # a step is rejected exactly when its iterate's KL is above the last
    # accepted KL, and the trace then repeats that KL
    first = emb.params["exaggeration_iters"] + 1
    rejected = [t for t in range(first, iters) if calls[t][1] > trace[t - 1 - start]]
    assert emb.diagnostics["rejected_steps"] == len(rejected) >= 1
    for t in range(first, iters):
        assert trace[t - start] == (trace[t - 1 - start] if t in rejected else calls[t][1])

    # the k-th rejection restarts from the last accepted iterate with no
    # momentum, gains reset to 1 (then decayed once to 0.8) and the learning
    # rate halved k times
    accepted = {}
    for t, call in enumerate(calls):
        accepted[t] = accepted[t - 1] if t in rejected else call
    for k, t in enumerate(rejected, start=1):
        if t + 1 == iters:
            continue
        y, _, grad = accepted[t - 1]
        step = emb.params["learning_rate"] * 0.5 ** k
        expected = y - step * (0.8 * grad)
        expected -= expected.mean(axis=0)
        assert np.allclose(calls[t + 1][0], expected, rtol=0.0, atol=1e-12 * np.abs(y).max())


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


def test_embedding_stays_read_only_through_pickle():
    emb = tsne(seeded_points(26, 20, 4), perplexity=5, seed=2, iters=30)
    back = pickle.loads(pickle.dumps(emb))
    assert not back.coordinates.flags.writeable
    assert np.array_equal(back.coordinates, emb.coordinates)
    assert (back.method, back.params, back.seed) == (emb.method, emb.params, emb.seed)
    assert back.diagnostics.keys() == emb.diagnostics.keys()
    assert back.diagnostics["final_kl"] == emb.diagnostics["final_kl"]


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


def random_joint(seed, n):
    """Symmetric, zero-diagonal, sums to 1, with some exact zeros."""
    rng = np.random.default_rng(seed)
    p = rng.random((n, n)) * (rng.random((n, n)) > 0.1)
    p = p + p.T
    np.fill_diagonal(p, 0.0)
    return p / p.sum()


@pytest.mark.parametrize("n", [4, 63, 64, 65, 129, 200])
def test_blocked_step_matches_the_dense_step(n):
    # strips of 64 rows: one partial block, exact multiples, and a 1-row tail
    p = random_joint(n, n)
    evaluate = _kl_gradient(p)
    for d in (1, 2, 3):
        y = np.random.default_rng(100 + d).normal(size=(n, d)) * 3.0
        for boost in (12.0, 1.0):
            kl, grad = evaluate(y, boost)
            kl_dense, grad_dense = dense_kl_gradient(p, y, boost)
            assert math.isclose(kl, kl_dense, rel_tol=1e-12)
            assert np.abs(grad - grad_dense).max() <= 1e-12 * np.abs(grad_dense).max()
            # skipping the KL pass leaves the gradient's bits alone
            no_kl, grad_no_kl = evaluate(y, boost, False)
            assert no_kl is None and np.array_equal(grad, grad_no_kl)


@pytest.mark.parametrize(
    "iters, exaggeration_iters, start",
    [(40, 60, 39), (60, 60, 59), (61, 60, 59), (40, 0, 0)],
)
def test_kl_is_evaluated_from_the_last_exaggerated_iterate(iters, exaggeration_iters, start):
    x = seeded_points(26, 70, 8)
    emb = tsne(x, perplexity=10, seed=1, iters=iters, exaggeration_iters=exaggeration_iters)
    assert emb.diagnostics["kl_trace_start"] == start
    assert len(emb.diagnostics["kl_trace"]) == iters - start
    assert emb.diagnostics["final_kl"] == emb.diagnostics["kl_trace"][-1]
    p, _ = joint_probabilities(x, 10)
    assert math.isclose(kl_divergence(p, emb), emb.diagnostics["final_kl"], rel_tol=1e-12)


def calibrations_agree(d2, perplexity, caplog):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="scbench.embed"):
        p, achieved = _conditional_probabilities(d2, perplexity)
        warned = [r.getMessage() for r in caplog.records]
        caplog.clear()
        p_loop, achieved_loop = loop_conditional_probabilities(d2, perplexity)
        warned_loop = [r.getMessage() for r in caplog.records]
    assert np.array_equal(p, p_loop)
    assert np.array_equal(achieved, achieved_loop)
    assert warned == warned_loop
    return warned


def test_lockstep_calibration_equals_the_one_row_loop(caplog):
    rng = np.random.default_rng(22)
    # uneven scales make some rows underflow part of their weights
    for n, g, perplexity in ((40, 5, 8.0), (130, 4, 5.0), (200, 20, 30.0)):
        x = rng.normal(size=(n, g)) * rng.random(n)[:, None] * 20.0
        calibrations_agree(_squared_distances(x), perplexity, caplog)
    # every weight underflows: the equal-mass branch, and its warnings
    warned = calibrations_agree(_squared_distances(np.eye(3)), 0.9, caplog)
    assert len(warned) == 3
    # rows with tied distances, across a block boundary
    grid = (np.arange(70.0) % 5)[:, None]
    calibrations_agree(_squared_distances(grid), 4.0, caplog)
    pairs = np.repeat(np.arange(30.0), 3)[:, None]
    calibrations_agree(_squared_distances(pairs), 2.0, caplog)
    # two lines of 10 points 40 apart: some rows end with beta * max d^2 past
    # 700 and every weight positive, the rest with their far weights at zero
    lines = np.r_[np.arange(10.0), 40.0 + np.arange(10.0)][:, None]
    d2 = _squared_distances(lines)
    calibrations_agree(d2, 4.0, caplog)
    p, _ = _conditional_probabilities(d2, 4.0)
    off = ~np.eye(20, dtype=bool)
    rows = np.flatnonzero((p > 0.0).sum(axis=1) == 19)
    assert 0 < rows.size < 20
    near = np.where(off, d2, np.inf).argmin(axis=1)[rows]
    far = d2.argmax(axis=1)[rows]
    beta = (np.log(p[rows, near]) - np.log(p[rows, far])) / (d2[rows, far] - d2[rows, near])
    assert (beta * d2[rows, far] > 700.0).any()


def test_concurrent_runs_equal_sequential_runs():
    # splits run on pool threads; each run's scratch must be its own
    jobs = [(seeded_points(23, 150, 10), 3), (seeded_points(24, 130, 10), 4)]

    def run(job):
        x, seed = job
        return tsne(x, perplexity=10, seed=seed, iters=80)

    sequential = [run(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=2) as ex:
        concurrent = list(ex.map(run, jobs))
    for a, b in zip(sequential, concurrent):
        assert np.array_equal(a.coordinates, b.coordinates)
        assert np.array_equal(a.diagnostics["kl_trace"], b.diagnostics["kl_trace"])


def test_tsne_holds_no_n_by_n_arrays_beyond_p():
    n = 600
    x = seeded_points(25, n, 10)
    tracemalloc.start()
    try:
        tsne(x, perplexity=30, seed=0, iters=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 2.7 n^2 float64 here: P with the table it is symmetrized from,
    # then P with its upper strips, plus 64-row temporaries; the former
    # full-matrix step peaked at 6.15 n^2
    assert peak <= 4.5 * n * n * 8
