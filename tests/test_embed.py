"""PCA and exact t-SNE."""
import logging
import math
import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import traced_peak
from oracles import (
    assemble_joint,
    bisect_conditional_probabilities,
    blocked_squared_distances,
    cut_strips,
    dense_kl_gradient,
    kl_divergence,
    loop_calibrate_rows,
    loop_conditional_probabilities,
    svd_pca,
    symmetrize,
)

import scbench.embed
from scbench import DataError, pca_fit_transform, tsne
from scbench._util import seeded_rng
from scbench.embed import (
    Embedding,
    _calibrate_block,
    _joint_strips,
    _kl_gradient,
)


def seeded_points(seed, n, g, scale=1.0):
    return np.random.default_rng(seed).normal(size=(n, g)) * scale


def calibrated_rows(c, perplexity):
    """The library's calibration of every row of c, 64 rows per call, stacked."""
    scratch = np.empty((2, min(64, len(c)), c.shape[1]))
    blocks = [_calibrate_block(c[s:s + 64].copy(), perplexity, scratch)
              for s in range(0, len(c), 64)]
    return np.vstack([p for p, _ in blocks]), np.concatenate([a for _, a in blocks])


def conditional_probabilities(d2, perplexity):
    """calibrated_rows of each row of d2 without its own entry, as an n x n P
    with a zero diagonal."""
    n = len(d2)
    others = ~np.eye(n, dtype=bool)
    cond, achieved = calibrated_rows(d2[others].reshape(n, n - 1), perplexity)
    p = np.zeros((n, n))
    p[others] = cond.ravel()
    return p, achieved


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


def test_pca_gives_zero_variance_components_beyond_the_rank_on_both_routes():
    # rank 2 once centred: 8 x 20 takes the Gram route, its transpose the covariance one
    rng = np.random.default_rng(10)
    x = rng.normal(size=(8, 2)) @ rng.normal(size=(2, 20)) + 3.0
    for data, method in ((x, "gram"), (x.T, "covariance")):
        emb, model = pca_fit_transform(data, 6)
        assert emb.params["method"] == method
        scores, components, variances = svd_pca(data, 2)
        assert np.abs(model.explained_variance[:2] - variances).max() < 1e-8
        assert np.abs(model.components[:2] - components).max() < 1e-8
        assert np.abs(emb.coordinates[:, :2] - scores).max() < 1e-8
        scale = variances[0]
        assert np.abs(model.explained_variance[2:]).max() <= 1e-12 * scale
        assert np.abs(emb.coordinates[:, 2:]).max() <= 1e-6 * np.sqrt(scale)
    # the Gram route cannot name null-space directions: it gives zero vectors
    _, model = pca_fit_transform(x, 6)
    assert not model.components[2:].any() and not model.explained_variance[2:].any()


def test_gram_route_scores_scale_with_small_inputs():
    # the rank cut-off is relative: data of variance far below 1 keep their
    # components (an absolute 1e-12 once zeroed every one at scale 1e-7)
    x = seeded_points(27, 10, 20)
    emb, model = pca_fit_transform(x, 3)
    assert emb.params["method"] == "gram"
    for scale in (1e-7, 1e-5):
        small, small_model = pca_fit_transform(x * scale, 3)
        assert np.abs(small.coordinates - scale * emb.coordinates).max() <= (
            1e-9 * scale * np.abs(emb.coordinates).max())
        assert np.allclose(small_model.explained_variance,
                           scale**2 * model.explained_variance, rtol=1e-9, atol=0.0)


def test_tsne_of_points_without_variance_starts_from_seeded_noise_on_both_routes():
    # all-equal points: PCA finds no direction, so t-SNE starts from noise
    for shape in ((10, 20), (12, 3)):
        first = tsne(np.ones(shape), perplexity=2, iters=20, seed=4)
        again = tsne(np.ones(shape), perplexity=2, iters=20, seed=4)
        assert np.isfinite(first.coordinates).all()
        assert np.array_equal(first.coordinates, again.coordinates)


@pytest.mark.parametrize("shape", [(800, 850), (850, 800)])
def test_pca_holds_at_most_two_and_a_half_copies_of_its_input(shape):
    # the centred copy, then eigh's square and its eigenvectors without it,
    # then the centred copy again: 2.13 copies measured on both routes (Gram
    # for the first shape, covariance for the second)
    x = seeded_points(30, *shape)
    assert traced_peak(lambda: pca_fit_transform(x, 50)) <= 2.5 * x.nbytes


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
    assert np.abs(achieved - 15).max() <= 1e-8 * 15


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

    def recording(strips):
        evaluate = _kl_gradient(strips)

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
    p = assemble_joint(_joint_strips(x, 10)[0])
    assert math.isclose(kl_divergence(p, emb), emb.diagnostics["final_kl"], rel_tol=1e-12)


def test_tsne_rejects_infeasible_perplexity():
    x = seeded_points(14, 10, 4)
    with pytest.raises(DataError, match="infeasible"):
        tsne(x, perplexity=4)
    with pytest.raises(DataError, match="infeasible"):
        tsne(x, perplexity=0)
    with pytest.raises(DataError, match="perplexity nan infeasible for 10 points"):
        tsne(x, perplexity=float("nan"))


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


@pytest.mark.parametrize("n", [4, 63, 64, 65, 129, 200])
def test_strips_equal_the_one_row_loops_p_symmetrized(n, caplog):
    # block edges, a 1-row tail, and columns added transposed across blocks:
    # each entry of a strip receives cond[i, j] and cond[j, i] onto 0
    perplexity = min(30.0, n / 3.0)
    for d in (2, 50):
        x = seeded_points(40 + n, n, d)
        strips, achieved = _joint_strips(x, perplexity)
        d2 = blocked_squared_distances(x)
        with caplog.at_level(logging.ERROR, logger="scbench.embed"):
            cond, achieved_loop = loop_conditional_probabilities(d2, perplexity)
        expected = cut_strips(symmetrize(cond))
        assert len(strips) == len(expected)
        for strip, want in zip(strips, expected):
            assert strip.flags.c_contiguous and np.array_equal(strip, want)
        assert np.array_equal(achieved, achieved_loop)
        p = assemble_joint(strips)
        assert not np.diagonal(p).any()
        assert np.array_equal(p, p.T)
        assert (p >= 0.0).all()
        assert math.isclose(p.sum(), 1.0, abs_tol=1e-12)


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
    evaluate = _kl_gradient(cut_strips(p))
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


@pytest.mark.parametrize("n", [65, 200])
def test_blocked_step_matches_the_dense_step_at_a_finished_embeddings_scale(n):
    # a finished embedding spans tens of units, where the Gram form of 1 + d^2
    # rounds at the scale of |y|^2 = 2500 and close pairs keep d^2 near 1
    p = random_joint(n, n)
    evaluate = _kl_gradient(cut_strips(p))
    for d in (1, 2, 3):
        y = np.random.default_rng(200 + d).normal(size=(n, d))
        y *= 50.0 / np.sqrt((y * y).sum(axis=1)).max()
        for boost in (12.0, 1.0):
            kl, grad = evaluate(y, boost)
            kl_dense, grad_dense = dense_kl_gradient(p, y, boost)
            assert math.isclose(kl, kl_dense, rel_tol=1e-12)
            assert np.abs(grad - grad_dense).max() <= 1e-12 * np.abs(grad_dense).max()


def test_coincident_points_far_out_keep_unit_weights():
    # at 2^27 every term of the Gram form is exact and 1 + d^2 cancels to 0
    # for coincident points, on any BLAS kernel; clamped, it is 1, so t = 1,
    # Z = n (n - 1) and the forces cancel
    n = 70
    p = random_joint(3, n)
    evaluate = _kl_gradient(cut_strips(p))
    plogp = float((p[p > 0] * np.log(p[p > 0])).sum())
    for d in (1, 2, 3):
        y = np.full((n, d), 2.0**27)
        kl, grad = evaluate(y, 12.0)
        assert math.isclose(kl, plogp + math.log(n * (n - 1)), rel_tol=1e-12)
        assert np.abs(grad).max() <= 1e-12 * 2.0**27


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
    p = assemble_joint(_joint_strips(x, 10)[0])
    assert math.isclose(kl_divergence(p, emb), emb.diagnostics["final_kl"], rel_tol=1e-12)


def calibrations_agree(x, perplexity, caplog):
    """The library's calibration of x's rows of d^2 against the one-row loop,
    bit for bit, and _joint_strips' warnings against the loop's; returns them."""
    d2 = blocked_squared_distances(x)
    p, achieved = conditional_probabilities(d2, perplexity)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="scbench.embed"):
        _, strips_achieved = _joint_strips(x, perplexity)
        warned = [r.getMessage() for r in caplog.records]
        caplog.clear()
        p_loop, achieved_loop = loop_conditional_probabilities(d2, perplexity)
        warned_loop = [r.getMessage() for r in caplog.records]
    assert np.array_equal(p, p_loop)
    assert np.array_equal(achieved, achieved_loop)
    assert np.array_equal(strips_achieved, achieved_loop)
    assert warned == warned_loop
    return warned


def lockstep_inputs():
    """(points, perplexity) pairs: random points, some rows with part of
    their weights underflowed, and degenerate rows."""
    rng = np.random.default_rng(22)
    # uneven scales make some rows underflow part of their weights
    for n, g, perplexity in ((40, 5, 8.0), (130, 4, 5.0), (200, 20, 30.0)):
        yield rng.normal(size=(n, g)) * rng.random(n)[:, None] * 20.0, perplexity
    # every row equidistant from the others, above the target
    yield np.eye(3), 0.9
    # rows with tied distances, across a block boundary
    yield (np.arange(70.0) % 5)[:, None], 4.0
    yield np.repeat(np.arange(30.0), 3)[:, None], 2.0
    yield np.r_[np.arange(10.0), 40.0 + np.arange(10.0)][:, None], 4.0
    # rows without a root: 40 copies of one point (more duplicates than the
    # perplexity), identical points, and perplexity 1; and 1.01 just above it
    yield np.r_[np.zeros((40, 3)), rng.normal(size=(60, 3))], 30.0
    yield np.ones((20, 4)), 5.0
    spread = rng.normal(size=(60, 4))
    for perplexity in (1.0, 1.01):
        yield spread, perplexity
    # coordinate scales far from 1
    for scale in (1e4, 1e-6):
        yield spread * scale, 10.0
    # four 50-d groups 200 apart: every row's far weights underflow to zero
    yield np.repeat(np.arange(4.0) * 200.0, 40)[:, None] + rng.normal(size=(160, 50)), 10.0


def test_lockstep_calibration_equals_the_one_row_loop(caplog):
    for x, perplexity in lockstep_inputs():
        calibrations_agree(x, perplexity, caplog)
    # no row of three equidistant points reaches 0.9: each one warns
    assert len(calibrations_agree(np.eye(3), 0.9, caplog)) == 3
    # two lines of 10 points 40 apart: some rows end with every weight
    # positive although beta * max d^2 is past 700, the rest with their far
    # weights underflowed to zero
    lines = np.r_[np.arange(10.0), 40.0 + np.arange(10.0)][:, None]
    d2 = blocked_squared_distances(lines)
    p, _ = conditional_probabilities(d2, 4.0)
    off = ~np.eye(20, dtype=bool)
    rows = np.flatnonzero((p > 0.0).sum(axis=1) == 19)
    assert 0 < rows.size < 20
    near = np.where(off, d2, np.inf).argmin(axis=1)[rows]
    far = d2.argmax(axis=1)[rows]
    beta = (np.log(p[rows, near]) - np.log(p[rows, far])) / (d2[rows, far] - d2[rows, near])
    assert (beta * d2[rows, far] > 700.0).any()


def test_calibration_of_neighbour_columns_equals_the_one_row_loop():
    # each point's k = 3 perplexity nearest other points, the rows a kNN
    # affinity calibrates, then a row of equal d^2 and a row with more
    # duplicates than the perplexity
    x = seeded_points(30, 200, 10)
    d2 = np.where(np.eye(200, dtype=bool), np.inf, blocked_squared_distances(x))
    for perplexity in (1.0, 5.0, 10.0, 30.0):
        k = int(3 * perplexity)
        c = np.take_along_axis(d2, np.argsort(d2, axis=1, kind="stable")[:, :k], axis=1)
        ties = np.r_[np.full(int(perplexity) + 1, 0.5), 1.0 + np.arange(k - int(perplexity) - 1)]
        c = np.vstack([c, np.full(k, 2.0), ties])
        p, achieved = calibrated_rows(c, perplexity)
        p_loop, achieved_loop = loop_calibrate_rows(c, perplexity)
        assert np.array_equal(p, p_loop)
        assert np.array_equal(achieved, achieved_loop)
        assert achieved[-2] == k and achieved[-1] == int(perplexity) + 1


class ExpSpy:
    """numpy for scbench.embed, recording the rows of each 2-d exp: one
    Newton pass over that many rows."""

    def __init__(self):
        self.rows = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        if np.ndim(x) == 2:
            self.rows.append(x.shape[0])
        return np.exp(x, *args, **kwargs)


def test_rows_without_a_root_take_the_limit_with_no_newton_pass(monkeypatch, caplog):
    # a row with at least perplexity nearest points has no finite root: its
    # perplexity falls to that count only as beta -> infinity
    spy = ExpSpy()
    monkeypatch.setattr(scbench.embed, "np", spy)
    # identical points: every row's d^2 are all equal, above the target
    warned = calibrations_agree(np.ones((300, 4)), 30.0, caplog)
    assert len(warned) == 300
    p, achieved = conditional_probabilities(blocked_squared_distances(np.ones((300, 4))), 30.0)
    assert (achieved == 299.0).all() and (p == (1.0 - np.eye(300)) / 299.0).all()
    # a target of the row's length is met in the limit, with no warning;
    # above it no beta reaches the target
    assert not calibrations_agree(np.eye(20), 19.0, caplog)
    assert len(calibrations_agree(np.eye(20), 25.0, caplog)) == 20
    # a regular simplex whose weights at beta = 512 have a subnormal sum
    simplex = math.sqrt(0.72030322265625) * np.eye(40)
    assert (blocked_squared_distances(simplex) == 1.4406064453125 * (1.0 - np.eye(40))).all()
    calibrations_agree(simplex, 30.0, caplog)
    # perplexity 1: each row puts its mass on its one nearest point
    x = seeded_points(28, 60, 4)
    d2 = blocked_squared_distances(x)
    assert not calibrations_agree(x, 1.0, caplog)
    p, achieved = conditional_probabilities(d2, 1.0)
    nearest = np.where(np.eye(60, dtype=bool), np.inf, d2).argmin(axis=1)
    assert (achieved == 1.0).all() and (p == np.eye(60)[nearest]).all()
    assert spy.rows == []
    # 40 copies of one point far from 60 spread points: the copies' rows make
    # no pass, so the first pass of each block takes only the spread rows
    copies = np.r_[np.full((40, 3), 100.0), seeded_points(29, 60, 3)]
    d2 = blocked_squared_distances(copies)
    p, achieved = conditional_probabilities(d2, 30.0)
    assert spy.rows[0] == 64 - 40 and max(spy.rows) == 100 - 64
    assert (achieved[:40] == 39.0).all()
    assert (p[:40, :40] == (1.0 - np.eye(40)) / 39.0).all() and not p[:40, 40:].any()
    assert np.abs(achieved[40:] - 30.0).max() <= 1e-8 * 30.0


def has_root(d2, perplexity):
    """Rows whose perplexity reaches the target at a finite beta."""
    n = d2.shape[0]
    c = d2[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    nearest = (c == c.min(axis=1)[:, None]).sum(axis=1)
    return (nearest < perplexity) & (nearest < n - 1)


def test_root_found_perplexities_land_in_the_bisection_window(caplog):
    # the former bisection stopped anywhere within 1e-5 of the target
    with caplog.at_level(logging.ERROR, logger="scbench.embed"):
        for x, perplexity in lockstep_inputs():
            d2 = blocked_squared_distances(x)
            _, achieved = conditional_probabilities(d2, perplexity)
            _, bisected = bisect_conditional_probabilities(d2, perplexity)
            root = has_root(d2, perplexity)
            assert (np.abs(achieved[root] - perplexity) <= 1e-5).all()
            hit = np.abs(bisected - perplexity) <= 1e-5
            assert (np.abs(achieved[hit] - perplexity) <= 1e-5).all()
            # rows without a root get the limit the bisection approaches
            assert (np.abs(achieved[~root] - bisected[~root]) <= 1e-5).all()


def test_rows_with_a_root_hit_the_target_within_1e_8_of_it(caplog):
    # Newton stops once |H - log perplexity| <= 1e-10, so the perplexity is
    # within about 1e-10 of the target, relative; the bound leaves 100x
    with caplog.at_level(logging.ERROR, logger="scbench.embed"):
        for x, perplexity in lockstep_inputs():
            d2 = blocked_squared_distances(x)
            _, achieved = conditional_probabilities(d2, perplexity)
            root = has_root(d2, perplexity)
            assert (np.abs(achieved[root] - perplexity) <= 1e-8 * perplexity).all()


def test_achieved_perplexity_is_exp_of_the_entropy_of_p():
    # the calibration's entropy identity against -sum p log p over positive p
    rng = np.random.default_rng(22)
    cases = [
        (rng.normal(size=(n, g)) * rng.random(n)[:, None] * 20.0, perplexity)
        for n, g, perplexity in ((40, 5, 8.0), (130, 4, 5.0), (200, 20, 30.0))
    ]
    # four groups 200 apart: every row's far weights underflow to zero
    groups = np.repeat(np.arange(4.0) * 200.0, 40)[:, None] + rng.normal(size=(160, 50))
    cases.append((groups, 10.0))
    for x, perplexity in cases:
        p, achieved = conditional_probabilities(blocked_squared_distances(x), perplexity)
        for row, perp in zip(p, achieved):
            nz = row[row > 0.0]
            assert math.isclose(perp, math.exp(-(nz * np.log(nz)).sum()), rel_tol=1e-12)
    assert ((p > 0.0).sum(axis=1) < 159).all()


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


@pytest.mark.parametrize("n", [600, 1500])
def test_tsne_holds_p_only_as_its_upper_triangle_strips(n):
    x = seeded_points(25, n, 10)
    peak = traced_peak(lambda: tsne(x, perplexity=30, seed=0, iters=20))
    # measured: the strips (0.5 n^2 + 32 n) and four 64 x n blocks while a
    # block calibrates (its d^2 to the other points, its affinities and two
    # scratch buffers), 1.04 n^2 at 600 and 0.71 n^2 at 1500; the bound
    # leaves over two more blocks.
    # Any n x n array beside the strips exceeds it. Full d^2, conditional and
    # joint P peaked at 2.56 n^2 and 2.22 n^2
    strips = sum(min(64, n - s) * (n - s) for s in range(0, n, 64))
    assert peak <= (strips + 7 * 64 * n) * 8
