"""Acceptance gate: eleven end-to-end checks, one test per criterion.

Each test prints a single summary line; tolerances and counts are stated
inline next to the assertions they govern.
"""
import os
import time

import numpy as np
import pytest
from oracles import (
    best_two_partition_sse,
    naive_agglomerate,
    naive_distances,
    naive_silhouette,
)

from scbench import (
    ExpressionMatrix,
    FilterConfig,
    SynthConfig,
    adjusted_rand_index,
    dropout_rate,
    from_dense,
    generate,
    hierarchical,
    kmeans,
    pairwise_distances,
    pca_fit_transform,
    preprocess_pipeline,
    quantile_normalize,
    read_table,
    silhouette,
    tsne,
    vstack_cells,
    write_cell_annotations,
    write_gene_annotations,
    write_matrix_market,
)
from scbench.cli import cli_main
from scbench.preprocess import filter_low_cv, filter_sparse_genes

TABLES = [
    "dropout.csv", "detection.csv", "cumulative.csv", "embedding_pca.csv",
    "embedding_tsne.csv", "clusters.csv", "silhouette.csv",
]
FIGURES = [
    "detection_box.svg", "cumulative.svg", "embedding_pca.svg",
    "embedding_tsne.svg", "dropout.svg", "silhouette.svg",
]


def expression(values):
    values = np.asarray(values, dtype=np.float64)
    return ExpressionMatrix(
        values,
        [f"c{i}" for i in range(values.shape[0])],
        [f"g{j}" for j in range(values.shape[1])],
    )


def test_criterion_01_quantile_normalization_unifies_distributions():
    worst_second_pass = 0.0
    for seed in range(50):
        x = np.random.default_rng(seed).random((100, 8))
        once = quantile_normalize(expression(x))
        sorted_rows = np.sort(once.values, axis=1)
        # every distribution carries exactly the same sorted values
        assert (sorted_rows == sorted_rows[0]).all()
        twice = quantile_normalize(once)
        worst_second_pass = max(
            worst_second_pass, float(np.abs(twice.values - once.values).max())
        )
    assert worst_second_pass <= 1e-12
    print(
        "criterion 1 PASS: 50 matrices, sorted rows bit-identical, "
        f"second pass max delta {worst_second_pass:.3g}"
    )


def test_criterion_02_filter_boundaries_are_exact():
    dense = np.zeros((100, 2), dtype=np.int64)
    dense[:20, 0] = 1  # exactly 80% zeros: kept
    dense[:19, 1] = 1  # exactly 81% zeros: removed
    kept, trace = filter_sparse_genes(from_dense(dense))
    assert kept.gene_ids == ("gene_0",)
    assert trace.removed_sparse_ids == ("gene_1",)

    wide = np.random.default_rng(2).integers(1, 11, size=(40, 100))
    survivors, t1 = filter_sparse_genes(from_dense(wide))
    assert t1.removed_by_sparsity == 0
    survivors, t2 = filter_low_cv(survivors, FilterConfig(0.8, 0.15))
    assert t2.genes_out == 85
    print("criterion 2 PASS: 80% kept / 81% removed, 100 genes -> exactly 85")


def test_criterion_03_dropout_matches_dense_zero_counting_exactly():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n_cells = int(rng.integers(1, 201))
        n_genes = int(rng.integers(1, 501))
        vals = rng.integers(1, 9, size=(n_cells, n_genes))
        mask = rng.random((n_cells, n_genes)) < rng.random()
        dense = (vals * mask).astype(np.int64)
        rep = dropout_rate(from_dense(dense))
        zeros = dense == 0
        assert rep.overall_rate == np.count_nonzero(zeros) / dense.size
        assert np.array_equal(rep.per_gene_rate, zeros.mean(axis=0))
    print("criterion 3 PASS: 1000 matrices up to 200x500, exact equality")


def test_criterion_04_hierarchical_matches_naive_oracle():
    checked = 0
    for seed in range(20):
        x = np.random.default_rng(100 + seed).normal(size=(64, 5))
        for linkage in ("single", "complete", "average", "ward"):
            dend = hierarchical(pairwise_distances(x), linkage=linkage)
            expected = naive_agglomerate(x, linkage)
            assert [
                (m.node_a, m.node_b) for m in dend.merges
            ] == [(a, b) for a, b, _ in expected]
            heights = np.array([h for _, _, h in expected])
            got = np.array([m.height for m in dend.merges])
            assert np.abs(got - heights).max() <= 1e-9
            checked += 1
    assert checked == 20 * 4
    print("criterion 4 PASS: 80 oracle runs, topology exact, heights <= 1e-9")


def test_criterion_05_kmeans_reaches_small_instance_optimum():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(200 + seed)
        x = rng.normal(size=(int(rng.integers(4, 11)), 2))
        result = kmeans(x, 2, seed=seed, restarts=10)
        optimum = best_two_partition_sse(x)
        assert result.sse >= optimum - 1e-9  # never better than exhaustive
        if result.sse <= optimum + 1e-9:
            hits += 1
    assert hits >= 95
    print(f"criterion 5 PASS: optimal in {hits}/100 trials, never below optimum")


def test_criterion_06_silhouette_matches_naive_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 51))
        k = int(rng.integers(2, min(n - 1, 6) + 1))
        x = rng.normal(size=(n, 3))
        labels = np.r_[np.arange(k), rng.integers(0, k, size=n - k)]
        rng.shuffle(labels)
        rep = silhouette(pairwise_distances(x), labels)
        oracle = naive_silhouette(naive_distances(x), labels)
        worst = max(worst, float(np.abs(rep.widths - oracle).max()))
        assert (rep.widths >= -1.0 - 1e-12).all()
        assert (rep.widths <= 1.0 + 1e-12).all()
    assert worst <= 1e-12
    print(f"criterion 6 PASS: 50 labelings, max oracle delta {worst:.3g}")


def test_criterion_07_pca_variance_reconstruction_and_paths():
    x = np.random.default_rng(7).normal(size=(500, 200))
    t0 = time.perf_counter()
    emb_cov, model_cov = pca_fit_transform(x, d=200, method="covariance")
    emb_gram, model_gram = pca_fit_transform(x, d=200, method="gram")
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0

    centered = x - model_cov.column_means
    pc1 = float(model_cov.explained_variance[0])
    dirs = np.random.default_rng(8).normal(size=(1000, 200))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    projected_var = (centered @ dirs.T).var(axis=0, ddof=1)
    assert (projected_var <= pc1 + 1e-9).all()

    reconstructed = emb_cov.coordinates @ model_cov.components + model_cov.column_means
    assert np.abs(reconstructed - x).max() < 1e-8

    assert np.abs(emb_cov.coordinates - emb_gram.coordinates).max() < 1e-8
    assert np.abs(
        model_cov.explained_variance - model_gram.explained_variance
    ).max() < 1e-8
    print(
        "criterion 7 PASS: PC1 dominates 1000 directions, reconstruction "
        f"and path agreement < 1e-8, both fits in {elapsed:.2f}s"
    )


def test_criterion_08_tsne_determinism_kl_and_calibration():
    x = np.random.default_rng(42).normal(size=(200, 50))
    runs = []
    saved = os.environ.get("SCBENCH_THREADS")
    try:
        for threads in ("1", "4", "4"):
            os.environ["SCBENCH_THREADS"] = threads
            runs.append(tsne(x, perplexity=30.0, seed=3, iters=600))
    finally:
        if saved is None:
            os.environ.pop("SCBENCH_THREADS", None)
        else:
            os.environ["SCBENCH_THREADS"] = saved
    assert np.array_equal(runs[0].coordinates, runs[1].coordinates)
    assert np.array_equal(runs[1].coordinates, runs[2].coordinates)

    tail = runs[0].diagnostics["kl_trace"][-100:]
    assert (np.diff(tail) <= 1e-6).all()

    calibration = np.abs(runs[0].diagnostics["achieved_perplexity"] - 30.0).max()
    assert calibration <= 1e-4
    print(
        "criterion 8 PASS: bit-identical at SCBENCH_THREADS 1 and 4, KL tail "
        f"nonincreasing, calibration off by {calibration:.2e}"
    )


def test_criterion_09_plate_vs_droplet_claims(tmp_path):
    plate_m, _, plate_ann = generate(
        SynthConfig(n_clusters=2, cells_per_cluster=100, dropout_prob=0.3, seed=1),
        method="plate", replicate="r1",
    )
    droplet_m, _, droplet_ann = generate(
        SynthConfig(n_clusters=2, cells_per_cluster=1000, dropout_prob=0.8, seed=2),
        method="droplet", replicate="r1",
    )
    merged = vstack_cells([plate_m, droplet_m])
    write_matrix_market(merged.transpose(), tmp_path / "m.mtx")
    write_cell_annotations(plate_ann + droplet_ann, tmp_path / "c.csv")
    write_gene_annotations(merged.gene_ids, tmp_path / "g.csv")

    out = tmp_path / "out"
    t0 = time.perf_counter()
    rc = cli_main([
        "pipeline", "--matrix", str(tmp_path / "m.mtx"),
        "--cells", str(tmp_path / "c.csv"), "--genes", str(tmp_path / "g.csv"),
        "--iters", "250", "-o", str(out),
    ])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 60.0

    _, rows = read_table(out / "dropout.csv")
    stats = {
        r["method"]: (float(r["overall_dropout"]), float(r["median_genes_detected"]))
        for r in rows
    }
    assert stats["droplet"][0] > stats["plate"][0]
    assert stats["plate"][1] > stats["droplet"][1]

    _, cum = read_table(out / "cumulative.csv")
    cells_to_95 = {}
    for method in ("plate", "droplet"):
        curve = sorted(
            (int(r["n_cells"]), float(r["mean_genes_detected"]))
            for r in cum
            if r["method"] == method
        )
        detectable = curve[-1][1]
        cells_to_95[method] = next(
            x for x, y in curve if y >= 0.95 * detectable
        )
    assert cells_to_95["plate"] < cells_to_95["droplet"]
    print(
        "criterion 9 PASS: dropout "
        f"{stats['droplet'][0]:.3f} > {stats['plate'][0]:.3f}, medians "
        f"{stats['plate'][1]:.0f} > {stats['droplet'][1]:.0f}, 95% at "
        f"{cells_to_95['plate']} vs {cells_to_95['droplet']} cells, "
        f"{elapsed:.1f}s"
    )


def test_criterion_10_cluster_recovery_and_model_selection():
    recovered = 0
    for seed in range(20):
        m, truth, _ = generate(SynthConfig(dropout_prob=0.4, seed=seed))
        normalized, _ = preprocess_pipeline(m)
        emb, _ = pca_fit_transform(normalized, d=2)
        km3 = kmeans(emb.coordinates, 3, seed=0, restarts=10)
        if adjusted_rand_index(truth, km3.labels) >= 0.9:
            recovered += 1
        d = pairwise_distances(emb.coordinates)
        sil3 = silhouette(d, km3.labels).mean
        km6 = kmeans(emb.coordinates, 6, seed=0, restarts=10)
        sil6 = silhouette(d, km6.labels).mean
        assert sil3 > sil6
    assert recovered >= 18
    print(
        f"criterion 10 PASS: ARI >= 0.9 in {recovered}/20 seeds, "
        "silhouette k=3 > k=6 in all 20"
    )


def test_criterion_11_pipeline_reruns_are_byte_identical(tmp_path):
    data = tmp_path / "data"
    rc = cli_main([
        "synth", "--n-clusters", "3", "--cells-per-cluster", "15",
        "--n-genes", "40", "--marker-genes", "5", "--dropout-prob", "0.4",
        "--seed", "7", "-o", str(data),
    ])
    assert rc == 0
    args = [
        "pipeline", "--matrix", str(data / "matrix.mtx"),
        "--cells", str(data / "cells.csv"), "--genes", str(data / "genes.csv"),
        "--perplexity", "5", "--iters", "120", "--seed", "0",
    ]
    for out in ("a", "b"):
        assert cli_main(args + ["-o", str(tmp_path / out)]) == 0
    for name in TABLES + FIGURES + ["summary.json"]:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
    print(
        "criterion 11 PASS: "
        f"{len(TABLES)} CSVs, {len(FIGURES)} SVGs, summary.json byte-identical"
    )
