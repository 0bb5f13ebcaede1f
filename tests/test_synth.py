"""Synthetic data generator: determinism, planted structure, dropout control."""
import numpy as np
import pytest
from conftest import same_matrix

from scbench import SynthConfig, DataError, dropout_rate, generate


def test_same_seed_reproduces_matrix():
    cfg = SynthConfig(cells_per_cluster=20, n_genes=50, seed=11)
    a, labels_a, ann_a = generate(cfg)
    b, labels_b, ann_b = generate(cfg)
    assert same_matrix(a, b)
    assert np.array_equal(labels_a, labels_b)
    assert ann_a == ann_b


def test_different_seeds_differ():
    cfg = SynthConfig(cells_per_cluster=20, n_genes=50, seed=1)
    other = SynthConfig(cells_per_cluster=20, n_genes=50, seed=2)
    assert not same_matrix(generate(cfg)[0], generate(other)[0])


def test_no_dropout_and_large_mean_leaves_few_zeros():
    cfg = SynthConfig(
        cells_per_cluster=30, n_genes=60, base_mean=200.0, dropout_prob=0.0,
        dispersion=20.0, seed=3,
    )
    m, _, _ = generate(cfg)
    assert dropout_rate(m).overall_rate < 0.01


def test_dropout_prob_orders_observed_dropout():
    higher = 0
    for seed in range(30):
        low = generate(SynthConfig(
            cells_per_cluster=30, n_genes=60, dropout_prob=0.3, seed=seed))[0]
        high = generate(SynthConfig(
            cells_per_cluster=30, n_genes=60, dropout_prob=0.8, seed=seed))[0]
        if dropout_rate(high).overall_rate > dropout_rate(low).overall_rate:
            higher += 1
    assert higher == 30


def test_dropout_monotone_in_probability():
    for seed in range(20):
        rates = [
            dropout_rate(generate(SynthConfig(
                cells_per_cluster=20, n_genes=40, dropout_prob=p, seed=seed
            ))[0]).overall_rate
            for p in (0.0, 0.3, 0.6, 0.9)
        ]
        assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_marker_genes_elevated_in_their_cluster():
    cfg = SynthConfig(seed=5)
    m, labels, _ = generate(cfg)
    dense = m.to_dense().values.astype(float)
    width = cfg.n_marker_genes_per_cluster
    for c in range(cfg.n_clusters):
        block = slice(c * width, (c + 1) * width)
        inside = dense[labels == c, block].mean()
        outside = dense[labels != c, block].mean()
        assert inside > 2.0 * outside


def test_label_blocks_match_cells_per_cluster():
    cfg = SynthConfig(n_clusters=4, cells_per_cluster=7, n_genes=50)
    m, labels, ann = generate(cfg)
    assert m.n_cells == 28
    assert np.bincount(labels).tolist() == [7, 7, 7, 7]
    assert len(ann) == 28


def test_annotations_carry_method_replicate_type():
    cfg = SynthConfig(cells_per_cluster=5, n_genes=40, seed=9)
    m, labels, ann = generate(cfg, method="plate", replicate="r2")
    assert [a.cell_id for a in ann] == list(m.cell_ids)
    assert all(a.method == "plate" and a.replicate == "r2" for a in ann)
    assert [a.cell_type for a in ann] == [f"type{c}" for c in labels]


def test_config_validation():
    with pytest.raises(DataError, match="positive"):
        SynthConfig(n_clusters=0)
    with pytest.raises(DataError, match="marker"):
        SynthConfig(n_clusters=3, n_marker_genes_per_cluster=10, n_genes=20)
    with pytest.raises(DataError, match="n_marker_genes_per_cluster must be non-negative"):
        SynthConfig(n_marker_genes_per_cluster=-1, n_genes=20)
    with pytest.raises(DataError, match="dropout_prob"):
        SynthConfig(dropout_prob=1.0)
    with pytest.raises(DataError, match="out of range"):
        SynthConfig(marker_fold=0.5)
    with pytest.raises(DataError, match="out of range"):
        SynthConfig(dispersion=0.0)
    for field in ("base_mean", "marker_fold", "dispersion"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(DataError, match=f"{field} must be finite"):
                SynthConfig(**{field: value})
