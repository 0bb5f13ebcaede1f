"""Artifact emission: CSV schemas, the JSON summary, SVG figures, determinism."""
import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

from scbench import (
    DataError,
    Embedding,
    SplitResult,
    SynthConfig,
    adjusted_rand_index,
    cumulative_detection,
    detection_stats,
    dropout_rate,
    emit_tables,
    generate,
    kmeans,
    pca_fit_transform,
    preprocess_pipeline,
    read_config_comment,
    read_table,
    rebuild_plots_from_tables,
    silhouette,
    tsne,
    write_csv,
    write_summary,
)
from scbench import svg

TABLES = [
    "dropout.csv",
    "detection.csv",
    "cumulative.csv",
    "embedding_pca.csv",
    "embedding_tsne.csv",
    "clusters.csv",
    "silhouette.csv",
]
FIGURES = [
    "detection_box.svg",
    "cumulative.svg",
    "embedding_pca.svg",
    "embedding_tsne.svg",
    "dropout.svg",
    "silhouette.svg",
]


def build_split(method, replicate, seed, with_truth):
    cfg = SynthConfig(
        n_clusters=3, cells_per_cluster=15, n_genes=40,
        n_marker_genes_per_cluster=5, dropout_prob=0.4, seed=seed,
    )
    m, truth, _ = generate(cfg, method=method, replicate=replicate)
    normalized, trace = preprocess_pipeline(m)
    pca_emb, _ = pca_fit_transform(normalized, d=2)
    tsne_emb = tsne(normalized, perplexity=5.0, seed=0, iters=120)
    km = kmeans(tsne_emb.coordinates, 3, seed=0)
    return SplitResult(
        sample="s",
        method=method,
        replicate=replicate,
        matrix=m,
        dropout=dropout_rate(m),
        detection=detection_stats(m),
        cumulative=cumulative_detection(m),
        trace=trace,
        normalized=normalized,
        pca=pca_emb,
        tsne=tsne_emb,
        labels=km.labels,
        silhouettes=silhouette(tsne_emb.coordinates, km.labels),
        ari=adjusted_rand_index(truth, km.labels) if with_truth else None,
    )


CONFIG = {"sample": "s", "seed": 3, "k": 3}


@pytest.fixture(scope="module")
def splits():
    return [
        build_split("plate", "r1", 10, True),
        build_split("droplet", "r1", 11, False),
    ]


def read_bytes(path):
    return path.read_bytes()


def test_write_csv_read_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [["a", "1", "0.5"], ["b", "2", "0.25"]]
    write_csv(path, '{"seed": 0}', ["name", "n", "frac"], rows)
    header, got = read_table(path)
    assert header == ["name", "n", "frac"]
    assert [[r["name"], r["n"], r["frac"]] for r in got] == rows
    assert read_config_comment(path) == {"seed": 0}


def test_read_config_comment_requires_leading_comment(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="config comment"):
        read_config_comment(path)


def test_emit_tables_writes_expected_files(splits, tmp_path):
    paths = emit_tables(splits, tmp_path, CONFIG)
    assert [p.name for p in paths] == TABLES
    for p in paths:
        assert read_config_comment(p) == CONFIG


def test_dropout_table_schema(splits, tmp_path):
    emit_tables(splits, tmp_path, CONFIG)
    header, rows = read_table(tmp_path / "dropout.csv")
    assert header == [
        "sample", "method", "replicate", "overall_dropout",
        "median_genes_detected",
    ]
    assert [(r["method"], r["replicate"]) for r in rows] == [
        ("plate", "r1"), ("droplet", "r1"),
    ]
    for row, s in zip(rows, splits):
        assert float(row["overall_dropout"]) == s.dropout.overall_rate
        assert float(row["median_genes_detected"]) == s.detection.median


def test_per_cell_tables_have_one_row_per_cell(splits, tmp_path):
    emit_tables(splits, tmp_path, CONFIG)
    n_cells = sum(s.matrix.n_cells for s in splits)
    for name in ("detection.csv", "clusters.csv"):
        _, rows = read_table(tmp_path / name)
        assert len(rows) == n_cells
    for name in ("embedding_pca.csv", "embedding_tsne.csv"):
        header, rows = read_table(tmp_path / name)
        assert header[-2:] == ["dim1", "dim2"]
        assert len(rows) == n_cells


def test_embedding_table_round_trips_coordinates(splits, tmp_path):
    emit_tables(splits, tmp_path, CONFIG)
    _, rows = read_table(tmp_path / "embedding_tsne.csv")
    got = np.array([[float(r["dim1"]), float(r["dim2"])] for r in rows])
    expected = np.vstack([s.tsne.coordinates for s in splits])
    assert np.array_equal(got, expected)


def test_silhouette_table_has_overall_and_per_cluster_rows(splits, tmp_path):
    emit_tables(splits, tmp_path, CONFIG)
    _, rows = read_table(tmp_path / "silhouette.csv")
    for s in splits:
        mine = [r for r in rows if r["method"] == s.method]
        assert [r["cluster"] for r in mine] == ["all", "0", "1", "2"]
        assert float(mine[0]["mean_silhouette"]) == s.silhouettes.mean
        assert sum(int(r["n_points"]) for r in mine[1:]) == int(mine[0]["n_points"])


def test_emit_tables_rejects_an_embedding_that_is_not_one_2d_point_per_cell(splits, tmp_path):
    s = splits[1]
    three_d = {
        "pca": pca_fit_transform(s.normalized, d=3)[0],
        "tsne": tsne(s.normalized, perplexity=5.0, d=3, seed=0, iters=20),
    }
    for which, emb in three_d.items():
        bad = dataclasses.replace(s, **{which: emb})
        message = f"split droplet/r1: {which} embedding is 45x3, not 45x2"
        with pytest.raises(DataError, match=message):
            emit_tables([splits[0], bad], tmp_path, CONFIG)
    short = Embedding(s.tsne.coordinates[:40], "tsne", {}, seed=0)
    with pytest.raises(DataError, match="tsne embedding is 40x2, not 45x2"):
        emit_tables([splits[0], dataclasses.replace(s, tsne=short)], tmp_path, CONFIG)
    # every row is built before any file is written
    assert not list(tmp_path.iterdir())


def test_summary_json_contents(splits, tmp_path):
    path = write_summary(splits, tmp_path / "summary.json", CONFIG)
    payload = json.loads(path.read_text())
    assert payload["config"] == CONFIG
    assert len(payload["splits"]) == 2
    first, second = payload["splits"]
    assert "ari" in first and "ari" not in second
    assert first["n_cells"] == splits[0].matrix.n_cells
    assert first["n_genes_after_filter"] == splits[0].trace.genes_out
    assert first["silhouette_mean"] == splits[0].silhouettes.mean


def test_emitted_artifacts_are_byte_identical_across_runs(splits, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        emit_tables(splits, d, CONFIG)
        write_summary(splits, d / "summary.json", CONFIG)
        rebuild_plots_from_tables(d, d)
    for name in TABLES + FIGURES + ["summary.json"]:
        assert read_bytes(a / name) == read_bytes(b / name), name


def test_rebuild_writes_six_figures(splits, tmp_path):
    emit_tables(splits, tmp_path, CONFIG)
    paths = rebuild_plots_from_tables(tmp_path, tmp_path)
    assert [p.name for p in paths] == FIGURES
    for p in paths:
        text = p.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
        assert "<!-- config: " in text


def test_rebuild_requires_splits(tmp_path):
    emit_tables([], tmp_path, CONFIG)
    with pytest.raises(DataError, match="no splits"):
        rebuild_plots_from_tables(tmp_path, tmp_path)


def test_emit_tables_with_no_splits_writes_headers_only(tmp_path):
    paths = emit_tables([], tmp_path, CONFIG)
    for p in paths:
        _, rows = read_table(p)
        assert rows == []


def test_rebuilt_figures_match_original_bytes(splits, tmp_path):
    # pipeline draws in place; report redraws into another directory
    src, dst = tmp_path / "src", tmp_path / "dst"
    emit_tables(splits, src, CONFIG)
    originals = rebuild_plots_from_tables(src, src)
    rebuilt = rebuild_plots_from_tables(src, dst)
    assert [p.name for p in rebuilt] == [p.name for p in originals]
    for orig, new in zip(originals, rebuilt):
        assert read_bytes(orig) == read_bytes(new), orig.name


def test_rebuild_rejects_mismatched_tables(splits, tmp_path):
    src = tmp_path / "src"
    emit_tables(splits, src, CONFIG)
    # figures a failing rebuild must leave byte-unchanged
    old = tmp_path / "old"
    old.mkdir()
    for name in FIGURES:
        (old / name).write_text(f"<!-- old {name} -->\n")

    fresh_dirs = (tmp_path / f"fresh{i}" for i in itertools.count())

    def rejects(match):
        fresh = next(fresh_dirs)
        for dst in (fresh, old):
            with pytest.raises(DataError, match=match):
                rebuild_plots_from_tables(src, dst)
        assert not list(fresh.glob("*.svg"))
        for name in FIGURES:
            assert (old / name).read_text() == f"<!-- old {name} -->\n"

    clusters = (src / "clusters.csv").read_text().splitlines()
    # swap two data rows so cell order no longer matches the embedding table
    swapped = list(clusters)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    (src / "clusters.csv").write_text("\n".join(swapped) + "\n")
    rejects("disagree")

    # one split's rows missing from clusters.csv
    kept = [ln for ln in clusters if ",droplet,r1," not in ln]
    (src / "clusters.csv").write_text("\n".join(kept) + "\n")
    rejects("clusters.csv has no rows for split droplet/r1")

    # one split's rows missing from an embedding table or from dropout.csv
    for name in ("embedding_pca.csv", "dropout.csv"):
        emit_tables(splits, src, CONFIG)
        text = (src / name).read_text().splitlines()
        kept = [ln for ln in text if ",plate,r1," not in ln]
        (src / name).write_text("\n".join(kept) + "\n")
        rejects(f"{name} has no rows for split plate/r1")

    # a split that only silhouette.csv names
    emit_tables(splits, src, CONFIG)
    text = (src / "silhouette.csv").read_text()
    (src / "silhouette.csv").write_text(text + "s,extra,r9,3,all,5,0.5\n")
    rejects("silhouette.csv has split extra/r9")

    # a coordinate column renamed
    emit_tables(splits, src, CONFIG)
    tsne_table = (src / "embedding_tsne.csv").read_text()
    (src / "embedding_tsne.csv").write_text(tsne_table.replace(",dim1,", ",x1,", 1))
    rejects("embedding_tsne.csv has no 'dim1' column")


def write_fixed_tables(path):
    """The seven tables the figures read, for two splits, from seeded numbers.

    No PCA, t-SNE or other BLAS call makes them, so no kernel choice can
    move a figure drawn from them.
    """
    rng = np.random.default_rng(33)
    columns = {
        "dropout.csv": ["overall_dropout", "median_genes_detected"],
        "detection.csv": ["cell_id", "genes_detected"],
        "cumulative.csv": ["n_cells", "mean_genes_detected"],
        "embedding_pca.csv": ["cell_id", "dim1", "dim2"],
        "embedding_tsne.csv": ["cell_id", "dim1", "dim2"],
        "clusters.csv": ["cell_id", "cluster", "silhouette_width"],
        "silhouette.csv": ["k", "cluster", "n_points", "mean_silhouette"],
    }
    rows = {name: [] for name in columns}
    for method, n in (("plate", 14), ("droplet", 11)):
        key = ["s", method, "r1"]
        cells = [f"{method}_{i}" for i in range(n)]
        labels = np.arange(n) % 3
        detected = rng.integers(5, 40, n)
        rows["dropout.csv"].append(key + [f"{rng.random():.6f}", str(np.median(detected))])
        rows["detection.csv"] += [key + [c, str(d)] for c, d in zip(cells, detected)]
        mean = np.cumsum(rng.random(n) * 3.0) + 10.0
        rows["cumulative.csv"] += [key + [str(i + 1), f"{y:.6f}"] for i, y in enumerate(mean)]
        for name in ("embedding_pca.csv", "embedding_tsne.csv"):
            xy = rng.random((n, 2)) * 20.0 - 10.0
            rows[name] += [key + [c, f"{x:.6f}", f"{y:.6f}"] for c, (x, y) in zip(cells, xy)]
        widths = rng.random(n) * 2.0 - 1.0
        rows["clusters.csv"] += [
            key + [c, str(lab), f"{w:.6f}"] for c, lab, w in zip(cells, labels, widths)
        ]
        rows["silhouette.csv"].append(key + ["3", "all", str(n), f"{widths.mean():.6f}"])
        for c in range(3):
            sel = labels == c
            rows["silhouette.csv"].append(
                key + ["3", str(c), str(int(sel.sum())), f"{widths[sel].mean():.6f}"]
            )
    for name, cols in columns.items():
        write_csv(path / name, json.dumps(CONFIG), ["sample", "method", "replicate", *cols],
                  rows[name])


# sha256 of each figure drawn from write_fixed_tables
FIXED_FIGURE_SHA256 = {
    "detection_box.svg": "2133c5d2034c2aec2e1fb3c141638241bd9dfeb403be064ac3f00cb5469b1e85",
    "cumulative.svg": "c0b98bf8d4067e6c88f4419374c49d4a8601ff9967e689610ed05c5b9803b069",
    "embedding_pca.svg": "3e9b53467d6e20ad4ef2c022a25998913c6e10ae20114bd059ac30ceaba1df4a",
    "embedding_tsne.svg": "f968addab894c5a9362daec1303d7b6cfb0f91628dbb3877d380349a7bac68e3",
    "dropout.svg": "1c52f55d90ba903f423dfb9b9e7a26c6dfa885f87ef543a250c3ff56491878c7",
    "silhouette.svg": "d911d6207d4dd73f6d5292bed86c11720c9271367061e32c6469890b4d53c521",
}


def test_figures_from_fixed_tables_keep_their_bytes(tmp_path):
    write_fixed_tables(tmp_path)
    paths = rebuild_plots_from_tables(tmp_path, tmp_path / "out")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert got == FIXED_FIGURE_SHA256


def test_scatter_chart_draws_each_point():
    rng = np.random.default_rng(0)
    groups = [(label, rng.normal(size=(n, 2))) for label, n in (("a", 12), ("b", 0), ("c", 25))]
    text = svg.scatter_chart(groups, "t", "x", "y")
    # 37 data points + 3 legend markers
    assert text.count("<circle") == 40


def test_scatter_chart_validates_inputs():
    with pytest.raises(DataError, match="at least one value"):
        svg.scatter_chart([], "t", "x", "y")
    with pytest.raises(DataError, match="n x 2"):
        svg.scatter_chart([("a", np.zeros((3, 2))), ("b", np.zeros((3, 3)))], "t", "x", "y")
    with pytest.raises(DataError, match="n x 2"):
        svg.scatter_chart([("a", np.zeros(4))], "t", "x", "y")
    with pytest.raises(DataError, match="at least one value"):
        svg.scatter_chart([("a", np.zeros((0, 2)))], "t", "x", "y")


def test_boxplot_jitter_is_seeded():
    groups = [("g", np.arange(10.0))]
    a = svg.boxplot_chart(groups, "t", "y", seed=1)
    assert a == svg.boxplot_chart(groups, "t", "y", seed=1)
    assert a != svg.boxplot_chart(groups, "t", "y", seed=2)


def test_empty_chart_inputs_rejected():
    with pytest.raises(DataError):
        svg.boxplot_chart([], "t", "y")
    with pytest.raises(DataError):
        svg.line_chart([], "t", "x", "y")
    with pytest.raises(DataError):
        svg.bar_chart([], "t", "y")


def test_svg_escape_equals_saxutils_escape():
    from xml.sax.saxutils import escape as sax_escape

    for text in ("&<>\"'", "a<b>&c", "&amp;&lt;", "x > 1 & y < 2", "platé", ""):
        assert svg.escape(text) == sax_escape(text)


def test_config_comment_is_escaped_in_svg():
    text = svg.bar_chart([("a", 1.0)], "t", "y", comment='{"x": "<&>"}')
    assert "<!-- config: " in text
    assert "&lt;&amp;&gt;" in text
