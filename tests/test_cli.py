"""End-to-end CLI behavior: artifacts, stages, config files, exit codes."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scbench
from scbench import (
    CellAnnotation,
    ExpressionMatrix,
    read_cell_annotations,
    read_config_comment,
    read_matrix_market,
    read_table,
    write_cell_annotations,
    write_matrix_market,
)
from scbench.cli import cli_main

SYNTH_ARGS = [
    "synth", "--n-clusters", "3", "--cells-per-cluster", "15",
    "--n-genes", "40", "--marker-genes", "5", "--dropout-prob", "0.4",
    "--seed", "7", "--method-name", "plate", "--replicate", "r1",
]
SPEED = ["--perplexity", "5", "--iters", "120", "--k", "3", "--seed", "0"]

TABLES = [
    "dropout.csv", "detection.csv", "cumulative.csv", "embedding_pca.csv",
    "embedding_tsne.csv", "clusters.csv", "silhouette.csv",
]
FIGURES = [
    "detection_box.svg", "cumulative.svg", "embedding_pca.svg",
    "embedding_tsne.svg", "dropout.svg", "silhouette.svg",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    assert cli_main(SYNTH_ARGS + ["-o", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def wide_dir(tmp_path_factory):
    # 45 cells and more than 50 genes after filtering: t-SNE pre-reduces
    d = tmp_path_factory.mktemp("wide")
    assert cli_main(["synth", "--cells-per-cluster", "15", "--n-genes", "100",
                     "--dropout-prob", "0.4", "--seed", "7", "-o", str(d)]) == 0
    return d


def two_replicates(data_dir, path):
    """Cells file putting the same cells into replicates r1 and r2 alternately."""
    anns = read_cell_annotations(data_dir / "cells.csv")
    write_cell_annotations(
        [CellAnnotation(a.cell_id, a.method, f"r{1 + i % 2}", a.cell_type)
         for i, a in enumerate(anns)],
        path,
    )
    return path


def input_args(data_dir):
    return [
        "--matrix", str(data_dir / "matrix.mtx"),
        "--cells", str(data_dir / "cells.csv"),
        "--genes", str(data_dir / "genes.csv"),
    ]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("out")
    assert cli_main(["pipeline", *input_args(data_dir), *SPEED, "-o", str(out)]) == 0
    return out


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 2
    assert cli_main([]) == 2
    capsys.readouterr()


def test_missing_required_flag_is_usage_error(capsys):
    assert cli_main(["pipeline", "-o", "unused"]) == 2
    assert cli_main(["report"]) == 2
    capsys.readouterr()


def test_synth_writes_ingestible_files(data_dir):
    m = read_matrix_market(data_dir / "matrix.mtx").transpose()
    assert (m.n_cells, m.n_genes) == (45, 40)
    anns = read_cell_annotations(data_dir / "cells.csv")
    assert len(anns) == 45
    assert {a.method for a in anns} == {"plate"}
    assert {a.cell_type for a in anns} == {"type0", "type1", "type2"}


def test_pipeline_emits_every_artifact(pipeline_dir):
    for name in TABLES + FIGURES + ["summary.json"]:
        assert (pipeline_dir / name).is_file(), name


def test_pipeline_summary_reports_ari_for_labeled_cells(pipeline_dir):
    payload = json.loads((pipeline_dir / "summary.json").read_text())
    assert payload["config"]["seed"] == 0
    assert payload["config"]["k"] == 3
    (entry,) = payload["splits"]
    assert (entry["method"], entry["replicate"]) == ("plate", "r1")
    assert entry["n_cells"] == 45
    assert -1.0 <= entry["ari"] <= 1.0
    assert read_config_comment(pipeline_dir / "dropout.csv") == payload["config"]


def test_pipeline_rerun_is_byte_identical(data_dir, pipeline_dir, tmp_path):
    assert cli_main(["pipeline", *input_args(data_dir), *SPEED, "-o", str(tmp_path)]) == 0
    for name in TABLES + FIGURES + ["summary.json"]:
        assert (tmp_path / name).read_bytes() == (pipeline_dir / name).read_bytes(), name


def test_data_errors_report_json_envelope(capsys, tmp_path, pipeline_dir):
    rc = cli_main(["qc", "--matrix", str(tmp_path / "absent.mtx"),
                   "-o", str(tmp_path)])
    assert rc == 1
    envelope = json.loads(capsys.readouterr().err)
    assert set(envelope) == {"error", "message"}
    assert "absent.mtx" in envelope["message"]

    # tables that disagree with each other
    tables = tmp_path / "tables"
    shutil.copytree(pipeline_dir, tables)
    text = (tables / "embedding_tsne.csv").read_text()
    (tables / "embedding_tsne.csv").write_text(text.replace(",dim1,", ",x1,", 1))
    assert cli_main(["report", "--input-dir", str(tables)]) == 1
    envelope = json.loads(capsys.readouterr().err)
    assert envelope == {
        "error": "DataError",
        "message": "embedding_tsne.csv has no 'dim1' column",
    }


@pytest.mark.parametrize(
    "command, flags",
    [
        ("split", []),
        ("qc", []),
        ("filter", []),
        ("normalize", []),
        ("embed", SPEED[:4]),
        ("cluster", SPEED),
        ("evaluate", SPEED),
        ("evaluate", [*SPEED[:4], "--cluster-method", "hclust", "--linkage", "ward",
                      "--k", "4"]),
    ],
)
def test_stage_rerun_is_byte_identical(data_dir, tmp_path, command, flags):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli_main([command, *input_args(data_dir), *flags, "-o", str(out)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names and names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_cluster_and_evaluate_skip_qc(data_dir, tmp_path, monkeypatch):
    def no_qc(*args, **kwargs):
        raise AssertionError("QC ran for a command that writes no QC table")

    monkeypatch.setattr(scbench.cli, "cumulative_detection", no_qc)
    for command in ("cluster", "evaluate"):
        out = tmp_path / command
        assert cli_main([command, *input_args(data_dir), *SPEED, "-o", str(out)]) == 0


def test_one_distance_matrix_per_split(data_dir, tmp_path, monkeypatch):
    cells = two_replicates(data_dir, tmp_path / "cells.csv")
    calls = []
    original = scbench.cluster.pairwise_distances

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scbench.cli, "pairwise_distances", counted)
    monkeypatch.setattr(scbench.cluster, "pairwise_distances", counted)
    rc = cli_main(["evaluate", "--matrix", str(data_dir / "matrix.mtx"),
                   "--cells", str(cells), *SPEED, "--cluster-method", "hclust",
                   "-o", str(tmp_path / "out")])
    assert rc == 0
    _, rows = read_table(tmp_path / "out" / "silhouette.csv")
    assert {r["replicate"] for r in rows} == {"r1", "r2"}
    assert len(calls) == 2


def test_pipeline_runs_on_a_split_of_at_most_50_cells(wide_dir, tmp_path):
    out = tmp_path / "out"
    assert cli_main(["pipeline", *input_args(wide_dir), *SPEED, "-o", str(out)]) == 0
    (entry,) = json.loads((out / "summary.json").read_text())["splits"]
    assert entry["n_cells"] == 45
    assert entry["n_genes_after_filter"] > 50


def test_one_pca_of_the_normalized_matrix_per_split(wide_dir, tmp_path, monkeypatch):
    normalized_splits, calls = [], []
    preprocess = scbench.cli.preprocess_pipeline
    pca = scbench.embed.pca_fit_transform

    def recorded(*args, **kwargs):
        normalized, trace = preprocess(*args, **kwargs)
        normalized_splits.append(normalized)
        return normalized, trace

    def counted(x, *args, **kwargs):
        calls.append(x.n_genes if isinstance(x, ExpressionMatrix) else x.shape[1])
        return pca(x, *args, **kwargs)

    monkeypatch.setattr(scbench.cli, "preprocess_pipeline", recorded)
    monkeypatch.setattr(scbench.cli, "pca_fit_transform", counted)
    monkeypatch.setattr(scbench.embed, "pca_fit_transform", counted)
    cells = two_replicates(wide_dir, tmp_path / "cells.csv")
    rc = cli_main(["embed", "--matrix", str(wide_dir / "matrix.mtx"), "--cells", str(cells),
                   *SPEED[:4], "-o", str(tmp_path / "out")])
    assert rc == 0
    widths = [n.n_genes for n in normalized_splits]
    assert len(widths) == 2 and min(widths) > 50
    assert sum(w in widths for w in calls) == 2
    # the PCA view is exactly what a d=2 fit gives, whatever the BLAS build
    _, rows = read_table(tmp_path / "out" / "embedding_pca.csv")
    written = {r["cell_id"]: [float(r["dim1"]), float(r["dim2"])] for r in rows}
    for normalized in normalized_splits:
        fit, _ = pca(normalized, 2)
        assert [written[c] for c in normalized.cell_ids] == fit.coordinates.tolist()


def test_infeasible_perplexity_is_reported_after_the_reduction(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    assert cli_main(["synth", "--cells-per-cluster", "10", "--n-genes", "100",
                     "--dropout-prob", "0.4", "--seed", "7", "-o", str(data)]) == 0
    dims = []
    pca = scbench.cli.pca_fit_transform

    def recorded(x, d, *args, **kwargs):
        dims.append(d)
        return pca(x, d, *args, **kwargs)

    monkeypatch.setattr(scbench.cli, "pca_fit_transform", recorded)
    rc = cli_main(["embed", *input_args(data), "--perplexity", "30", "-o", str(tmp_path)])
    assert rc == 1
    assert dims == [29]  # 30 cells: the pre-reduction keeps n - 1 components
    assert json.loads(capsys.readouterr().err) == {
        "error": "DataError",
        "message": "perplexity 30.0 infeasible for 30 points (need 3*perplexity < n)",
    }


def test_qc_stage_writes_qc_tables_only(data_dir, tmp_path):
    assert cli_main(["qc", *input_args(data_dir), "-o", str(tmp_path)]) == 0
    for name in ("dropout.csv", "detection.csv", "cumulative.csv"):
        assert (tmp_path / name).is_file()
    assert not (tmp_path / "embedding_pca.csv").exists()
    _, rows = read_table(tmp_path / "detection.csv")
    assert len(rows) == 45


def test_split_stage_round_trip(data_dir, tmp_path):
    assert cli_main(["split", *input_args(data_dir), "-o", str(tmp_path)]) == 0
    _, rows = read_table(tmp_path / "split_summary.csv")
    assert [
        (r["method"], r["replicate"], r["n_cells"], r["n_genes"]) for r in rows
    ] == [("plate", "r1", "45", "40")]
    part = read_matrix_market(tmp_path / "matrix_plate_r1.mtx").transpose()
    assert (part.n_cells, part.n_genes) == (45, 40)
    assert len(read_cell_annotations(tmp_path / "cells_plate_r1.csv")) == 45


def test_filter_stage_summary_arithmetic(data_dir, tmp_path):
    assert cli_main(["filter", *input_args(data_dir), "-o", str(tmp_path)]) == 0
    _, rows = read_table(tmp_path / "filter_summary.csv")
    (row,) = rows
    genes_out = int(row["genes_out"])
    assert genes_out == (
        int(row["genes_in"])
        - int(row["removed_by_sparsity"])
        - int(row["removed_by_cv"])
    )
    kept = read_matrix_market(tmp_path / "filtered_plate_r1.mtx").transpose()
    assert kept.n_genes == genes_out
    with open(tmp_path / "genes_plate_r1.csv") as fh:
        assert len(fh.readlines()) == genes_out + 1


def test_normalize_stage_writes_dense_matrix(data_dir, tmp_path):
    assert cli_main(["normalize", *input_args(data_dir), "-o", str(tmp_path)]) == 0
    header, rows = read_table(tmp_path / "normalized_plate_r1.csv")
    assert header[0] == "cell_id" and len(rows) == 45
    assert read_config_comment(tmp_path / "normalized_plate_r1.csv")["sample"] == "sample"


def test_embed_and_cluster_stages(data_dir, tmp_path):
    assert cli_main(["embed", *input_args(data_dir), *SPEED[:4], "-o", str(tmp_path)]) == 0
    for name in ("embedding_pca.csv", "embedding_tsne.csv"):
        _, rows = read_table(tmp_path / name)
        assert len(rows) == 45
    assert cli_main(["cluster", *input_args(data_dir), *SPEED, "-o", str(tmp_path)]) == 0
    _, rows = read_table(tmp_path / "clusters.csv")
    assert len(rows) == 45
    assert {r["cluster"] for r in rows} == {"0", "1", "2"}


def test_evaluate_stage_writes_metrics(data_dir, tmp_path):
    assert cli_main(["evaluate", *input_args(data_dir), *SPEED, "-o", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "metrics.json").read_text())
    (entry,) = payload["splits"]
    assert set(entry) == {"sample", "method", "replicate", "silhouette_mean", "ari"}
    _, rows = read_table(tmp_path / "silhouette.csv")
    assert rows[0]["cluster"] == "all"


STAGE_ARGS = {
    "split": [], "qc": [], "filter": [], "normalize": [], "embed": SPEED[:4],
    "cluster": SPEED, "evaluate": SPEED, "pipeline": SPEED,
}
STAGE_FILES = {
    "split": {"split_summary.csv", "matrix_plate_r1.mtx", "cells_plate_r1.csv"},
    "qc": {"dropout.csv", "detection.csv", "cumulative.csv"},
    "filter": {
        "filter_summary.csv", "filtered_plate_r1.mtx", "cells_plate_r1.csv",
        "genes_plate_r1.csv",
    },
    "normalize": {"normalized_plate_r1.csv"},
    "embed": {"embedding_pca.csv", "embedding_tsne.csv"},
    "cluster": {"clusters.csv"},
    "evaluate": {"silhouette.csv", "metrics.json"},
    "pipeline": {*TABLES, *FIGURES, "summary.json"},
}


@pytest.mark.parametrize("command", list(STAGE_FILES))
def test_stage_command_writes_exactly_its_files(data_dir, tmp_path, command):
    args = [command, *input_args(data_dir), *STAGE_ARGS[command], "-o", str(tmp_path)]
    assert cli_main(args) == 0
    assert {p.name for p in tmp_path.iterdir()} == STAGE_FILES[command]


def test_report_names_the_file_and_line_of_a_malformed_row(pipeline_dir, tmp_path, capsys):
    for name in TABLES:
        shutil.copy(pipeline_dir / name, tmp_path / name)
    lines = (tmp_path / "detection.csv").read_text().splitlines()
    lines[4] += ",extra"
    (tmp_path / "detection.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "figures"
    assert cli_main(["report", "--input-dir", str(tmp_path), "-o", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "FormatError",
        "message": f"{tmp_path / 'detection.csv'}:5: wrong field count",
    }
    assert not list(out.glob("*.svg"))


def test_report_subcommand_rebuilds_identical_figures(pipeline_dir, tmp_path):
    rc = cli_main(["report", "--input-dir", str(pipeline_dir), "-o", str(tmp_path)])
    assert rc == 0
    for name in FIGURES:
        assert (tmp_path / name).read_bytes() == (pipeline_dir / name).read_bytes()


def test_config_file_supplies_flags_and_cli_overrides(data_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg.write_text(
        "# speed settings\n"
        f"matrix={data_dir / 'matrix.mtx'}\n"
        f"cells={data_dir / 'cells.csv'}\n"
        f"genes={data_dir / 'genes.csv'}\n"
        f"output-dir={out_a}\n"
        "perplexity=5\n"
        "iters=120\n"
        "k=5\n"
    )
    assert cli_main(["pipeline", "--config", str(cfg)]) == 0
    _, rows = read_table(out_a / "clusters.csv")
    assert {r["cluster"] for r in rows} == {"0", "1", "2", "3", "4"}

    assert cli_main(["pipeline", "--config", str(cfg), "--k", "3",
                     "-o", str(out_b)]) == 0
    _, rows = read_table(out_b / "clusters.csv")
    assert {r["cluster"] for r in rows} == {"0", "1", "2"}


def test_config_file_errors_are_usage_errors(data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    assert cli_main(["qc", "--config", str(bad), *input_args(data_dir),
                     "-o", str(tmp_path)]) == 2
    bad.write_text("not_a_flag=1\n")
    assert cli_main(["qc", "--config", str(bad), *input_args(data_dir),
                     "-o", str(tmp_path)]) == 2
    assert cli_main(["qc", "--config", str(tmp_path / "missing.cfg"),
                     *input_args(data_dir), "-o", str(tmp_path)]) == 2
    # there is no metric option: clustering is always euclidean
    bad.write_text("metric=euclidean\n")
    assert cli_main(["cluster", "--config", str(bad), *input_args(data_dir),
                     "-o", str(tmp_path)]) == 2
    assert cli_main(["cluster", *input_args(data_dir), "--metric", "euclidean",
                     "-o", str(tmp_path)]) == 2
    capsys.readouterr()


def test_transpose_flag_accepts_cells_as_rows(data_dir, tmp_path):
    stored = read_matrix_market(data_dir / "matrix.mtx")
    write_matrix_market(stored.transpose(), tmp_path / "cells_first.mtx")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = ["--cells", str(data_dir / "cells.csv")]
    assert cli_main(["qc", "--matrix", str(data_dir / "matrix.mtx"),
                     *base, "-o", str(out_a)]) == 0
    assert cli_main(["qc", "--matrix", str(tmp_path / "cells_first.mtx"),
                     "--transpose", *base, "-o", str(out_b)]) == 0
    read = lambda d: read_table(d / "dropout.csv")[1]
    assert read(out_a) == read(out_b)


def test_join_by_id_matches_shuffled_annotations(data_dir, tmp_path):
    anns = [
        CellAnnotation(f"cell_{i}", "plate" if i < 20 else "droplet", "r1", None)
        for i in range(45)
    ]
    write_cell_annotations(anns, tmp_path / "ordered.csv")
    shuffled = anns[7:] + anns[:7]
    write_cell_annotations(shuffled, tmp_path / "shuffled.csv")

    out = {}
    for name, extra in (
        ("ordered", []),
        ("joined", ["--join-by-id"]),
        ("positional", []),
    ):
        src = "ordered.csv" if name == "ordered" else "shuffled.csv"
        d = tmp_path / name
        rc = cli_main(["qc", "--matrix", str(data_dir / "matrix.mtx"),
                       "--cells", str(tmp_path / src), *extra, "-o", str(d)])
        assert rc == 0
        out[name] = read_table(d / "dropout.csv")[1]
    assert out["joined"] == out["ordered"]
    assert out["positional"] != out["ordered"]


def test_synth_pipeline_round_trip_on_defaults(tmp_path):
    import time

    data, out = tmp_path / "data", tmp_path / "out"
    t0 = time.perf_counter()
    assert cli_main(["synth", "-o", str(data)]) == 0
    rc = cli_main(["pipeline", "--matrix", str(data / "matrix.mtx"),
                   "--cells", str(data / "cells.csv"),
                   "--genes", str(data / "genes.csv"), "-o", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 60.0
    payload = json.loads((out / "summary.json").read_text())
    (entry,) = payload["splits"]
    assert entry["ari"] >= 0.9


@pytest.mark.skipif(
    shutil.which("scbench") is None,
    reason="no scbench executable on PATH; install with "
    "`pip install -e . --no-build-isolation`",
)
def test_console_script_is_installed():
    exe = shutil.which("scbench")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pipeline" in proc.stdout


def test_console_entry_point_runs():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"scbench": "scbench.cli:main"}

    module, func = scripts["scbench"].split(":")
    env = dict(os.environ)
    src = str(Path(scbench.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # the body of the wrapper script pip writes for a console entry point
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'scbench'; sys.exit({func}())"
    )
    for cmd in (
        [sys.executable, "-c", wrapper, "--help"],
        [sys.executable, "-m", module, "--help"],
    ):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "pipeline" in proc.stdout
