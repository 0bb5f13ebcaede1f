"""End-to-end CLI behavior: artifacts, stages, config files, exit codes."""
import ast
import builtins
import dataclasses
import gzip
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import modules_imported_by

import scbench
from scbench import (
    CellAnnotation,
    DataError,
    ExpressionMatrix,
    read_cell_annotations,
    read_config_comment,
    read_matrix_market,
    read_table,
    write_cell_annotations,
    write_matrix_market,
)
from scbench._util import openblas_thread_calls, single_threaded_blas, worker_count
from scbench.cli import build_parser, cli_main

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


def test_split_pool_size_does_not_change_the_bytes(data_dir, tmp_path, monkeypatch):
    # two splits, run one after the other and then side by side on the pool
    cells = two_replicates(data_dir, tmp_path / "cells.csv")
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("SCBENCH_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        rc = cli_main(["pipeline", "--matrix", str(data_dir / "matrix.mtx"),
                       "--cells", str(cells), *SPEED, "-o", str(out)])
        assert rc == 0
        outs.append(out)
    splits = json.loads((outs[0] / "summary.json").read_text())["splits"]
    assert len(splits) == 2
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


FORK = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


def two_split_pipeline(data_dir, tmp_path):
    cells = two_replicates(data_dir, tmp_path / "cells.csv")
    return ["pipeline", "--matrix", str(data_dir / "matrix.mtx"), "--cells", str(cells),
            *SPEED, "-o", str(tmp_path / "out")]


@FORK
def test_only_chains_that_reach_tsne_run_in_forked_workers(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("SCBENCH_THREADS", "2")
    cells = two_replicates(data_dir, tmp_path / "cells.csv")
    depths = []
    compute = scbench.cli._compute_split

    def recorded(*args):
        depths.append(args[-1])  # appended in this process only
        return compute(*args)

    monkeypatch.setattr(scbench.cli, "_compute_split", recorded)
    for command in ("split", "qc", "filter", "normalize", "embed", "evaluate"):
        flags = SPEED[:4] if command == "embed" else SPEED if command == "evaluate" else []
        rc = cli_main([command, "--matrix", str(data_dir / "matrix.mtx"), "--cells", str(cells),
                       *flags, "-o", str(tmp_path / command)])
        assert rc == 0
    assert depths == ["split", "split", "qc", "qc", "filter", "filter",
                      "normalize", "normalize"]


@FORK
def test_a_dead_split_worker_gets_the_envelope(data_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SCBENCH_THREADS", "2")
    # runs in the forked workers, which inherit the patched module
    monkeypatch.setattr(scbench.cli, "_compute_split", lambda *args: os._exit(3))
    assert cli_main(two_split_pipeline(data_dir, tmp_path)) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "DataError",
        "message": "a split worker ended abnormally (killed by a signal, out of memory, "
                   "or exited)",
    }
    assert multiprocessing.active_children() == []


@FORK
def test_a_data_error_in_one_split_worker_joins_them_all(data_dir, tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setenv("SCBENCH_THREADS", "2")
    compute = scbench.cli._compute_split

    def second_fails(args, key, *rest):
        if key[1] == "r2":
            raise DataError("split r2 is bad")
        return compute(args, key, *rest)

    monkeypatch.setattr(scbench.cli, "_compute_split", second_fails)
    assert cli_main(two_split_pipeline(data_dir, tmp_path)) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "DataError", "message": "split r2 is bad",
    }
    assert multiprocessing.active_children() == []


def arrays_in(obj):
    """Every numpy array reachable from `obj` through dataclass fields, dicts,
    lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from arrays_in(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from arrays_in(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from arrays_in(v)


@FORK
def test_a_forked_worker_returns_no_cells_by_genes_array_and_no_entries(data_dir, tmp_path,
                                                                         monkeypatch):
    monkeypatch.setenv("SCBENCH_THREADS", "2")
    in_parent, returned = [], []
    compute, run = scbench.cli._compute_split, scbench.cli._parallel_map

    def recorded(*args):
        in_parent.append(args[1])  # appended in this process only
        return compute(*args)

    def kept(keys, depth):
        returned.extend(run(keys, depth))
        return returned

    monkeypatch.setattr(scbench.cli, "_compute_split", recorded)
    monkeypatch.setattr(scbench.cli, "_parallel_map", kept)
    args = two_split_pipeline(data_dir, tmp_path)
    assert cli_main(args) == 0
    assert in_parent == [] and len(returned) == 2
    splits = scbench.split_by_method_replicate(
        read_matrix_market(data_dir / "matrix.mtx").transpose(),
        read_cell_annotations(tmp_path / "cells.csv"),
    )
    for r, (sub, _) in zip(returned, splits.values()):
        assert r.matrix is r.annotations is r.filtered is r.normalized is None
        for a in arrays_in(r):
            # per-cell and per-gene vectors and 2-d coordinates only
            assert a.ndim == 1 or a.shape[1:] == (2,), a.shape
            assert a.size < sub.nnz, a.shape
    # the parent puts its own counts back: the artifacts do not change
    monkeypatch.setenv("SCBENCH_THREADS", "1")
    inline = tmp_path / "inline"
    assert cli_main([*args[:-1], str(inline)]) == 0
    names = sorted(p.name for p in inline.iterdir())
    assert names == sorted(p.name for p in (tmp_path / "out").iterdir())
    for name in names:
        assert (inline / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name


def test_worker_count_defaults_to_the_usable_cores(monkeypatch):
    monkeypatch.delenv("SCBENCH_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 6}, raising=False)
    assert worker_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert worker_count() == 8
    monkeypatch.setenv("SCBENCH_THREADS", "0")
    assert worker_count() == 1
    monkeypatch.setenv("SCBENCH_THREADS", "5")
    assert worker_count() == 5


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


@pytest.mark.parametrize("flag", ["--matrix", "--cells", "--genes"])
def test_a_truncated_gzip_input_is_a_format_error_that_writes_nothing(
    data_dir, tmp_path, capsys, flag
):
    args = input_args(data_dir)
    i = args.index(flag) + 1
    blob = gzip.compress(Path(args[i]).read_bytes())
    cut = tmp_path / (Path(args[i]).name + ".gz")
    cut.write_bytes(blob[: len(blob) // 2])
    args[i] = str(cut)
    out = tmp_path / "out"
    assert cli_main(["qc", *args, "-o", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "FormatError",
        "message": f"{cut}: gzip stream ends early; the file is truncated",
    }
    assert not out.exists()


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
    # hclust's working copy is each hclust split's one n x n matrix; the
    # k-means path and the silhouettes read distance strips and build none.
    # In-line splits: calls made in a forked worker do not reach `calls`
    monkeypatch.setenv("SCBENCH_THREADS", "1")
    cells = two_replicates(data_dir, tmp_path / "cells.csv")
    calls = []
    original = scbench.cluster.pairwise_distances

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scbench.cli, "pairwise_distances", counted)
    monkeypatch.setattr(scbench.cluster, "pairwise_distances", counted)
    for method, matrices in (("hclust", 2), ("kmeans", 0)):
        calls.clear()
        out = tmp_path / method
        rc = cli_main(["evaluate", "--matrix", str(data_dir / "matrix.mtx"),
                       "--cells", str(cells), *SPEED, "--cluster-method", method,
                       "-o", str(out)])
        assert rc == 0
        _, rows = read_table(out / "silhouette.csv")
        assert {r["replicate"] for r in rows} == {"r1", "r2"}
        assert len(calls) == matrices, method


def test_pipeline_runs_on_a_split_of_at_most_50_cells(wide_dir, tmp_path):
    out = tmp_path / "out"
    assert cli_main(["pipeline", *input_args(wide_dir), *SPEED, "-o", str(out)]) == 0
    (entry,) = json.loads((out / "summary.json").read_text())["splits"]
    assert entry["n_cells"] == 45
    assert entry["n_genes_after_filter"] > 50


def test_one_pca_of_the_normalized_matrix_per_split(wide_dir, tmp_path, monkeypatch):
    # in-line splits: calls made in a forked worker do not reach `calls`
    monkeypatch.setenv("SCBENCH_THREADS", "1")
    normalized_splits, calls, tsne_inputs = [], [], []
    preprocess = scbench.cli.preprocess_pipeline
    pca = scbench.embed.pca_fit_transform
    tsne = scbench.cli.tsne

    def recorded(*args, **kwargs):
        normalized, trace = preprocess(*args, **kwargs)
        normalized_splits.append(normalized)
        return normalized, trace

    def counted(x, *args, **kwargs):
        calls.append(x.n_genes if isinstance(x, ExpressionMatrix) else x.shape[1])
        return pca(x, *args, **kwargs)

    def recorded_tsne(x, *args, **kwargs):
        tsne_inputs.append(x)
        return tsne(x, *args, **kwargs)

    monkeypatch.setattr(scbench.cli, "preprocess_pipeline", recorded)
    monkeypatch.setattr(scbench.cli, "tsne", recorded_tsne)
    monkeypatch.setattr(scbench.cli, "pca_fit_transform", counted)
    monkeypatch.setattr(scbench.embed, "pca_fit_transform", counted)
    cells = two_replicates(wide_dir, tmp_path / "cells.csv")
    rc = cli_main(["embed", "--matrix", str(wide_dir / "matrix.mtx"), "--cells", str(cells),
                   *SPEED[:4], "-o", str(tmp_path / "out")])
    assert rc == 0
    widths = [n.n_genes for n in normalized_splits]
    assert len(widths) == 2 and min(widths) > 50
    assert sum(w in widths for w in calls) == 2
    # the PCA view is the first two columns of the reduction t-SNE reads
    _, rows = read_table(tmp_path / "out" / "embedding_pca.csv")
    written = {r["cell_id"]: [float(r["dim1"]), float(r["dim2"])] for r in rows}
    assert len(tsne_inputs) == 2
    for normalized, points in zip(normalized_splits, tsne_inputs):
        assert [written[c] for c in normalized.cell_ids] == points[:, :2].tolist()


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


def test_a_split_of_few_genes_runs_tsne_on_its_full_rank_reduction(
    data_dir, tmp_path, monkeypatch
):
    # two in-line splits of 22 and 23 cells, each with at most 40 kept genes
    monkeypatch.setenv("SCBENCH_THREADS", "1")
    pcas, tsne_inputs = [], []
    pca, tsne = scbench.cli.pca_fit_transform, scbench.cli.tsne

    def recorded_pca(x, d, *args, **kwargs):
        reduced, model = pca(x, d, *args, **kwargs)
        pcas.append((x.n_cells, x.n_genes, d, reduced.coordinates))
        return reduced, model

    def recorded_tsne(x, *args, **kwargs):
        tsne_inputs.append(x)
        return tsne(x, *args, **kwargs)

    monkeypatch.setattr(scbench.cli, "pca_fit_transform", recorded_pca)
    monkeypatch.setattr(scbench.cli, "tsne", recorded_tsne)
    cells = two_replicates(data_dir, tmp_path / "cells.csv")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        rc = cli_main(["embed", "--matrix", str(data_dir / "matrix.mtx"), "--cells", str(cells),
                       *SPEED[:4], "-o", str(out)])
        assert rc == 0
    assert same_tree(*outs) == []
    # one CLI PCA per split and run; t-SNE reads exactly its scores
    assert len(pcas) == len(tsne_inputs) == 4
    for (n, g, d, scores), points in zip(pcas, tsne_inputs):
        assert g <= 40 and d == min(n - 1, g)
        assert points is scores and points.shape == (n, d)


def test_nan_perplexity_is_a_data_error_that_writes_nothing(data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli_main(["embed", *input_args(data_dir), "--perplexity", "nan", "-o", str(out)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "DataError",
        "message": "perplexity nan infeasible for 45 points (need 3*perplexity < n)",
    }
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "split", "qc", "filter", "normalize", "embed", "cluster", "evaluate", "pipeline", "synth",
])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_a_negative_seed_is_a_usage_error_that_writes_nothing(
    data_dir, tmp_path, capsys, command, how
):
    args = [] if command == "synth" else input_args(data_dir)
    if how == "flag":
        args += ["--seed", "-1"]
    else:
        (tmp_path / "seed.cfg").write_text("seed=-1\n")
        args += ["--config", str(tmp_path / "seed.cfg")]
    out = tmp_path / "out"
    assert cli_main([command, *args, "-o", str(out)]) == 2
    assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()


def test_a_negative_marker_gene_count_is_a_data_error_that_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["synth", "--marker-genes", "-1", "--n-genes", "20",
                     "--cells-per-cluster", "5", "-o", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "DataError",
        "message": "n_marker_genes_per_cluster must be non-negative, got -1",
    }
    assert not out.exists()


@pytest.mark.parametrize("threads, args", [
    ("1", ["embed", *SPEED[:2], "--iters", "100000000000"]),
    ("1", ["cluster", *SPEED[:4], "--restarts", "1000000000000"]),
    ("2", ["cluster", *SPEED[:4], "--restarts", "1000000000000"]),
    ("1", ["synth", "--n-genes", "1000000000000"]),
])
def test_an_allocation_numpy_refuses_ends_in_the_envelope(data_dir, tmp_path, threads, args):
    # a child capped at 2 GiB of address space, so the request fails at once
    # instead of being granted by overcommit; threads 2 runs two splits forked
    if args[0] != "synth":
        args = [*args, "--matrix", str(data_dir / "matrix.mtx"),
                "--cells", str(two_replicates(data_dir, tmp_path / "cells.csv"))]
    script = (
        "import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
        "from scbench.cli import cli_main\nsys.exit(cli_main(sys.argv[1:]))\n"
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", script, *args, "-o", str(out)], capture_output=True,
        text=True, env=subprocess_env(OPENBLAS_NUM_THREADS="1", SCBENCH_THREADS=threads),
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    envelope = json.loads(proc.stderr)
    assert envelope["error"] == "MemoryError"
    assert envelope["message"].startswith("Unable to allocate")
    assert not out.exists()


def test_qc_stage_writes_qc_tables_only(data_dir, tmp_path):
    assert cli_main(["qc", *input_args(data_dir), "-o", str(tmp_path)]) == 0
    for name in ("dropout.csv", "detection.csv", "cumulative.csv"):
        assert (tmp_path / name).is_file()
    assert not (tmp_path / "embedding_pca.csv").exists()
    _, rows = read_table(tmp_path / "detection.csv")
    assert len(rows) == 45


def test_qc_tables_do_not_depend_on_the_seed(data_dir, tmp_path):
    for seed in ("0", "5"):
        assert cli_main(["qc", *input_args(data_dir), "--seed", seed,
                         "-o", str(tmp_path / seed)]) == 0
    for name in ("dropout.csv", "detection.csv", "cumulative.csv"):
        config_0, *rows_0 = (tmp_path / "0" / name).read_text().splitlines()
        config_5, *rows_5 = (tmp_path / "5" / name).read_text().splitlines()
        assert config_0.startswith("# config:") and config_5.startswith("# config:")
        assert '"seed":0' in config_0 and '"seed":5' in config_5
        assert rows_0 == rows_5, name


def test_split_stage_round_trip(data_dir, tmp_path):
    assert cli_main(["split", *input_args(data_dir), "-o", str(tmp_path)]) == 0
    _, rows = read_table(tmp_path / "split_summary.csv")
    assert [
        (r["method"], r["replicate"], r["n_cells"], r["n_genes"]) for r in rows
    ] == [("plate", "r1", "45", "40")]
    part = read_matrix_market(tmp_path / "matrix_plate_r1.mtx").transpose()
    assert (part.n_cells, part.n_genes) == (45, 40)
    assert len(read_cell_annotations(tmp_path / "cells_plate_r1.csv")) == 45


@pytest.mark.parametrize("command", ["split", "filter", "normalize"])
def test_splits_sharing_a_file_stem_are_rejected_before_writing(data_dir, tmp_path, capsys, command):
    # "a-b" and "a/b" both become the file stem "a-b_r1"
    anns = read_cell_annotations(data_dir / "cells.csv")
    cells = tmp_path / "cells.csv"
    write_cell_annotations(
        [CellAnnotation(a.cell_id, ("a-b", "a/b")[i % 2], "r1", a.cell_type)
         for i, a in enumerate(anns)],
        cells,
    )
    out = tmp_path / "out"
    rc = cli_main([command, "--matrix", str(data_dir / "matrix.mtx"), "--cells", str(cells),
                   "-o", str(out)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "DataError",
        "message": "splits 'a-b'/'r1' and 'a/b'/'r1' share the file stem 'a-b_r1'",
    }
    assert not out.exists()


def test_sample_names_may_start_with_a_hash(data_dir, tmp_path):
    # only the leading "# config: " line of a table is a comment
    rc = cli_main(["pipeline", *input_args(data_dir), *SPEED, "--sample", "#s",
                   "-o", str(tmp_path)])
    assert rc == 0
    for name in TABLES:
        _, rows = read_table(tmp_path / name)
        assert rows and {r["sample"] for r in rows} == {"#s"}, name
    for name in FIGURES:
        assert (tmp_path / name).is_file(), name


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


INPUT_KEYS = {"sample", "matrix", "cells", "genes", "transpose", "join_by_id", "seed"}
FILTER_KEYS = {"zero_threshold", "cv_fraction", "normalize_axis", "log1p"}
EMBED_KEYS = {"perplexity", "iters"}
CLUSTER_KEYS = {"k", "cluster_method", "linkage", "restarts"}
STAGE_CONFIG_KEYS = {
    "split": INPUT_KEYS,
    "qc": INPUT_KEYS,
    "filter": INPUT_KEYS | FILTER_KEYS,
    "normalize": INPUT_KEYS | FILTER_KEYS,
    "embed": INPUT_KEYS | FILTER_KEYS | EMBED_KEYS,
    "cluster": INPUT_KEYS | FILTER_KEYS | EMBED_KEYS | CLUSTER_KEYS,
    "evaluate": INPUT_KEYS | FILTER_KEYS | EMBED_KEYS | CLUSTER_KEYS,
    "pipeline": INPUT_KEYS | FILTER_KEYS | EMBED_KEYS | CLUSTER_KEYS,
}


@pytest.mark.parametrize("command", list(STAGE_CONFIG_KEYS))
def test_config_comment_holds_the_flags_of_the_stage(data_dir, tmp_path, command):
    # every flag the command takes but --output-dir and --config
    args = [command, *input_args(data_dir), *STAGE_ARGS[command], "-o", str(tmp_path)]
    assert cli_main(args) == 0
    configs = [read_config_comment(p) for p in sorted(tmp_path.glob("*.csv"))
               if not p.name.startswith(("cells_", "genes_"))]
    configs += [json.loads(p.read_text())["config"] for p in tmp_path.glob("*.json")]
    assert configs
    for config in configs:
        assert set(config) == STAGE_CONFIG_KEYS[command]
        assert config["matrix"] == str(data_dir / "matrix.mtx")


def test_readme_lists_every_pipeline_flag():
    # the long options named in README's "Common flags" bullets
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Common flags:", 1)[1].split("\n\n", 2)[1]
    documented = set(re.findall(r"`(--[a-z0-9-]+)", section))
    _, table = build_parser()
    options = {o for a in table["pipeline"]._actions for o in a.option_strings
               if o.startswith("--") and o != "--help"}
    assert documented == options


def subprocess_env(**extra):
    env = dict(os.environ)
    src = str(Path(scbench.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def run_cli(args, env):
    proc = subprocess.run([sys.executable, "-m", "scbench.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


def same_tree(a: Path, b: Path) -> list[str]:
    """Names of the files in a whose bytes differ from b's; all must exist in both."""
    names = sorted(p.name for p in a.iterdir())
    assert names and names == sorted(p.name for p in b.iterdir())
    return [n for n in names if (a / n).read_bytes() != (b / n).read_bytes()]


def test_artifacts_are_utf8_in_an_ascii_locale(data_dir, tmp_path):
    anns = read_cell_annotations(data_dir / "cells.csv")
    anns = [CellAnnotation("sÿnthé-c00000" if i == 0 else a.cell_id, "platé",
                           a.replicate, a.cell_type) for i, a in enumerate(anns)]
    write_cell_annotations(anns, tmp_path / "cells.csv")
    args = ["--matrix", str(data_dir / "matrix.mtx"), "--cells", str(tmp_path / "cells.csv"),
            *SPEED]
    ascii_env = subprocess_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    outs = {}
    for name, env in (("ascii", ascii_env), ("utf8", subprocess_env(PYTHONUTF8="1"))):
        outs[name] = tmp_path / name
        assert run_cli(["pipeline", *args, "-o", str(outs[name])], env) == (0, "")
    assert same_tree(outs["ascii"], outs["utf8"]) == []
    assert "sÿnthé-c00000" in (outs["ascii"] / "detection.csv").read_text(encoding="utf-8")
    redrawn = tmp_path / "redrawn"
    assert run_cli(["report", "--input-dir", str(outs["ascii"]), "-o", str(redrawn)],
                   ascii_env) == (0, "")
    for name in FIGURES:
        assert (redrawn / name).read_bytes() == (outs["utf8"] / name).read_bytes(), name


TWO_BLAS_THREADS = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or openblas_thread_calls() is None,
    reason="needs 2 cores and numpy's bundled OpenBLAS",
)


@TWO_BLAS_THREADS
def test_blas_thread_count_does_not_change_the_bytes(tmp_path):
    # 300 cells x 400 genes in two splits, each in its own forked worker: eigh
    # and the covariance product round differently on 1 and 2 OpenBLAS
    # threads unless the run pins one
    data = tmp_path / "data"
    assert cli_main(["synth", "--seed", "7", "--n-genes", "400", "-o", str(data)]) == 0
    cells = two_replicates(data, tmp_path / "cells.csv")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        rc = run_cli(["pipeline", "--matrix", str(data / "matrix.mtx"), "--cells", str(cells),
                      "--iters", "300", "-o", str(out)],
                     subprocess_env(OPENBLAS_NUM_THREADS=threads, SCBENCH_THREADS="2"))
        assert rc == (0, "")
        outs.append(out)
    assert same_tree(*outs) == []


@TWO_BLAS_THREADS
def test_overlapping_blas_pins_restore_the_count_once():
    # as when two threads each run tsne: the first pin to close keeps the pin
    get_threads, set_threads = openblas_thread_calls()
    before = get_threads()
    set_threads(2)
    try:
        first, second = single_threaded_blas(), single_threaded_blas()
        first.__enter__()
        second.__enter__()
        assert get_threads() == 1
        first.__exit__(None, None, None)
        assert get_threads() == 1
        second.__exit__(None, None, None)
        assert get_threads() == 2
    finally:
        set_threads(before)


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
    # nor a tsne-no-pca option: t-SNE always reads the split's PCA reduction
    out = tmp_path / "out"
    bad.write_text("tsne_no_pca=1\n")
    assert cli_main(["embed", "--config", str(bad), *input_args(data_dir),
                     "-o", str(out)]) == 2
    assert cli_main(["embed", *input_args(data_dir), "--tsne-no-pca", "-o", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("spelling", ["--conf", "--config=", "--co"])
def test_config_option_is_found_as_argparse_spells_it(data_dir, tmp_path, spelling, capsys):
    cfg = tmp_path / "k.cfg"
    cfg.write_text("sample=from_config\n")
    option = [spelling + str(cfg)] if spelling.endswith("=") else [spelling, str(cfg)]
    out = tmp_path / "out"
    assert cli_main(["qc", *input_args(data_dir), *option, "-o", str(out)]) == 0
    assert read_config_comment(out / "dropout.csv")["sample"] == "from_config"
    # a malformed file under any spelling is a usage error that writes nothing
    cfg.write_text("no equals sign here\n")
    out = tmp_path / "bad"
    assert cli_main(["qc", *input_args(data_dir), *option, "-o", str(out)]) == 2
    assert "line 1: expected key=value" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_and_the_same_flags_give_identical_artifacts(data_dir, tmp_path):
    flags = [*input_args(data_dir), *SPEED, "--sample", "s=1", "--log1p",
             "--cluster-method", "hclust", "--linkage", "average", "--cv-fraction", "0.2"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# every value is parsed as the flag it names\n"
        f"matrix = {data_dir / 'matrix.mtx'}\n"
        f"cells={data_dir / 'cells.csv'}\n"
        f"genes={data_dir / 'genes.csv'}\n"
        "perplexity=5\niters=120\nk=3\nseed=0\n"
        "sample=s=1\n"
        "log1p=yes\n"
        "cluster-method=hclust\n"
        "linkage=average\n"
        "\n"
        "cv_fraction=0.2\n"
    )
    assert cli_main(["pipeline", *flags, "-o", str(tmp_path / "flags")]) == 0
    assert cli_main(["pipeline", "--config", str(cfg), "-o", str(tmp_path / "file")]) == 0
    assert same_tree(tmp_path / "flags", tmp_path / "file") == []
    assert read_config_comment(tmp_path / "file" / "dropout.csv")["sample"] == "s=1"


def _filter_config(data_dir, tmp_path, lines, *flags):
    """The `# config:` comment of `filter` run with a config file of `lines`."""
    cfg = tmp_path / "f.cfg"
    cfg.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    assert cli_main(["filter", *input_args(data_dir), "--config", str(cfg), *flags,
                     "-o", str(out)]) == 0
    return read_config_comment(out / "filter_summary.csv")


@pytest.mark.parametrize("raw, value", [
    ("1", True), ("true", True), ("yes", True), ("on", True), ("TRUE", True), (" On ", True),
    ("0", False), ("false", False), ("no", False), ("off", False), ("Off", False),
])
def test_config_booleans_take_every_spelling(data_dir, tmp_path, raw, value):
    assert _filter_config(data_dir, tmp_path, [f"log1p={raw}"])["log1p"] is value


def test_config_keys_repeat_and_mix_dashes_and_underscores(data_dir, tmp_path):
    config = _filter_config(data_dir, tmp_path, [
        "zero-threshold=0.5", "zero_threshold=0.9",  # the last line wins
        "log1p=on", "log1p=off",
        "normalize_axis=genes",
        "join-by-id=0",
        "sample==x=y",  # only the first "=" splits
    ])
    assert config["zero_threshold"] == 0.9
    assert config["log1p"] is False
    assert config["normalize_axis"] == "genes"
    assert config["join_by_id"] is False
    assert config["sample"] == "=x=y"


def test_command_line_flags_override_the_config_file(data_dir, tmp_path):
    lines = ["zero_threshold=0.5", "cv-fraction=0.3", "sample=file"]
    config = _filter_config(data_dir, tmp_path, lines, "--zero-threshold", "0.7",
                            "--sample=flag")
    assert (config["zero_threshold"], config["cv_fraction"], config["sample"]) == (0.7, 0.3, "flag")
    # flags before --config win as well: the file's flags go before every one
    cfg = tmp_path / "f.cfg"
    out = tmp_path / "before"
    assert cli_main(["filter", "--sample", "flag", "--config", str(cfg),
                     *input_args(data_dir), "-o", str(out)]) == 0
    assert read_config_comment(out / "filter_summary.csv")["sample"] == "flag"


@pytest.mark.parametrize("line, message", [
    ("k=abc", "argument --k: invalid int value: 'abc'"),
    ("linkage=manhattan", "argument --linkage: invalid choice: 'manhattan'"),
    ("log1p=maybe", "line 1: expected a boolean, got 'maybe'"),
    ("config=other.cfg", "line 1: unknown option 'config'"),
    ("help=1", "line 1: unknown option 'help'"),
])
def test_bad_config_values_are_usage_errors_that_write_nothing(
    data_dir, tmp_path, capsys, line, message
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    assert cli_main(["cluster", *input_args(data_dir), "--config", str(cfg),
                     "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_report_and_synth_accept_a_config_file(data_dir, pipeline_dir, tmp_path):
    cfg = tmp_path / "report.cfg"
    cfg.write_text(f"input-dir={pipeline_dir}\noutput_dir={tmp_path / 'figures'}\n")
    assert cli_main(["report", "--config", str(cfg)]) == 0
    for name in FIGURES:
        assert (tmp_path / "figures" / name).read_bytes() == (pipeline_dir / name).read_bytes()

    # SYNTH_ARGS written as config lines give data_dir's files again
    keys, values = SYNTH_ARGS[1::2], SYNTH_ARGS[2::2]
    cfg.write_text("".join(f"{k[2:]}={v}\n" for k, v in zip(keys, values)))
    assert cli_main(["synth", "--config", str(cfg), "-o", str(tmp_path / "synth")]) == 0
    assert same_tree(data_dir, tmp_path / "synth") == []


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


def test_cli_start_imports_no_url_or_xml_machinery():
    # xml.sax.saxutils would pull in urllib.request, http.client, email and ssl
    modules = modules_imported_by("import scbench.cli")
    assert {"urllib.request", "xml.sax"}.isdisjoint(modules)


@pytest.mark.parametrize("command", ["qc", "pipeline"])
def test_a_run_imports_no_numpy_ma(data_dir, tmp_path, command):
    # np.percentile and a bare np.unique(x) import numpy.ma on first use,
    # 17 ms in a fresh process; one split, so the pipeline runs in-line
    speed = SPEED if command == "pipeline" else []
    args = [command, *input_args(data_dir), *speed, "-o", str(tmp_path)]
    modules = modules_imported_by(
        f"from scbench.cli import cli_main\nassert cli_main({args!r}) == 0"
    )
    assert "numpy.ma" not in modules
    assert (tmp_path / "detection.csv").exists()


NOT_RUN_BY = {
    "split": ("embed", "cluster", "preprocess", "svg", "synth"),
    "qc": ("embed", "cluster", "preprocess", "svg", "synth"),
    "filter": ("embed", "cluster", "svg", "synth"),
    "normalize": ("embed", "cluster", "svg", "synth"),
    "report": ("embed", "cluster", "preprocess", "synth"),
    "synth": ("embed", "cluster", "preprocess", "svg"),
}


@pytest.mark.parametrize("command", sorted(NOT_RUN_BY))
def test_a_command_loads_only_the_modules_it_runs(data_dir, pipeline_dir, tmp_path, command):
    if command == "report":
        args = ["report", "--input-dir", str(pipeline_dir), "-o", str(tmp_path)]
    elif command == "synth":
        args = [*SYNTH_ARGS, "-o", str(tmp_path)]
    else:
        args = [command, *input_args(data_dir), "-o", str(tmp_path)]
    modules = modules_imported_by(
        f"from scbench.cli import cli_main\nassert cli_main({args!r}) == 0"
    )
    assert {f"scbench.{m}" for m in NOT_RUN_BY[command]}.isdisjoint(modules)


@FORK
def test_a_stage_binds_what_its_splits_call_before_the_pool_forks(data_dir, tmp_path,
                                                                  monkeypatch):
    monkeypatch.setenv("SCBENCH_THREADS", "2")
    source = Path(scbench.cli.__file__).read_text()
    called = sorted({
        node.func.id
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef) and fn.name in ("_compute_split", "_run_synth")
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and not hasattr(builtins, node.func.id)
    })
    assert {"tsne", "pca_fit_transform", "silhouette", "generate"} <= set(called)
    # on a fresh import, before any command has bound them
    modules_imported_by(
        "import scbench.cli as cli\n"
        f"missing = [name for name in {called!r} if not hasattr(cli, name)]\n"
        "assert missing == [], missing\n"
    )
    lazy = ["scbench.embed", "scbench.cluster", "scbench.preprocess"]
    modules_imported_by(
        "import sys\n"
        "import scbench.cli as cli\n"
        "loaded, run = [], cli._parallel_map\n"
        "def spy(keys, depth):\n"
        f"    loaded.append([m for m in {lazy!r} if m in sys.modules])\n"
        "    return run(keys, depth)\n"
        "cli._parallel_map = spy\n"
        f"assert cli.cli_main({two_split_pipeline(data_dir, tmp_path)!r}) == 0\n"
        f"assert loaded == [{lazy!r}], loaded\n"
    )
    assert len(json.loads((tmp_path / "out" / "summary.json").read_text())["splits"]) == 2


def test_perfbench_tracer_reads_a_fact_off_every_call_it_names(data_dir, tmp_path, monkeypatch):
    # perfbench times a run by wrapping scbench's functions and reads facts
    # off their arguments and results (spans.FACTS); this pins what it reads
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    monkeypatch.setenv("SCBENCH_THREADS", "1")
    tracer = spans.Tracer()
    runs = [
        ["split"], ["qc"], ["pipeline", *SPEED],
        ["pipeline", *SPEED, "--cluster-method", "hclust"],
    ]
    with spans.instrument(tracer):
        for i, (command, *flags) in enumerate(runs):
            out = tmp_path / str(i)
            assert cli_main([command, *input_args(data_dir), *flags, "-o", str(out)]) == 0
    with_facts = {span["name"] for span in tracer.spans if span["facts"]}
    assert set(spans.FACTS) <= with_facts, sorted(set(spans.FACTS) - with_facts)
