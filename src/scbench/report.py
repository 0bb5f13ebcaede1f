"""Artifact emission: CSV tables, a JSON summary, and SVG figures.

Every artifact embeds the resolved run configuration: CSVs carry a leading
`# config: <json>` comment line, SVGs an XML comment, and the summary a
"config" key. Floats are serialized with 17 significant digits, row order is
fixed, and identical inputs produce byte-identical files.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import canonical_json, fmt_float
from .cluster import ClusterResult, SilhouetteReport
from .embed import Embedding
from .errors import DataError
from .ingest import CellAnnotation
from .matrix import CountMatrix, ExpressionMatrix
from .preprocess import FilterTrace
from .qc import CumulativeCurve, DetectionStats, DropoutReport
from . import svg


@dataclass(frozen=True)
class SplitResult:
    """What the pipeline computed for one (method, replicate) split.

    Stage subcommands fill only the fields up to their stage; the full
    pipeline fills everything but `filtered`, which only the filter stage
    keeps. Emitters touch only the fields their tables need.
    """

    sample: str
    method: str
    replicate: str
    matrix: CountMatrix
    annotations: list[CellAnnotation] | None = None
    dropout: DropoutReport | None = None
    detection: DetectionStats | None = None
    cumulative: CumulativeCurve | None = None
    trace: FilterTrace | None = None
    filtered: CountMatrix | None = None
    normalized: ExpressionMatrix | None = None
    pca: Embedding | None = None
    tsne: Embedding | None = None
    clusters: ClusterResult | None = None
    labels: np.ndarray | None = None
    silhouettes: SilhouetteReport | None = None
    ari: float | None = None


def write_csv(path: Path, comment: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config: {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path) -> tuple[list[str], list[dict]]:
    """Read back an emitted CSV, skipping `#` comment lines.

    Values stay strings; callers convert the columns they use.
    """
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, [dict(zip(header, row, strict=True)) for row in reader]


def read_config_comment(path) -> dict:
    with open(path) as fh:
        first = fh.readline()
    prefix = "# config: "
    if not first.startswith(prefix):
        raise DataError(f"{path} has no config comment line")
    return json.loads(first[len(prefix):])


DROPOUT_HEADER = [
    "sample",
    "method",
    "replicate",
    "overall_dropout",
    "median_genes_detected",
]


def emit_qc_tables(splits: list[SplitResult], outdir, comment: str) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []

    rows = [
        [
            s.sample,
            s.method,
            s.replicate,
            fmt_float(s.dropout.overall_rate),
            fmt_float(s.detection.median),
        ]
        for s in splits
    ]
    paths.append(outdir / "dropout.csv")
    write_csv(paths[-1], comment, DROPOUT_HEADER, rows)

    rows = [
        [s.sample, s.method, s.replicate, cid, str(int(v))]
        for s in splits
        for cid, v in zip(s.matrix.cell_ids, s.detection.per_cell_detected)
    ]
    paths.append(outdir / "detection.csv")
    write_csv(
        paths[-1],
        comment,
        ["sample", "method", "replicate", "cell_id", "genes_detected"],
        rows,
    )

    rows = [
        [s.sample, s.method, s.replicate, str(int(x)), fmt_float(y)]
        for s in splits
        for x, y in zip(s.cumulative.x, s.cumulative.y)
    ]
    paths.append(outdir / "cumulative.csv")
    write_csv(
        paths[-1],
        comment,
        ["sample", "method", "replicate", "n_cells", "mean_genes_detected"],
        rows,
    )
    return paths


def emit_embedding_tables(splits: list[SplitResult], outdir, comment: str) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, which in (("embedding_pca.csv", "pca"), ("embedding_tsne.csv", "tsne")):
        rows = []
        for s in splits:
            emb = getattr(s, which)
            for cid, point in zip(s.normalized.cell_ids, emb.coordinates):
                rows.append(
                    [s.sample, s.method, s.replicate, cid]
                    + [fmt_float(v) for v in point]
                )
        if splits:
            dims = [f"dim{i + 1}" for i in range(getattr(splits[0], which).dim)]
        else:
            dims = ["dim1", "dim2"]
        paths.append(outdir / name)
        write_csv(
            paths[-1],
            comment,
            ["sample", "method", "replicate", "cell_id"] + dims,
            rows,
        )
    return paths


def emit_cluster_table(splits: list[SplitResult], outdir, comment: str) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = [
        [s.sample, s.method, s.replicate, cid, str(int(lab)), fmt_float(w)]
        for s in splits
        for cid, lab, w in zip(s.normalized.cell_ids, s.labels, s.silhouettes.widths)
    ]
    path = outdir / "clusters.csv"
    write_csv(
        path,
        comment,
        ["sample", "method", "replicate", "cell_id", "cluster", "silhouette_width"],
        rows,
    )
    return path


def emit_silhouette_table(splits: list[SplitResult], outdir, comment: str) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for s in splits:
        k = len(s.silhouettes.per_cluster_mean)
        rows.append(
            [
                s.sample,
                s.method,
                s.replicate,
                str(k),
                "all",
                str(len(s.labels)),
                fmt_float(s.silhouettes.mean),
            ]
        )
        for c in sorted(s.silhouettes.per_cluster_mean):
            rows.append(
                [
                    s.sample,
                    s.method,
                    s.replicate,
                    str(k),
                    str(c),
                    str(int((s.labels == c).sum())),
                    fmt_float(s.silhouettes.per_cluster_mean[c]),
                ]
            )
    path = outdir / "silhouette.csv"
    write_csv(
        path,
        comment,
        ["sample", "method", "replicate", "k", "cluster", "n_points", "mean_silhouette"],
        rows,
    )
    return path


def emit_tables(splits: list[SplitResult], outdir, config: dict) -> list[Path]:
    """Write the seven CSV tables; returns the paths written."""
    comment = canonical_json(config)
    return (
        emit_qc_tables(splits, outdir, comment)
        + emit_embedding_tables(splits, outdir, comment)
        + [
            emit_cluster_table(splits, outdir, comment),
            emit_silhouette_table(splits, outdir, comment),
        ]
    )


def write_summary(splits: list[SplitResult], outdir, config: dict) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for s in splits:
        entry = {
            "sample": s.sample,
            "method": s.method,
            "replicate": s.replicate,
            "n_cells": s.matrix.n_cells,
            "n_genes": s.matrix.n_genes,
            "n_genes_after_filter": s.trace.genes_out,
            "overall_dropout": s.dropout.overall_rate,
            "median_genes_detected": s.detection.median,
            "silhouette_mean": s.silhouettes.mean,
        }
        if s.ari is not None:
            entry["ari"] = s.ari
        entries.append(entry)
    payload = {"config": config, "splits": entries}
    path = outdir / "summary.json"
    with open(path, "w") as fh:
        fh.write(canonical_json(payload))
        fh.write("\n")
    return path


def rebuild_plots_from_tables(indir, outdir) -> list[Path]:
    """Draw the six SVG figures from a directory of emitted CSV tables.

    `pipeline` draws its figures this way from the tables it has just
    written, and `report` redraws them later. The config embedded in the
    tables (including the jitter seed) decides every byte, so both give the
    same files. A table that lacks a column the figures need, or an
    embedding split with no rows in clusters.csv, raises DataError.
    """
    indir = Path(indir)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = read_config_comment(indir / "dropout.csv")
    comment = canonical_json(config)
    seed = int(config.get("seed", 0))
    paths = []

    def table(name, *columns):
        header, rows = read_table(indir / name)
        for column in ("method", "replicate") + columns:
            if column not in header:
                raise DataError(f"{name} has no {column!r} column")
        return rows

    def grouped(rows):
        out = {}
        for r in rows:
            out.setdefault((r["method"], r["replicate"]), []).append(r)
        return out

    det = table("detection.csv", "genes_detected")
    if not det:
        raise DataError("no splits to plot")
    groups = [
        (f"{m}/{r}", np.array([float(row["genes_detected"]) for row in rows]))
        for (m, r), rows in grouped(det).items()
    ]
    text = svg.boxplot_chart(
        groups, "genes detected per cell", "genes detected", seed=seed, comment=comment
    )
    paths.append(outdir / "detection_box.svg")
    paths[-1].write_text(text)

    cum = table("cumulative.csv", "n_cells", "mean_genes_detected")
    series = [
        (
            f"{m}/{r}",
            np.array([float(row["n_cells"]) for row in rows]),
            np.array([float(row["mean_genes_detected"]) for row in rows]),
        )
        for (m, r), rows in grouped(cum).items()
    ]
    text = svg.line_chart(
        series,
        "cumulative gene detection",
        "cells",
        "mean genes detected",
        comment=comment,
    )
    paths.append(outdir / "cumulative.svg")
    paths[-1].write_text(text)

    labels_by_split = grouped(table("clusters.csv", "cell_id", "cluster"))
    for fname, name in (
        ("embedding_pca.svg", "embedding_pca.csv"),
        ("embedding_tsne.svg", "embedding_tsne.csv"),
    ):
        emb = table(name, "cell_id", "dim1", "dim2")
        points, group_idx, labels = [], [], []
        for (m, r), rows in grouped(emb).items():
            if (m, r) not in labels_by_split:
                raise DataError(f"clusters.csv has no rows for split {m}/{r} of {name}")
            crows = labels_by_split[(m, r)]
            if [x["cell_id"] for x in crows] != [x["cell_id"] for x in rows]:
                raise DataError("clusters.csv and embedding tables disagree on cells")
            labs = np.array([int(x["cluster"]) for x in crows])
            coords = np.array(
                [[float(x["dim1"]), float(x["dim2"])] for x in rows]
            )
            for c in sorted(set(int(v) for v in labs)):
                sel = labs == c
                points.append(coords[sel])
                group_idx.append(np.full(int(sel.sum()), len(labels)))
                labels.append(f"{m}/{r} c{c}")
        text = svg.scatter_chart(
            np.vstack(points),
            np.concatenate(group_idx),
            labels,
            f"{fname.removeprefix('embedding_').removesuffix('.svg')} embedding",
            "dim1",
            "dim2",
            comment=comment,
        )
        paths.append(outdir / fname)
        paths[-1].write_text(text)

    dro = table("dropout.csv", "overall_dropout")
    bars = [
        (f"{row['method']}/{row['replicate']}", float(row["overall_dropout"]))
        for row in dro
    ]
    text = svg.bar_chart(bars, "overall dropout rate", "dropout rate", comment=comment)
    paths.append(outdir / "dropout.svg")
    paths[-1].write_text(text)

    sil = table("silhouette.csv", "cluster", "mean_silhouette")
    bars = [
        (
            f"{row['method']}/{row['replicate']} c{row['cluster']}",
            float(row["mean_silhouette"]),
        )
        for row in sil
        if row["cluster"] != "all"
    ]
    text = svg.bar_chart(
        bars, "mean silhouette by cluster", "mean silhouette", comment=comment
    )
    paths.append(outdir / "silhouette.svg")
    paths[-1].write_text(text)
    return paths
