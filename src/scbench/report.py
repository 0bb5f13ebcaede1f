"""Artifact emission: CSV tables, a JSON summary, and SVG figures.

Every table and figure embeds the resolved run configuration: CSVs carry a
leading `# config: <json>` comment line, SVGs an XML comment, and the summary
a "config" key. Floats are serialized with 17 significant digits, row order is
fixed, and identical inputs produce byte-identical files.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ._util import canonical_json, fmt_float
from .errors import DataError, FormatError
from .ingest import CellAnnotation
from .matrix import CountMatrix, ExpressionMatrix
from .qc import CumulativeCurve, DetectionStats, DropoutReport

if TYPE_CHECKING:  # annotations only: split and qc runs never load these
    from .cluster import SilhouetteReport
    from .embed import Embedding
    from .preprocess import FilterTrace


@dataclass(frozen=True)
class SplitResult:
    """What the pipeline computed for one (method, replicate) split.

    Stage subcommands fill only the fields up to their stage; the full
    pipeline fills everything but `filtered`, which only the filter stage
    keeps. Each table's row function touches only the fields it needs.
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
    labels: np.ndarray | None = None
    silhouettes: SilhouetteReport | None = None
    ari: float | None = None


CONFIG_PREFIX = "# config: "


def write_csv(path: Path, comment: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{CONFIG_PREFIX}{comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path) -> tuple[list[str], list[dict]]:
    """Read back an emitted CSV, skipping its leading `# config: ` line.

    Any other line is data, so a value may start with `#`. Values stay
    strings; callers convert the columns they use. A row with more or fewer
    fields than the header raises FormatError naming the file and line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        numbered = list(enumerate(fh, start=1))
    if numbered and numbered[0][1].startswith(CONFIG_PREFIX):
        numbered = numbered[1:]
    reader = csv.reader(ln for _, ln in numbered)
    header = next(reader, None)
    if header is None:
        raise FormatError(f"{path}: no header line")
    rows = []
    for row in reader:
        if len(row) != len(header):
            lineno = numbered[reader.line_num - 1][0]
            raise FormatError(f"{path}:{lineno}: wrong field count")
        rows.append(dict(zip(header, row)))
    return header, rows


def read_config_comment(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    if not first.startswith(CONFIG_PREFIX):
        raise DataError(f"{path} has no config comment line")
    return json.loads(first[len(CONFIG_PREFIX):])


def _filter_rows(s: SplitResult) -> list[list[str]]:
    t = s.trace
    return [[str(t.genes_in), str(t.removed_by_sparsity), str(t.removed_by_cv), str(t.genes_out)]]


def _detection_rows(s: SplitResult) -> list[list[str]]:
    return [[cid, str(int(v))] for cid, v in zip(s.matrix.cell_ids, s.detection.per_cell_detected)]


def _cumulative_rows(s: SplitResult) -> list[list[str]]:
    return [[str(int(x)), fmt_float(y)] for x, y in zip(s.cumulative.x, s.cumulative.y)]


def _embedding_rows(which: str, s: SplitResult) -> list[list[str]]:
    cell_ids, coords = s.normalized.cell_ids, getattr(s, which).coordinates
    if coords.shape != (len(cell_ids), 2):
        raise DataError(
            f"split {s.method}/{s.replicate}: {which} embedding is "
            f"{coords.shape[0]}x{coords.shape[1]}, not {len(cell_ids)}x2"
        )
    return [[cid, fmt_float(x), fmt_float(y)] for cid, (x, y) in zip(cell_ids, coords)]


def _cluster_rows(s: SplitResult) -> list[list[str]]:
    cells = zip(s.normalized.cell_ids, s.labels, s.silhouettes.widths)
    return [[cid, str(int(lab)), fmt_float(w)] for cid, lab, w in cells]


def _silhouette_rows(s: SplitResult) -> list[list[str]]:
    k = str(len(s.silhouettes.per_cluster_mean))
    rows = [[k, "all", str(len(s.labels)), fmt_float(s.silhouettes.mean)]]
    for c in sorted(s.silhouettes.per_cluster_mean):
        n = str(int((s.labels == c).sum()))
        rows.append([k, str(c), n, fmt_float(s.silhouettes.per_cluster_mean[c])])
    return rows


# file name -> (columns after the sample,method,replicate key, one split's rows)
TABLES = {
    "split_summary.csv": (
        ["n_cells", "n_genes"],
        lambda s: [[str(s.matrix.n_cells), str(s.matrix.n_genes)]],
    ),
    "filter_summary.csv": (
        ["genes_in", "removed_by_sparsity", "removed_by_cv", "genes_out"],
        _filter_rows,
    ),
    "dropout.csv": (
        ["overall_dropout", "median_genes_detected"],
        lambda s: [[fmt_float(s.dropout.overall_rate), fmt_float(s.detection.median)]],
    ),
    "detection.csv": (["cell_id", "genes_detected"], _detection_rows),
    "cumulative.csv": (["n_cells", "mean_genes_detected"], _cumulative_rows),
    "embedding_pca.csv": (["cell_id", "dim1", "dim2"], partial(_embedding_rows, "pca")),
    "embedding_tsne.csv": (["cell_id", "dim1", "dim2"], partial(_embedding_rows, "tsne")),
    "clusters.csv": (["cell_id", "cluster", "silhouette_width"], _cluster_rows),
    "silhouette.csv": (["k", "cluster", "n_points", "mean_silhouette"], _silhouette_rows),
}
QC_TABLES = ("dropout.csv", "detection.csv", "cumulative.csv")
PIPELINE_TABLES = QC_TABLES + (
    "embedding_pca.csv", "embedding_tsne.csv", "clusters.csv", "silhouette.csv"
)


def emit_tables(
    splits: list[SplitResult], outdir, config: dict, names=PIPELINE_TABLES
) -> list[Path]:
    """Write the named TABLES, one row block per split; returns their paths.

    Every row is built before any file is written, so a split that cannot
    be tabulated raises DataError and leaves `outdir` as it was.
    """
    outdir = Path(outdir)
    tables = {}
    for name in names:
        columns, rows_of = TABLES[name]
        rows = [[s.sample, s.method, s.replicate, *row] for s in splits for row in rows_of(s)]
        tables[outdir / name] = (["sample", "method", "replicate", *columns], rows)
    outdir.mkdir(parents=True, exist_ok=True)
    comment = canonical_json(config)
    for path, (header, rows) in tables.items():
        write_csv(path, comment, header, rows)
    return list(tables)


def write_summary(splits: list[SplitResult], path, config: dict) -> Path:
    """Write the config and per-split scores to `path` (summary.json, metrics.json).

    Each entry has the split's key, mean silhouette and, with truth labels,
    ARI; splits that went through QC (`pipeline`) add size, filter and QC figures.
    """
    entries = []
    for s in splits:
        entry = {
            "sample": s.sample,
            "method": s.method,
            "replicate": s.replicate,
            "silhouette_mean": s.silhouettes.mean,
        }
        if s.dropout is not None:
            entry["n_cells"] = s.matrix.n_cells
            entry["n_genes"] = s.matrix.n_genes
            entry["n_genes_after_filter"] = s.trace.genes_out
            entry["overall_dropout"] = s.dropout.overall_rate
            entry["median_genes_detected"] = s.detection.median
        if s.ari is not None:
            entry["ari"] = s.ari
        entries.append(entry)
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json({"config": config, "splits": entries}))
        fh.write("\n")
    return path


def rebuild_plots_from_tables(indir, outdir) -> list[Path]:
    """Draw the six SVG figures from a directory of emitted CSV tables.

    `pipeline` draws its figures this way from the tables it has just
    written, and `report` redraws them later. The config embedded in the
    tables (including the jitter seed) decides every byte, so both give the
    same files. A table that lacks a column the figures need, or that names
    another set of (method, replicate) splits than detection.csv, raises
    DataError. Every figure is drawn before any file is written, so a
    failing table leaves the output directory as it was.
    """
    from . import svg  # only the commands that draw figures load it

    indir = Path(indir)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = read_config_comment(indir / "dropout.csv")
    comment = canonical_json(config)
    seed = int(config.get("seed", 0))
    figures = {}  # file name -> SVG text, in drawing order
    splits = None  # the split set of detection.csv, once read

    def table(name, *columns):
        header, rows = read_table(indir / name)
        for column in ("method", "replicate") + columns:
            if column not in header:
                raise DataError(f"{name} has no {column!r} column")
        found = {(r["method"], r["replicate"]) for r in rows}
        if splits is not None and found != splits:
            m, r = min(found ^ splits)
            if (m, r) in splits:
                raise DataError(f"{name} has no rows for split {m}/{r}")
            raise DataError(f"{name} has split {m}/{r}, which detection.csv lacks")
        return rows

    def grouped(rows):
        out = {}
        for r in rows:
            out.setdefault((r["method"], r["replicate"]), []).append(r)
        return out

    det = table("detection.csv", "genes_detected")
    if not det:
        raise DataError("no splits to plot")
    splits = set(grouped(det))
    groups = [
        (f"{m}/{r}", np.array([float(row["genes_detected"]) for row in rows]))
        for (m, r), rows in grouped(det).items()
    ]
    figures["detection_box.svg"] = svg.boxplot_chart(
        groups, "genes detected per cell", "genes detected", seed=seed, comment=comment
    )

    cum = table("cumulative.csv", "n_cells", "mean_genes_detected")
    series = [
        (
            f"{m}/{r}",
            np.array([float(row["n_cells"]) for row in rows]),
            np.array([float(row["mean_genes_detected"]) for row in rows]),
        )
        for (m, r), rows in grouped(cum).items()
    ]
    figures["cumulative.svg"] = svg.line_chart(
        series,
        "cumulative gene detection",
        "cells",
        "mean genes detected",
        comment=comment,
    )

    labels_by_split = grouped(table("clusters.csv", "cell_id", "cluster"))
    for fname, name in (
        ("embedding_pca.svg", "embedding_pca.csv"),
        ("embedding_tsne.svg", "embedding_tsne.csv"),
    ):
        emb = table(name, "cell_id", "dim1", "dim2")
        points, group_idx, labels = [], [], []
        for (m, r), rows in grouped(emb).items():
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
        figures[fname] = svg.scatter_chart(
            np.vstack(points),
            np.concatenate(group_idx),
            labels,
            f"{fname.removeprefix('embedding_').removesuffix('.svg')} embedding",
            "dim1",
            "dim2",
            comment=comment,
        )

    dro = table("dropout.csv", "overall_dropout")
    bars = [
        (f"{row['method']}/{row['replicate']}", float(row["overall_dropout"]))
        for row in dro
    ]
    figures["dropout.svg"] = svg.bar_chart(
        bars, "overall dropout rate", "dropout rate", comment=comment
    )

    sil = table("silhouette.csv", "cluster", "mean_silhouette")
    bars = [
        (
            f"{row['method']}/{row['replicate']} c{row['cluster']}",
            float(row["mean_silhouette"]),
        )
        for row in sil
        if row["cluster"] != "all"
    ]
    figures["silhouette.svg"] = svg.bar_chart(
        bars, "mean silhouette by cluster", "mean silhouette", comment=comment
    )

    for name, text in figures.items():
        (outdir / name).write_text(text, encoding="utf-8")
    return [outdir / name for name in figures]
