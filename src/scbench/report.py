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
from .ingest import CellAnnotation, _open_text
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
    pipeline fills everything but `filtered` and `normalized`, which only
    the filter and normalize stages keep. `_compute_split` leaves out
    `matrix` and `annotations`, the split's input, and the CLI puts back its
    own. Each table's row function touches only the fields it needs.
    """

    sample: str
    method: str
    replicate: str
    matrix: CountMatrix | None = None
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
    strings; callers convert the columns they use. The file is opened as
    every input is (`ingest._open_text`): gzip, a byte-order mark and any
    line ending are read, and text that is not UTF-8 or that the csv module
    cannot parse, such as a field above its size limit, raises FormatError
    naming the file. So does a row with more or fewer fields than the
    header, naming its line too.
    """
    with _open_text(path) as fh:
        lines = list(fh)
        skipped = bool(lines) and lines[0].startswith(CONFIG_PREFIX)
        reader = csv.reader(lines[skipped:])
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: no header line")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise FormatError(f"{path}:{reader.line_num + skipped}: wrong field count")
            rows.append(dict(zip(header, row)))
    return header, rows


def read_config_comment(path) -> dict:
    with _open_text(path) as fh:
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
    cell_ids, coords = s.matrix.cell_ids, getattr(s, which).coordinates
    if coords.shape != (len(cell_ids), 2):
        raise DataError(
            f"split {s.method}/{s.replicate}: {which} embedding is "
            f"{coords.shape[0]}x{coords.shape[1]}, not {len(cell_ids)}x2"
        )
    return [[cid, fmt_float(x), fmt_float(y)] for cid, (x, y) in zip(cell_ids, coords)]


def _cluster_rows(s: SplitResult) -> list[list[str]]:
    cells = zip(s.matrix.cell_ids, s.labels, s.silhouettes.widths)
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
    same files. One reader, `table`, reads each table once: it raises
    DataError for a table that lacks a column the figures need or that names
    another set of (method, replicate) splits than detection.csv, and groups
    the rows by split in file order. So the bars follow split order, then
    file order within a split; for every table scbench writes, that is file
    order. Every figure is drawn before any file is written, so a failing
    table leaves the output directory as it was.
    """
    from . import svg  # only the commands that draw figures load it

    indir = Path(indir)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = read_config_comment(indir / "dropout.csv")
    comment = canonical_json(config)
    splits = None  # the split set of detection.csv, once read

    def table(name, *columns) -> dict[tuple[str, str], list[dict]]:
        header, rows = read_table(indir / name)
        for col in ("method", "replicate") + columns:
            if col not in header:
                raise DataError(f"{name} has no {col!r} column")
        by_split = {}
        for r in rows:
            by_split.setdefault((r["method"], r["replicate"]), []).append(r)
        if splits is not None and by_split.keys() != splits:
            m, r = min(by_split.keys() ^ splits)
            if (m, r) in splits:
                raise DataError(f"{name} has no rows for split {m}/{r}")
            raise DataError(f"{name} has split {m}/{r}, which detection.csv lacks")
        return by_split

    def column(rows, name) -> np.ndarray:
        return np.array([float(r[name]) for r in rows])

    det = table("detection.csv", "genes_detected")
    if not det:
        raise DataError("no splits to plot")
    splits = det.keys()
    figures = {}  # file name -> SVG text, in drawing order
    figures["detection_box.svg"] = svg.boxplot_chart(
        [(f"{m}/{r}", column(rows, "genes_detected")) for (m, r), rows in det.items()],
        "genes detected per cell", "genes detected", seed=int(config.get("seed", 0)),
        comment=comment,
    )

    cum = table("cumulative.csv", "n_cells", "mean_genes_detected")
    figures["cumulative.svg"] = svg.line_chart(
        [(f"{m}/{r}", column(rows, "n_cells"), column(rows, "mean_genes_detected"))
         for (m, r), rows in cum.items()],
        "cumulative gene detection", "cells", "mean genes detected", comment=comment,
    )

    clusters = table("clusters.csv", "cell_id", "cluster")
    for which in ("pca", "tsne"):
        groups = []
        for (m, r), rows in table(f"embedding_{which}.csv", "cell_id", "dim1", "dim2").items():
            crows = clusters[(m, r)]
            if [x["cell_id"] for x in crows] != [x["cell_id"] for x in rows]:
                raise DataError("clusters.csv and embedding tables disagree on cells")
            labels = np.array([int(x["cluster"]) for x in crows])
            coords = np.column_stack([column(rows, "dim1"), column(rows, "dim2")])
            groups += [(f"{m}/{r} c{c}", coords[labels == c])
                       for c in sorted(set(labels.tolist()))]  # np.unique loads numpy.ma
        figures[f"embedding_{which}.svg"] = svg.scatter_chart(
            groups, f"{which} embedding", "dim1", "dim2", comment=comment
        )

    dro = table("dropout.csv", "overall_dropout")
    figures["dropout.svg"] = svg.bar_chart(
        [(f"{m}/{r}", float(row["overall_dropout"]))
         for (m, r), rows in dro.items() for row in rows],
        "overall dropout rate", "dropout rate", comment=comment,
    )

    sil = table("silhouette.csv", "cluster", "mean_silhouette")
    figures["silhouette.svg"] = svg.bar_chart(
        [(f"{m}/{r} c{row['cluster']}", float(row["mean_silhouette"]))
         for (m, r), rows in sil.items() for row in rows if row["cluster"] != "all"],
        "mean silhouette by cluster", "mean silhouette", comment=comment,
    )

    for name, text in figures.items():
        (outdir / name).write_text(text, encoding="utf-8")
    return [outdir / name for name in figures]
