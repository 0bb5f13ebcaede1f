"""Workload definitions, seeded input generation and operation command lines.

Each workload is a set of synthetic (method, replicate) splits drawn with
``scbench.synth.generate``, stacked with ``vstack_cells`` and written as one
genes x cells MatrixMarket file plus cell and gene annotation CSVs. The
benchmark seed alone decides the inputs; the program always runs with its own
``--seed`` fixed at ``PROGRAM_SEED``.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

PROGRAM_SEED = 0


@dataclass(frozen=True)
class SplitShape:
    method: str
    replicate: str
    n_types: int
    cells_per_type: int
    dropout: float

    @property
    def n_cells(self) -> int:
        return self.n_types * self.cells_per_type


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_genes: int
    splits: tuple[SplitShape, ...]
    # "pipeline": one `pipeline` process; "ingest": `split` then `qc`
    kind: str
    flags: tuple[str, ...] = ()

    @property
    def n_cells(self) -> int:
        return sum(s.n_cells for s in self.splits)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tsne-kmeans",
            "pipeline, default flags: 1 split of 3 types x 120 cells x 2000 genes; exact "
            "t-SNE (1000 iterations) is most of the run, k-means about 1%, one core idle",
            2000,
            (SplitShape("plate", "r1", 3, 120, 0.5),),
            "pipeline",
            ("--iters", "1000"),
        ),
        Workload(
            "hclust-protocols",
            "pipeline, ward hclust k=4, 250 t-SNE iterations: plate (dropout 0.3) vs "
            "droplet (0.5), 4 types x 200 cells x 1000 genes each; hclust over a third "
            "of split time",
            1000,
            (
                SplitShape("droplet", "r1", 4, 200, 0.5),
                SplitShape("plate", "r1", 4, 200, 0.3),
            ),
            "pipeline",
            ("--cluster-method", "hclust", "--linkage", "ward", "--k", "4",
             "--iters", "250"),
        ),
        Workload(
            "droplet-ingest",
            "split then qc: 4 droplet splits of 5 types x 125 cells x 3000 genes, dropout "
            "0.93/0.95; MatrixMarket read/write, transpose, cumulative detection; no "
            "embed or cluster",
            3000,
            (
                SplitShape("chromium", "r1", 5, 125, 0.93),
                SplitShape("chromium", "r2", 5, 125, 0.93),
                SplitShape("dropseq", "r1", 5, 125, 0.95),
                SplitShape("dropseq", "r2", 5, 125, 0.95),
            ),
            "ingest",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    matrix: Path
    cells: Path
    genes: Path
    nnz: int
    split_cells: dict  # "method/replicate" -> n_cells
    truth: dict  # "method/replicate" -> list of cell types in file order


def generate_inputs(workload: Workload, seed: int, outdir: Path) -> Inputs:
    """Write the workload's input files for `seed`; same seed, same bytes."""
    from scbench.ingest import (
        write_cell_annotations,
        write_gene_annotations,
        write_matrix_market,
    )
    from scbench.matrix import vstack_cells
    from scbench.synth import SynthConfig, generate

    outdir.mkdir(parents=True, exist_ok=True)
    parts, annotations = [], []
    split_cells, truth = {}, {}
    for index, shape in enumerate(workload.splits):
        cfg = SynthConfig(
            n_clusters=shape.n_types,
            cells_per_cluster=shape.cells_per_type,
            n_genes=workload.n_genes,
            dropout_prob=shape.dropout,
            # one independent stream per split, all fixed by the bench seed
            seed=seed * 1009 + index,
        )
        m, _, anns = generate(cfg, method=shape.method, replicate=shape.replicate)
        parts.append(m)
        annotations.extend(anns)
        key = f"{shape.method}/{shape.replicate}"
        split_cells[key] = shape.n_cells
        truth[key] = [a.cell_type for a in anns]
    stacked = vstack_cells(parts)
    inputs = Inputs(
        outdir / "matrix.mtx",
        outdir / "cells.csv",
        outdir / "genes.csv",
        stacked.nnz,
        split_cells,
        truth,
    )
    write_matrix_market(stacked.transpose(), inputs.matrix)
    write_cell_annotations(annotations, inputs.cells)
    write_gene_annotations(stacked.gene_ids, inputs.genes)
    return inputs


def command_lines(workload: Workload, inputs: Inputs, outdir: Path) -> list[list[str]]:
    """The CLI argument lists of one operation, run one after another."""
    common = [
        "--matrix", str(inputs.matrix),
        "--cells", str(inputs.cells),
        "--genes", str(inputs.genes),
        "--sample", workload.name,
        "--seed", str(PROGRAM_SEED),
    ]
    if workload.kind == "pipeline":
        return [["pipeline", *common, *workload.flags, "--output-dir", str(outdir)]]
    return [
        ["split", *common, "--output-dir", str(outdir / "split")],
        ["qc", *common, "--output-dir", str(outdir / "qc")],
    ]


PIPELINE_TABLES = (
    "dropout.csv",
    "detection.csv",
    "cumulative.csv",
    "embedding_pca.csv",
    "embedding_tsne.csv",
    "clusters.csv",
    "silhouette.csv",
)
PIPELINE_FIGURES = (
    "detection_box.svg",
    "cumulative.svg",
    "embedding_pca.svg",
    "embedding_tsne.svg",
    "dropout.svg",
    "silhouette.svg",
)
QC_TABLES = ("dropout.csv", "detection.csv", "cumulative.csv")


def split_stem(key: str) -> str:
    method, replicate = key.split("/")
    return f"{method}_{replicate}"


def expected_artifacts(workload: Workload, inputs: Inputs) -> list[str]:
    """Relative paths every successful operation must write."""
    if workload.kind == "pipeline":
        return sorted([*PIPELINE_TABLES, "summary.json", *PIPELINE_FIGURES])
    out = ["split/split_summary.csv"]
    for key in inputs.split_cells:
        out += [f"split/matrix_{split_stem(key)}.mtx", f"split/cells_{split_stem(key)}.csv"]
    out += [f"qc/{name}" for name in QC_TABLES]
    return sorted(out)
