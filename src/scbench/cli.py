"""Command-line driver.

Subcommands run single stages (split, qc, filter, normalize, embed, cluster,
evaluate, report, synth) or the whole chain (pipeline). Stage commands accept
the same inputs as pipeline and recompute the prefix they need, so every
artifact is a pure function of (input files, flags, seed). Each stage command
is one row of STAGES: its depth decides its flags, and so the keys of its
`# config:` comment (every flag but --output-dir and --config), and how far
`_compute_split` goes; its tables and its writer then give the artifacts.

Exit codes: 0 success, 1 data/IO errors (JSON envelope on stderr), 2 usage.
On-disk matrices are genes x cells; pass --transpose when a file already has
cells as rows. SCBENCH_THREADS caps the worker processes for chains that reach
t-SNE; shorter chains run in-line. Results do not depend on its value. A run
pins numpy's OpenBLAS to one thread (see `single_threaded_blas`), so they do
not depend on OPENBLAS_NUM_THREADS either.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
from pathlib import Path

from . import _HOME
from ._util import canonical_json, fmt_float, single_threaded_blas, worker_count
from .errors import DataError
from .ingest import (
    CellAnnotation,
    attach_annotations,
    read_cell_annotations,
    read_gene_annotations,
    read_matrix_market,
    split_by_method_replicate,
    write_cell_annotations,
    write_gene_annotations,
    write_matrix_market,
)
from .matrix import default_cell_ids, default_gene_ids
from .qc import cumulative_detection, detection_stats, dropout_rate
from .report import (
    PIPELINE_TABLES,
    QC_TABLES,
    SplitResult,
    emit_tables,
    rebuild_plots_from_tables,
    write_csv,
    write_summary,
)

# The module each FLAG_GROUPS entry configures, which a stage that takes the
# group's flags runs; `_run_synth` runs synth. Split and qc load none of them.
# None is imported here: on first access, or when a command binds the modules
# it runs, each of their public names is read from scbench's table of public
# names (which imports its module) and bound as a global of this module.
GROUP_MODULES = (None, "preprocess", "embed", "cluster")
_LAZY_MODULES = frozenset({*GROUP_MODULES[1:], "synth"})


def __getattr__(name):
    if _HOME.get(name) not in _LAZY_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def _bind(modules) -> None:
    """Bind every public name of `modules` here, keeping any a caller replaced.

    Bound as attributes, the names stay replaceable by callers (tests,
    perfbench's tracer); bound before the splits run, forked workers inherit
    them with their modules and import nothing again.
    """
    for name, home in _HOME.items():
        if home in modules and name not in globals():
            __getattr__(name)


def _safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "-", name)


def _load_inputs(args):
    """Matrix in cells x genes orientation plus row-aligned annotations."""
    m = read_matrix_market(args.matrix)
    if not args.transpose:
        m = m.transpose()
    # the reader's synthetic ids name the file's rows and columns; each axis
    # gets its ids once, synthetic ones unless an annotation file gives them
    cell_ids = default_cell_ids(m.n_cells)
    if args.join_by_id:
        # annotations are matched to the synthetic cell ids
        m = m.with_ids(cell_ids=cell_ids)
    if args.cells:
        annotations = read_cell_annotations(args.cells)
    else:
        annotations = [CellAnnotation(cid, "all", "r1", None) for cid in cell_ids]
    gene_ids = read_gene_annotations(args.genes) if args.genes else default_gene_ids(m.n_genes)
    return attach_annotations(
        m, annotations, gene_ids=gene_ids, join_by_id=args.join_by_id
    )


def _compute_split(args, key, sub, annotations, depth: str) -> SplitResult:
    """Run the per-split chain up to `depth`; later fields stay None.

    The result leaves out the split's counts and annotations, which the
    caller holds, so a forked worker sends back only what the artifacts
    read. The QC tables are computed only at the depths whose artifacts hold
    them, and the normalized matrix is kept only at the depth that writes it.
    """
    method, replicate = key
    fields = {"sample": args.sample, "method": method, "replicate": replicate}
    if depth in ("qc", "pipeline"):
        fields["dropout"] = dropout_rate(sub)
        fields["detection"] = detection_stats(sub)
        fields["cumulative"] = cumulative_detection(sub)
    if depth in ("split", "qc"):
        return SplitResult(**fields)

    cfg = FilterConfig(args.zero_threshold, args.cv_fraction)
    if depth == "filter":
        fields["filtered"], fields["trace"] = filter_genes(sub, cfg)
        return SplitResult(**fields)
    normalized, trace = preprocess_pipeline(
        sub, cfg, normalize_axis=args.normalize_axis, log1p=args.log1p
    )
    fields["trace"] = trace
    if depth == "normalize":
        return SplitResult(**fields, normalized=normalized)

    from .embed import TSNE_PCA_DIM_DEFAULT  # loaded by _bind before any fork

    # one decomposition per split: t-SNE reads it and its first two columns
    # are the PCA view; at most min(n - 1, g) components, the rank of
    # centred points, and at least those two
    dim = max(2, min(TSNE_PCA_DIM_DEFAULT, normalized.n_cells - 1, normalized.n_genes))
    reduced = pca_fit_transform(normalized, dim)[0]
    view = reduced.coordinates[:, :2]
    fields["pca"] = Embedding(view, "pca", {**reduced.params, "d": 2}, seed=0)
    del normalized  # not held through t-SNE
    tsne_emb = tsne(
        reduced.coordinates,
        perplexity=args.perplexity,
        d=2,
        seed=args.seed,
        iters=args.iters,
    )
    fields["tsne"] = tsne_emb
    if depth == "embed":
        return SplitResult(**fields)

    coords = tsne_emb.coordinates
    if args.cluster_method == "kmeans":
        labels = kmeans(coords, args.k, seed=args.seed, restarts=args.restarts).labels
    else:
        dend = hierarchical(coords, linkage=args.linkage)
        labels = cut_dendrogram(dend, args.k)
    fields["labels"] = labels
    fields["silhouettes"] = silhouette(coords, labels)
    truth = [a.cell_type for a in annotations]
    if None not in truth:
        fields["ari"] = adjusted_rand_index(truth, labels)
    return SplitResult(**fields)


# (args, groups, depth) of the stage being run, set only while its splits run;
# forked workers inherit it, since the job cannot be pickled to them
_job = None


def _split_job(key) -> SplitResult:
    args, groups, depth = _job
    return _compute_split(args, key, *groups[key], depth)


def _parallel_map(keys, depth: str) -> list[SplitResult]:
    """_split_job of each key, in key order.

    Chains that reach t-SNE (a depth that takes embed's flags) are long
    enough to repay a forked worker: they run in up to worker_count()
    processes started with fork, where the platform has it. One split, one
    worker or a shorter chain, linear in the split, runs in-line. A worker
    that dies (a signal, the OOM killer) ends the run with a DataError after
    every worker has been joined.
    """
    workers = min(worker_count(), len(keys))
    if workers > 1 and "embed" in GROUP_MODULES[: DEPTH_GROUPS[depth]]:
        # imported here: start-up that runs no pool does not pay for them
        import multiprocessing
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                try:
                    return list(pool.map(_split_job, keys))
                except BrokenExecutor as exc:
                    raise DataError(
                        "a split worker ended abnormally (killed by a signal, "
                        "out of memory, or exited)"
                    ) from exc
    return [_split_job(key) for key in keys]


def _stage_splits(args, depth: str) -> list[SplitResult]:
    """Each split's result, in key order, with its counts and annotations.

    The whole input matrix is dropped once the splits are made, so neither
    this process nor a forked worker holds it while the splits run.
    """
    global _job
    _bind(GROUP_MODULES[: DEPTH_GROUPS[depth]])
    groups = split_by_method_replicate(*_load_inputs(args))
    _job = (args, groups, depth)
    try:
        results = _parallel_map(list(groups), depth)
    finally:
        _job = None
    return [
        dataclasses.replace(r, matrix=sub, annotations=annotations)
        for r, (sub, annotations) in zip(results, groups.values())
    ]


# ------------------------------------------------------------------- writers
# Each STAGES row names the TABLES its command writes, plus at most one writer
# for per-split files or a JSON summary; both run after the per-split pool.
# `_run_stage` and the writers call emit_tables, write_csv, write_summary,
# rebuild_plots_from_tables and the ingest writers through this module's
# globals at call time, so a tracer that swaps those names (perfbench/spans.py)
# times each call. The normalized CSVs go through write_csv, so their time
# counts as table time.


def _stem(s: SplitResult) -> str:
    return f"{_safe(s.method)}_{_safe(s.replicate)}"


def _check_stems(splits) -> None:
    """Per-split files are named by stem, so no two splits may share one."""
    seen = {}
    for s in splits:
        other = seen.setdefault(_stem(s), s)
        if other is not s:
            raise DataError(
                f"splits {other.method!r}/{other.replicate!r} and "
                f"{s.method!r}/{s.replicate!r} share the file stem {_stem(s)!r}"
            )


def _write_split(splits, outdir, config) -> None:
    for s in splits:
        write_matrix_market(s.matrix.transpose(), outdir / f"matrix_{_stem(s)}.mtx")
        write_cell_annotations(s.annotations, outdir / f"cells_{_stem(s)}.csv")


def _write_filtered(splits, outdir, config) -> None:
    for s in splits:
        write_matrix_market(s.filtered.transpose(), outdir / f"filtered_{_stem(s)}.mtx")
        write_cell_annotations(s.annotations, outdir / f"cells_{_stem(s)}.csv")
        write_gene_annotations(s.filtered.gene_ids, outdir / f"genes_{_stem(s)}.csv")


def _write_normalized(splits, outdir, config) -> None:
    comment = canonical_json(config)
    for s in splits:
        em = s.normalized
        rows = ([cid, *map(fmt_float, row)] for cid, row in zip(em.cell_ids, em.values))
        write_csv(outdir / f"normalized_{_stem(s)}.csv", comment, ["cell_id", *em.gene_ids], rows)


PER_SPLIT_WRITERS = (_write_split, _write_filtered, _write_normalized)


def _write_metrics(splits, outdir, config) -> None:
    write_summary(splits, outdir / "metrics.json", config)


def _write_summary_and_figures(splits, outdir, config) -> None:
    write_summary(splits, outdir / "summary.json", config)
    rebuild_plots_from_tables(outdir, outdir)


# (name, help, depth, tables, writer) of each stage command, in command-list order
STAGES = (
    ("split", "split a matrix into per-(method, replicate) files", "split",
     ("split_summary.csv",), _write_split),
    ("qc", "dropout, detection, and cumulative-detection tables", "qc", QC_TABLES, None),
    ("filter", "apply the sparsity and CV gene filters", "filter",
     ("filter_summary.csv",), _write_filtered),
    ("normalize", "filter then quantile-normalize each split", "normalize",
     (), _write_normalized),
    ("embed", "PCA and t-SNE embeddings of each normalized split", "embed",
     ("embedding_pca.csv", "embedding_tsne.csv"), None),
    ("cluster", "cluster each split's t-SNE embedding", "cluster", ("clusters.csv",), None),
    ("evaluate", "silhouette table and (with truth labels) adjusted Rand index",
     "cluster", ("silhouette.csv",), _write_metrics),
    ("pipeline", "run every stage and write all tables, summary, and figures",
     "pipeline", PIPELINE_TABLES, _write_summary_and_figures),
)
# how many of FLAG_GROUPS a stage command at each depth takes
DEPTH_GROUPS = {
    "split": 1, "qc": 1, "filter": 2, "normalize": 2, "embed": 3, "cluster": 4, "pipeline": 4,
}


def _run_stage(depth: str, tables, write, args) -> int:
    # every parsed option but the command, its runner and where output and config live
    skip = ("command", "func", "output_dir", "config")
    config = {k: v for k, v in vars(args).items() if k not in skip}
    splits = _stage_splits(args, depth)
    if write in PER_SPLIT_WRITERS:
        _check_stems(splits)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    emit_tables(splits, outdir, config, tables)
    if write is not None:
        write(splits, outdir, config)
    return 0


def _run_report(args) -> int:
    rebuild_plots_from_tables(args.input_dir, args.output_dir or args.input_dir)
    return 0


def _run_synth(args) -> int:
    _bind(("synth",))
    cfg = SynthConfig(
        n_clusters=args.n_clusters,
        cells_per_cluster=args.cells_per_cluster,
        n_genes=args.n_genes,
        n_marker_genes_per_cluster=args.marker_genes,
        base_mean=args.base_mean,
        marker_fold=args.marker_fold,
        dropout_prob=args.dropout_prob,
        dispersion=args.dispersion,
        seed=args.seed,
    )
    m, _, annotations = generate(cfg, method=args.method_name, replicate=args.replicate)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_matrix_market(m.transpose(), outdir / "matrix.mtx")
    write_cell_annotations(annotations, outdir / "cells.csv")
    write_gene_annotations(m.gene_ids, outdir / "genes.csv")
    return 0


# -------------------------------------------------------------------- parser


def _add_input_flags(p):
    p.add_argument("--matrix", required=True, help="count matrix (.mtx, optionally gzipped)")
    p.add_argument("--cells", help="cell annotation CSV (cell_id,method,replicate[,cell_type])")
    p.add_argument("--genes", help="gene annotation CSV (gene_id)")
    p.add_argument("--transpose", action="store_true",
                   help="the matrix file already has cells as rows")
    p.add_argument("--join-by-id", action="store_true",
                   help="match annotation rows to matrix cell ids instead of file order")
    p.add_argument("--sample", default="sample", help="sample name used in output tables")


def _add_filter_flags(p):
    p.add_argument("--zero-threshold", type=float, default=0.8,
                   help="drop genes whose zero fraction strictly exceeds this")
    p.add_argument("--cv-fraction", type=float, default=0.15,
                   help="drop this fraction of genes with the lowest CV")
    p.add_argument("--normalize-axis", choices=("cells", "genes"), default="cells")
    p.add_argument("--log1p", action="store_true",
                   help="apply log1p before quantile normalization")


def _add_embed_flags(p):
    p.add_argument("--perplexity", type=float, default=30.0)
    p.add_argument("--iters", type=int, default=1000, help="t-SNE iterations")


def _add_cluster_flags(p):
    p.add_argument("--k", type=int, default=3, help="number of clusters")
    p.add_argument("--cluster-method", choices=("kmeans", "hclust"), default="kmeans")
    p.add_argument("--linkage", choices=("single", "complete", "average", "ward"),
                   default="ward")
    p.add_argument("--restarts", type=int, default=10, help="k-means restarts")


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_common_flags(p, output_required=True):
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output-dir", "-o", required=output_required,
                   help="directory for output artifacts")
    p.add_argument("--config", help="key=value config file; flags override it")


# flag adders in help order; a stage command takes a prefix
FLAG_GROUPS = (_add_input_flags, _add_filter_flags, _add_embed_flags, _add_cluster_flags)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="scbench",
        description="Split, QC, normalize, embed, cluster, and report "
        "single-cell count matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table = {}

    def stage_command(name, help_, depth, tables, write):
        p = sub.add_parser(name, help=help_)
        for add in FLAG_GROUPS[: DEPTH_GROUPS[depth]]:
            add(p)
        _add_common_flags(p)
        p.set_defaults(func=functools.partial(_run_stage, depth, tables, write))
        table[name] = p

    # report and synth are listed between evaluate and pipeline
    for stage in STAGES[:-1]:
        stage_command(*stage)

    p = sub.add_parser("report", help="redraw SVG figures from emitted tables")
    p.add_argument("--input-dir", required=True, help="directory holding the CSV tables")
    p.add_argument("--output-dir", "-o", help="defaults to --input-dir")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.set_defaults(func=_run_report)
    table["report"] = p

    p = sub.add_parser("synth", help="generate a synthetic count matrix")
    p.add_argument("--n-clusters", type=int, default=3)
    p.add_argument("--cells-per-cluster", type=int, default=100)
    p.add_argument("--n-genes", type=int, default=200)
    p.add_argument("--marker-genes", type=int, default=10,
                   help="marker genes per cluster")
    p.add_argument("--base-mean", type=float, default=5.0)
    p.add_argument("--marker-fold", type=float, default=8.0)
    p.add_argument("--dropout-prob", type=float, default=0.5)
    p.add_argument("--dispersion", type=float, default=2.0)
    p.add_argument("--method-name", default="synthetic")
    p.add_argument("--replicate", default="r1")
    _add_common_flags(p)
    p.set_defaults(func=_run_synth)
    table["synth"] = p

    stage_command(*STAGES[-1])
    return parser, table


def _with_config(table, argv):
    """argv with its --config file's lines spelled as flags after the command.

    A one-option parser finds --config as the subparser would, abbreviated
    or not. Each `key=value` line becomes `--key=value`, or `--key` for a
    store_true option that is true, and the last line for a key wins. So the
    parse that follows types and checks every value, counts it toward
    required options and lets a flag given on the command line win.
    """
    if not argv or argv[0] not in table:
        return argv
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    try:
        path = finder.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:
        return argv  # a bare --config: the subparser reports it
    if path is None:
        return argv
    subparser = table[argv[0]]
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("config", "help")}
    flags = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                s = line.strip()
                if not s or s.startswith("#"):
                    continue
                if "=" not in s:
                    raise ValueError(f"line {lineno}: expected key=value, got {s!r}")
                key, _, raw = s.partition("=")
                dest, raw = key.strip().replace("-", "_"), raw.strip()
                if dest not in actions:
                    raise ValueError(f"line {lineno}: unknown option {key.strip()!r}")
                flag = "--" + dest.replace("_", "-")
                if not isinstance(actions[dest], argparse._StoreTrueAction):
                    flags[dest] = f"{flag}={raw}"
                elif raw.lower() in ("1", "true", "yes", "on"):
                    flags[dest] = flag
                elif raw.lower() in ("0", "false", "no", "off"):
                    flags.pop(dest, None)
                else:
                    raise ValueError(f"line {lineno}: expected a boolean, got {raw!r}")
    except (OSError, ValueError) as exc:
        subparser.error(f"--config {path}: {exc}")
    return [argv[0], *flags.values(), *argv[1:]]


def cli_main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, table = build_parser()
    try:
        args = parser.parse_args(_with_config(table, argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        with single_threaded_blas():
            return args.func(args)
    except (DataError, OSError, ValueError, MemoryError) as exc:
        envelope = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(envelope) + "\n")
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
