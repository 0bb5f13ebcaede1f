"""Method-comparison toolkit for single-cell RNA-seq count matrices.

Splits aggregated count matrices by (method, replicate), scores dropout and
detection sensitivity, filters and quantile-normalizes, embeds with PCA and
exact t-SNE, clusters with k-means or Lance-Williams agglomeration, validates
with silhouettes and the adjusted Rand index, and emits deterministic
CSV/JSON/SVG reports.

Submodules load on first use (PEP 562): `import scbench` imports none of
them, and `scbench.tsne` or `scbench.embed` imports `scbench.embed` when it is
first read. So a CLI command loads only the modules its stages run.
"""
from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(
        (
            "ClusterResult",
            "Dendrogram",
            "SilhouetteReport",
            "adjusted_rand_index",
            "cut_dendrogram",
            "hierarchical",
            "kmeans",
            "pairwise_distances",
            "silhouette",
        ),
        "cluster",
    ),
    **dict.fromkeys(("Embedding", "PcaModel", "pca_fit_transform", "tsne"), "embed"),
    **dict.fromkeys(("DataError", "FormatError"), "errors"),
    **dict.fromkeys(
        (
            "CellAnnotation",
            "read_cell_annotations",
            "read_gene_annotations",
            "read_matrix_market",
            "split_by_method_replicate",
            "write_cell_annotations",
            "write_gene_annotations",
            "write_matrix_market",
        ),
        "ingest",
    ),
    **dict.fromkeys(
        ("CountMatrix", "ExpressionMatrix", "GeneStats", "from_dense", "vstack_cells"),
        "matrix",
    ),
    **dict.fromkeys(
        (
            "FilterConfig",
            "FilterTrace",
            "filter_genes",
            "preprocess_pipeline",
            "quantile_normalize",
        ),
        "preprocess",
    ),
    **dict.fromkeys(
        (
            "CumulativeCurve",
            "DetectionStats",
            "DropoutReport",
            "cumulative_detection",
            "detection_stats",
            "dropout_rate",
        ),
        "qc",
    ),
    **dict.fromkeys(
        (
            "SplitResult",
            "emit_tables",
            "read_config_comment",
            "read_table",
            "rebuild_plots_from_tables",
            "write_csv",
            "write_summary",
        ),
        "report",
    ),
    **dict.fromkeys(("SynthConfig", "generate"), "synth"),
}
_SUBMODULES = frozenset({*_HOME.values(), "_util", "cli", "svg"})

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        # importing binds the submodule here, so this runs once per name
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
