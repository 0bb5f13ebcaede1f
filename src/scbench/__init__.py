"""Method-comparison toolkit for single-cell RNA-seq count matrices.

Splits aggregated count matrices by (method, replicate), scores dropout and
detection sensitivity, filters and quantile-normalizes, embeds with PCA and
exact t-SNE, clusters with k-means or Lance-Williams agglomeration, validates
with silhouettes and the adjusted Rand index, and emits deterministic
CSV/JSON/SVG reports.
"""
from .cluster import (
    ClusterResult,
    Dendrogram,
    SilhouetteReport,
    adjusted_rand_index,
    cut_dendrogram,
    hierarchical,
    kmeans,
    pairwise_distances,
    silhouette,
)
from .embed import (
    Embedding,
    PcaModel,
    pca_fit_transform,
    tsne,
)
from .errors import DataError, FormatError
from .ingest import (
    CellAnnotation,
    attach_annotations,
    read_cell_annotations,
    read_dense_csv,
    read_gene_annotations,
    read_matrix_market,
    split_by_method_replicate,
    write_cell_annotations,
    write_dense_csv,
    write_gene_annotations,
    write_matrix_market,
)
from .matrix import CountMatrix, ExpressionMatrix, GeneStats, from_dense, vstack_cells
from .preprocess import (
    FilterConfig,
    FilterTrace,
    filter_genes,
    preprocess_pipeline,
    quantile_normalize,
)
from .qc import (
    CumulativeCurve,
    DetectionStats,
    DropoutReport,
    cumulative_detection,
    detection_stats,
    dropout_rate,
)
from .report import (
    SplitResult,
    emit_tables,
    read_config_comment,
    read_table,
    rebuild_plots_from_tables,
    write_csv,
    write_summary,
)
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "CellAnnotation",
    "ClusterResult",
    "CountMatrix",
    "CumulativeCurve",
    "DataError",
    "Dendrogram",
    "DetectionStats",
    "DropoutReport",
    "Embedding",
    "ExpressionMatrix",
    "FilterConfig",
    "FilterTrace",
    "FormatError",
    "GeneStats",
    "PcaModel",
    "SilhouetteReport",
    "SplitResult",
    "SynthConfig",
    "adjusted_rand_index",
    "attach_annotations",
    "cumulative_detection",
    "cut_dendrogram",
    "detection_stats",
    "dropout_rate",
    "emit_tables",
    "filter_genes",
    "from_dense",
    "generate",
    "hierarchical",
    "kmeans",
    "pairwise_distances",
    "pca_fit_transform",
    "preprocess_pipeline",
    "quantile_normalize",
    "read_cell_annotations",
    "read_config_comment",
    "read_dense_csv",
    "read_gene_annotations",
    "read_matrix_market",
    "read_table",
    "rebuild_plots_from_tables",
    "silhouette",
    "split_by_method_replicate",
    "tsne",
    "vstack_cells",
    "write_cell_annotations",
    "write_csv",
    "write_dense_csv",
    "write_gene_annotations",
    "write_matrix_market",
    "write_summary",
]
