"""Summary statistics, the failure count, and per-layer metrics from spans."""
from __future__ import annotations

import statistics

from spans import LAYERS, self_times

ANNOTATE = (
    "read_cell_annotations",
    "read_gene_annotations",
    "attach_annotations",
    "split_by_method_replicate",
    "split_annotations",
)
TABLES = (
    "emit_tables",
    "emit_qc_tables",
    "emit_embedding_tables",
    "emit_cluster_table",
    "emit_silhouette_table",
    "write_csv",
)
PLOTS = ("emit_plots", "rebuild_plots_from_tables")

# name -> unit, in the order they are printed. Per operation: wall_s is spawn
# to exit and setup_s the CPU time used until cli_main is entered, each summed
# over the operation's processes; cpu_s is user + system time and peak_rss_mb
# the largest resident set, both from each child's own rusage; cells_per_s is
# input cells / wall_s.
END_TO_END_UNITS = {
    "wall_s": "s",
    "cells_per_s": "cells/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "ingest.read_s": "s",
    "ingest.read_entries_per_s": "1/s",
    "ingest.write_s": "s",
    "ingest.write_entries_per_s": "1/s",
    "ingest.annotate_s": "s",
    "ingest.bytes_in": "count",
    "matrix.transpose_s": "s",
    "qc.cumulative_s": "s",
    "qc.cumulative_steps": "count",
    "qc.dropout_detection_s": "s",
    "preprocess.s": "s",
    "preprocess.genes_kept_ratio": "ratio",
    "embed.pca_s": "s",
    "embed.tsne_s": "s",
    "embed.tsne_iters": "count",
    "embed.tsne_ms_per_iter": "ms",
    "embed.calibration_hit_ratio": "ratio",
    "embed.final_kl": "nats",
    "embed.kl_tail_rises": "count",
    "cluster.kmeans_s": "s",
    "cluster.kmeans_restart_hit_ratio": "ratio",
    "cluster.hclust_s": "s",
    "cluster.merges": "count",
    "cluster.distance_s": "s",
    "cluster.distance_matrices": "count",
    "cluster.silhouette_s": "s",
    "cluster.silhouette_mean": "ratio",
    "cluster.ari_mean": "ratio",
    "report.tables_s": "s",
    "report.summary_s": "s",
    "report.plots_s": "s",
    "report.files_out": "count",
    "report.bytes_out": "count",
    "cli.self_s": "s",
    "cli.split_overlap": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "cli"},
    "bench.trace_overhead_ratio": "ratio",
}


def summarize(values: list[float]) -> dict:
    """Median, first and third quartile (statistics.quantiles) and count."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def error_count(ops: list[dict]) -> tuple[int, int]:
    """(failed, attempted): an operation fails on any failed check."""
    return sum(1 for op in ops if op["failures"]), len(ops)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(processes: list[list[dict]], files_out: int, bytes_out: int) -> dict:
    """Per-layer metrics of one traced operation.

    `processes` holds the span list of each process of the operation. Times
    are inclusive span durations summed over calls, except `<layer>.self_s`,
    which sums self time. Layers with no spans report 0.
    """
    spans, self_by_layer = [], dict.fromkeys(LAYERS, 0.0)
    for proc in processes:
        selfs = self_times(proc)
        for s in proc:
            self_by_layer[s["layer"]] += selfs[s["id"]]
        spans += proc

    def calls(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(s["end"] - s["start"] for s in calls(*names))

    def fact(name, key):
        return sum(s["facts"].get(key, 0) for s in calls(name))

    tsne_calls = calls("tsne")
    silhouettes = calls("silhouette")
    n_splits = len({s["split"] for s in calls("_compute_split")})
    out = {
        "ingest.read_s": total("read_matrix_market"),
        "ingest.read_entries_per_s": _ratio(
            fact("read_matrix_market", "entries"), total("read_matrix_market")
        ),
        "ingest.write_s": total("write_matrix_market"),
        "ingest.write_entries_per_s": _ratio(
            fact("write_matrix_market", "entries"), total("write_matrix_market")
        ),
        "ingest.annotate_s": total(*ANNOTATE),
        "ingest.bytes_in": fact("read_matrix_market", "bytes"),
        "matrix.transpose_s": total("transpose"),
        "qc.cumulative_s": total("cumulative_detection"),
        "qc.cumulative_steps": fact("cumulative_detection", "steps"),
        "qc.dropout_detection_s": total("dropout_rate", "detection_stats"),
        "preprocess.s": total("preprocess_pipeline", "filter_sparse_genes", "filter_low_cv"),
        "preprocess.genes_kept_ratio": _ratio(
            fact("preprocess_pipeline", "genes_out"), fact("preprocess_pipeline", "genes_in")
        ),
        "embed.pca_s": total("pca_fit_transform"),
        "embed.tsne_s": total("tsne"),
        "embed.tsne_iters": fact("tsne", "iters"),
        "embed.tsne_ms_per_iter": 1000.0 * _ratio(total("tsne"), fact("tsne", "iters")),
        "embed.calibration_hit_ratio": _ratio(
            fact("tsne", "calibration_hits"), fact("tsne", "points")
        ),
        "embed.final_kl": _ratio(fact("tsne", "final_kl"), len(tsne_calls)),
        "embed.kl_tail_rises": fact("tsne", "kl_tail_rises"),
        "cluster.kmeans_s": total("kmeans"),
        "cluster.kmeans_restart_hit_ratio": _ratio(
            fact("kmeans", "restart_hits"), fact("kmeans", "restarts")
        ),
        "cluster.hclust_s": total("hierarchical", "cut_dendrogram"),
        "cluster.merges": fact("hierarchical", "merges"),
        "cluster.distance_s": total("pairwise_distances"),
        "cluster.distance_matrices": _ratio(len(calls("pairwise_distances")), n_splits),
        "cluster.silhouette_s": total("silhouette"),
        "cluster.silhouette_mean": _ratio(
            fact("silhouette", "silhouette_mean"), len(silhouettes)
        ),
        "cluster.ari_mean": _ratio(
            fact("adjusted_rand_index", "ari"), len(calls("adjusted_rand_index"))
        ),
        "report.tables_s": total(*TABLES),
        "report.summary_s": total("write_summary"),
        "report.plots_s": total(*PLOTS),
        "report.files_out": files_out,
        "report.bytes_out": bytes_out,
        "cli.self_s": self_by_layer["cli"],
        # thread CPU time, so splits that take turns holding the GIL count once
        "cli.split_overlap": _ratio(
            sum(s["cpu"] for s in calls("_compute_split")), total("_parallel_map")
        ),
    }
    for layer in LAYERS:
        if layer != "cli":
            out[f"{layer}.self_s"] = self_by_layer[layer]
    # not metrics: inputs to the design checks
    out["_split_time"] = total("_compute_split")
    out["_names"] = sorted({s["name"] for s in spans})
    return out


def design_checks(workload: str, m: dict) -> list[tuple[str, bool]]:
    """Whether a traced operation shows the shares the workload was built for.

    A share "of the run" is of the summed self time of all spans, so work
    that two threads do at once counts twice, as it does in the layer times.
    """
    busy = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    if workload == "tsne-kmeans":
        cluster = m["cluster.self_s"]
        return [
            (f"embed.tsne_s is {m['embed.tsne_s'] / busy:.0%} of the run (> 50%)",
             m["embed.tsne_s"] > 0.5 * busy),
            (f"cluster.* is {cluster / busy:.1%} of the run (< 5%)", cluster < 0.05 * busy),
        ]
    if workload == "hclust-protocols":
        share = _ratio(m["cluster.hclust_s"], m["_split_time"])
        return [
            (f"cluster.hclust_s is {share:.0%} of summed split time (>= 33%)", share >= 1 / 3),
            (f"cluster.distance_matrices is {m['cluster.distance_matrices']:g} per split (2)",
             m["cluster.distance_matrices"] == 2),
        ]
    io = m["ingest.self_s"] + m["matrix.self_s"] + m["qc.self_s"]
    bad = [n for n in m["_names"] if n in ("tsne", "pca_fit_transform", "kmeans",
                                            "hierarchical", "silhouette",
                                            "pairwise_distances")]
    return [
        (f"ingest+matrix+qc self time is {io / busy:.0%} of the run (> 50%)", io > 0.5 * busy),
        (f"embed/cluster spans: {bad or 'none'}", not bad),
    ]
