"""In-process timing spans around scbench's module boundaries.

`Tracer` keeps spans in memory: name, layer, start, end, parent, thread, the
CPU time of its thread during the span, the split key of the per-split job
that made the call, and a few facts read off the call's arguments and result. `instrument` swaps the public functions each
module exposes to `scbench.cli` (plus `scbench.cluster.pairwise_distances`
and `CountMatrix.transpose`) for timed wrappers and restores them on exit.
A span opened on a worker thread with no open span of its own is a child of
the innermost open span on the thread that opened the root span (the pool
call that started the worker), so a parent's children may overlap in time.
"""
from __future__ import annotations

import contextlib
import functools
import os
import threading
import time

import numpy as np

TSNE_TAIL = 100
PERPLEXITY_TOL = 1e-5

# layer -> names looked up in scbench.cli; absent names are skipped so the
# tracer keeps working when a later version drops or renames one
CLI_NAMES = {
    "ingest": (
        "read_matrix_market",
        "write_matrix_market",
        "read_cell_annotations",
        "read_gene_annotations",
        "attach_annotations",
        "split_by_method_replicate",
        "split_annotations",
        "write_cell_annotations",
        "write_gene_annotations",
        "write_dense_csv",
    ),
    "matrix": ("default_cell_ids", "default_gene_ids"),
    "qc": ("dropout_rate", "detection_stats", "cumulative_detection"),
    "preprocess": ("preprocess_pipeline", "filter_sparse_genes", "filter_low_cv"),
    "embed": ("pca_fit_transform", "tsne"),
    "cluster": (
        "kmeans",
        "hierarchical",
        "cut_dendrogram",
        "silhouette",
        "adjusted_rand_index",
        "pairwise_distances",
    ),
    "report": (
        "emit_tables",
        "emit_qc_tables",
        "emit_embedding_tables",
        "emit_cluster_table",
        "emit_silhouette_table",
        "write_csv",
        "write_summary",
        "emit_plots",
        "rebuild_plots_from_tables",
    ),
    # the per-split job and the pool that runs the jobs
    "cli": ("_compute_split", "_parallel_map"),
}
LAYERS = ("ingest", "matrix", "qc", "preprocess", "embed", "cluster", "report", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._root_stack: list[int] | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str, split: str | None = None):
        """Time the block; yields the span record so callers can add facts."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        if self._root_stack is None:
            self._root_stack = stack
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        if split is not None:
            self._local.split = split
        record = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "layer": layer,
            "thread": threading.get_ident(),
            "split": getattr(self._local, "split", None),
            "facts": {},
        }
        stack.append(span_id)
        cpu_start = time.thread_time()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["cpu"] = time.thread_time() - cpu_start
            stack.pop()
            if split is not None:
                self._local.split = None
            if not stack and stack is self._root_stack:
                self._root_stack = None
            with self._lock:
                self.spans.append(record)

    def wrap(self, fn, name: str, layer: str, facts=None, split_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            split = split_of(args) if split_of else None
            with self.span(name, layer, split) as record:
                result = fn(*args, **kwargs)
            if facts is not None:
                record["facts"].update(facts(args, kwargs, result))
            return result

        return traced


# ----------------------------------------------------------- facts per call


def _read_facts(args, kwargs, m):
    path = args[0] if args else kwargs["path"]
    return {"entries": int(m.nnz), "bytes": os.path.getsize(path)}


def _write_facts(args, kwargs, _):
    m = args[0] if args else kwargs["m"]
    return {"entries": int(m.nnz)}


def _cumulative_facts(args, kwargs, curve):
    return {"steps": int(len(curve.x) * curve.n_permutations)}


def _preprocess_facts(args, kwargs, result):
    _, trace = result
    return {"genes_in": int(trace.genes_in), "genes_out": int(trace.genes_out)}


def _tsne_facts(args, kwargs, emb):
    achieved = np.asarray(emb.diagnostics["achieved_perplexity"])
    target = float(emb.params["perplexity"])
    tail = np.asarray(emb.diagnostics["kl_trace"])[-TSNE_TAIL:]
    return {
        "iters": int(emb.params["iters"]),
        "points": int(emb.n_points),
        "calibration_hits": int((np.abs(achieved - target) <= PERPLEXITY_TOL).sum()),
        "final_kl": float(emb.diagnostics["final_kl"]),
        "kl_tail_rises": int((np.diff(tail) > 0).sum()),
    }


def _kmeans_facts(args, kwargs, res):
    sses = np.asarray(res.restart_sses)
    return {
        "restarts": int(sses.size),
        "restart_hits": int((sses <= res.sse * (1 + 1e-12)).sum()),
    }


def _hclust_facts(args, kwargs, dend):
    return {"merges": len(dend.merges)}


def _silhouette_facts(args, kwargs, rep):
    return {"silhouette_mean": float(rep.mean)}


def _ari_facts(args, kwargs, ari):
    return {"ari": float(ari)}


def _split_key(args):
    method, replicate = args[1]
    return f"{method}/{replicate}"


FACTS = {
    "read_matrix_market": _read_facts,
    "write_matrix_market": _write_facts,
    "cumulative_detection": _cumulative_facts,
    "preprocess_pipeline": _preprocess_facts,
    "tsne": _tsne_facts,
    "kmeans": _kmeans_facts,
    "hierarchical": _hclust_facts,
    "silhouette": _silhouette_facts,
    "adjusted_rand_index": _ari_facts,
}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install timed wrappers into scbench for the duration of the block."""
    import scbench.cli as cli
    import scbench.cluster as cluster
    from scbench.matrix import CountMatrix

    saved = []

    def patch(owner, attr, layer, split_of=None):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(
            owner,
            attr,
            tracer.wrap(original, attr, layer, FACTS.get(attr), split_of),
        )

    try:
        for layer, names in CLI_NAMES.items():
            for attr in names:
                if hasattr(cli, attr):
                    split_of = _split_key if attr == "_compute_split" else None
                    patch(cli, attr, layer, split_of)
        # internal callers of the distance matrix (hclust, silhouette)
        patch(cluster, "pairwise_distances", "cluster")
        patch(CountMatrix, "transpose", "matrix")
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ------------------------------------------------------------- span algebra


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, so overlapping children
    on two threads are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        clipped = [
            (max(a, s["start"]), min(b, s["end"]))
            for a, b in children.get(s["id"], ())
            if min(b, s["end"]) > max(a, s["start"])
        ]
        out[s["id"]] = (s["end"] - s["start"]) - union_length(clipped)
    return out
