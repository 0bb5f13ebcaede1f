"""Shared builders for seeded random test matrices, matrix comparisons,
unpickling without validation, traced memory peaks, and fresh-interpreter runs."""
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import scbench
from scbench.matrix import CountMatrix, from_dense


def random_dense(seed, n_cells, n_genes, density=0.4, max_count=20, rng=None):
    """Dense integer counts with roughly `density` nonzero entries."""
    if rng is None:
        rng = np.random.default_rng(seed)
    vals = rng.integers(1, max_count + 1, size=(n_cells, n_genes))
    mask = rng.random((n_cells, n_genes)) < density
    return (vals * mask).astype(np.int64)


def random_matrix(seed, n_cells, n_genes, density=0.4, max_count=20) -> CountMatrix:
    return from_dense(random_dense(seed, n_cells, n_genes, density, max_count))


def triplets(m: CountMatrix) -> np.ndarray:
    """Stored entries as an (nnz, 3) array of (cell, gene, count) rows, in canonical order."""
    return np.column_stack([m.cell_idx, m.gene_idx, m.counts])


def same_entries(a: CountMatrix, b: CountMatrix) -> bool:
    """Equal dimensions and stored triplets; ids are ignored."""
    return (
        (a.n_cells, a.n_genes) == (b.n_cells, b.n_genes)
        and np.array_equal(a.cell_idx, b.cell_idx)
        and np.array_equal(a.gene_idx, b.gene_idx)
        and np.array_equal(a.counts, b.counts)
    )


def same_matrix(a: CountMatrix, b: CountMatrix) -> bool:
    """Equal entries and equal cell and gene ids."""
    return same_entries(a, b) and (a.cell_ids, a.gene_ids) == (b.cell_ids, b.gene_ids)


def unpickle_without_post_init(obj, monkeypatch):
    """pickle.loads(pickle.dumps(obj)), failing if __post_init__ runs on loading."""
    # a forked worker's results come back through pickle; their checks ran
    # in the worker and are not run again
    data = pickle.dumps(obj)

    def fail(self):
        raise AssertionError("__post_init__ ran on unpickling")

    with monkeypatch.context() as m:
        m.setattr(type(obj), "__post_init__", fail)
        return pickle.loads(data)


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn() runs; numpy reports its
    array buffers to it, and what was allocated before the call is not counted."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def modules_imported_by(code: str) -> set[str]:
    """Names in sys.modules after `code` runs in a fresh interpreter that
    imports scbench from this checkout."""
    env = dict(os.environ)
    src = str(Path(scbench.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))
