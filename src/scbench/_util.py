"""Shared helpers: seeding, worker caps, the BLAS thread pin, float formatting."""
from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import os
import threading
from pathlib import Path

import numpy as np

THREADS_ENV = "SCBENCH_THREADS"


def worker_count() -> int:
    """Cap on the worker processes for chains that reach t-SNE, at least 1.

    SCBENCH_THREADS sets it; by default it is the number of cores this
    process may run on (its CPU affinity, else the CPU count), since more
    workers than cores only take turns. Only ever used to size pools over
    independent deterministic jobs, so results never depend on the value.
    """
    raw = os.environ.get(THREADS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        pass
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel
    bundles under numpy.libs/, or None where numpy has no such library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
    return None


# open pins and the thread count the first one found; the last to close restores it
_pin_lock = threading.Lock()
_pins = 0
_unpinned = 1


@contextlib.contextmanager
def single_threaded_blas():
    """Run the block with numpy's OpenBLAS on one thread, then restore the count.

    LAPACK's eigh and the covariance product round differently at other
    thread counts, and t-SNE amplifies that into different artifacts. Pins
    nest and may overlap across threads: the count goes back only when the
    last open pin closes. Where the library is not found, the block runs
    unpinned.
    """
    global _pins, _unpinned
    calls = openblas_thread_calls()
    if calls is None:
        yield
        return
    get_threads, set_threads = calls
    with _pin_lock:
        if _pins == 0:
            _unpinned = get_threads()
            set_threads(1)
        _pins += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins -= 1
            if _pins == 0:
                set_threads(_unpinned)


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator derived from (seed, key); same inputs give the same stream."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def fmt_float(x: float) -> str:
    """Serialize with 17 significant digits; round-trips float64 exactly."""
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
