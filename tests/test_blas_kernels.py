"""The numerical contracts again, under another OpenBLAS kernel.

Artifact bytes are a per-machine, per-numpy-build contract; the oracle
comparisons are not, and must not pass only because one kernel rounds in
their favour. numpy's OpenBLAS is built for many CPUs and picks its kernel
at load time; OPENBLAS_CORETYPE overrides the pick. These tests rerun in a
subprocess under the Prescott (SSE3) kernel, whose products and LAPACK
calls round differently from the AVX kernels a current CPU gets.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

KERNEL = "Prescott"
CONTRACTS = (
    # the blocked t-SNE step against the dense oracle
    "test_embed.py::test_blocked_step_matches_the_dense_step",
    "test_embed.py::test_blocked_step_matches_the_dense_step_at_a_finished_embeddings_scale",
    "test_embed.py::test_coincident_points_far_out_keep_unit_weights",
    # blocked calibration against the one-row loop, on all other points and
    # on nearest-neighbour columns, its strips against the loop's P symmetrized, the no-root limit, and the achieved perplexity
    # against the bisection's window and the target
    "test_embed.py::test_lockstep_calibration_equals_the_one_row_loop",
    "test_embed.py::test_calibration_of_neighbour_columns_equals_the_one_row_loop",
    "test_embed.py::test_strips_equal_the_one_row_loops_p_symmetrized",
    "test_embed.py::test_rows_without_a_root_take_the_limit_with_no_newton_pass",
    "test_embed.py::test_root_found_perplexities_land_in_the_bisection_window",
    "test_embed.py::test_rows_with_a_root_hit_the_target_within_1e_8_of_it",
    # PCA against svd_pca
    "test_embed.py::test_pca_routes_picked_by_shape_match_svd",
    "test_acceptance.py::test_criterion_07_pca_variance_reconstruction_and_paths",
    # hclust against the scan oracle
    "test_cluster.py::test_hierarchical_equals_the_scan_loop",
    # k-means, seeded and assigned from a BLAS product, against exhaustive search
    "test_cluster.py::test_kmeans_small_instances_reach_exhaustive_optimum",
)
CORENAME = (
    "import ctypes, pathlib, numpy; "
    "libs = pathlib.Path(numpy.__file__).resolve().parent.parent / 'numpy.libs'; "
    "lib = ctypes.CDLL(str(next(libs.glob('libscipy_openblas*.so*')))); "
    "name = lib.scipy_openblas_get_corename64_; name.restype = ctypes.c_char_p; "
    "print(name().decode())"
)


def run_python(args, **env_extra):
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    env.update(env_extra)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=Path(__file__).resolve().parents[1])


def corename(**env_extra):
    """The kernel numpy's OpenBLAS picked, or None where it is not found."""
    proc = run_python(["-c", CORENAME], **env_extra)
    return proc.stdout.strip() if proc.returncode == 0 else None


def test_numerical_contracts_hold_under_another_openblas_kernel():
    detected = corename()
    if detected is None or corename(OPENBLAS_CORETYPE=KERNEL) == detected:
        pytest.skip(f"OPENBLAS_CORETYPE={KERNEL} picks no other kernel here")
    tests = Path(__file__).resolve().parent
    proc = run_python(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", *(str(tests / t) for t in CONTRACTS)],
        OPENBLAS_CORETYPE=KERNEL,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
