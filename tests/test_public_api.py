"""The documented library surface: README's example and `scbench.__all__`."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scbench
from scbench._util import openblas_thread_calls

ROOT = Path(__file__).resolve().parents[1]


def run_readme_example(**extra_env) -> list[float]:
    """Run README's library example in a fresh interpreter; the numbers it prints."""
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ)
    src = str(Path(scbench.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return [float(v) for v in proc.stdout.split()]


def test_readme_library_example_runs():
    ari, mean_width = run_readme_example()
    assert ari >= 0.9 and -1.0 <= mean_width <= 1.0


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or openblas_thread_calls() is None,
    reason="needs 2 cores and numpy's bundled OpenBLAS",
)
def test_readme_library_example_does_not_depend_on_blas_threads():
    # pca_fit_transform and tsne pin OpenBLAS themselves, outside the CLI too
    assert run_readme_example(OPENBLAS_NUM_THREADS="1") == run_readme_example(
        OPENBLAS_NUM_THREADS="2"
    )


def test_all_is_the_set_of_public_names_imported():
    tree = ast.parse(Path(scbench.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(set(scbench.__all__)) == len(scbench.__all__)
    assert set(scbench.__all__) == {n for n in imported if not n.startswith("_")}


def test_every_public_name_is_used_outside_the_tests():
    # a public name must be used by the package itself (not just re-exported
    # or defined), or by the documented workflows: README and perfbench/
    used = set()
    for path in Path(scbench.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    docs = (ROOT / "README.md").read_text() + "".join(
        p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py"))
    )
    unused = [
        name for name in scbench.__all__
        if name not in used and not re.search(rf"\b{name}\b", docs)
    ]
    assert unused == []
