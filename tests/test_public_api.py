"""The documented library surface: README's example and `scbench.__all__`."""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import modules_imported_by

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
    # _HOME is built from dict.fromkeys(names, module) parts; read the names
    # from its source, where a name listed twice still shows
    tree = ast.parse(Path(scbench.__file__).read_text())
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_HOME"
    )
    listed = [
        elt.value
        for call in ast.walk(table) if isinstance(call, ast.Call)
        for elt in call.args[0].elts
    ]
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if name.startswith("_")] == []
    assert set(listed) == set(scbench._HOME) == set(scbench.__all__)
    assert len(set(scbench.__all__)) == len(scbench.__all__)


def test_every_public_name_is_the_object_its_home_module_defines():
    for name, home in scbench._HOME.items():
        module = importlib.import_module(f"scbench.{home}")
        assert getattr(scbench, name) is getattr(module, name), name
        assert getattr(module, name).__module__ == module.__name__, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from scbench import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(scbench.__all__)


def test_a_bare_import_loads_no_submodule():
    assert {m for m in modules_imported_by("import scbench") if m.startswith("scbench.")} == set()


def test_submodules_and_names_load_on_first_access():
    modules_imported_by(
        "import scbench\n"
        "assert scbench.embed.tsne is scbench.tsne\n"
        "assert scbench.svg.bar_chart and scbench.cli.cli_main and scbench._util.quartiles\n"
        "assert {'tsne', 'embed', 'cli'} <= set(dir(scbench))\n"
        "assert not hasattr(scbench, 'no_such_name')\n"
    )


def test_a_broken_submodule_raises_its_own_import_error():
    # None in sys.modules makes the import of scbench.cluster fail
    modules_imported_by(
        "import sys\n"
        "sys.modules['scbench.cluster'] = None\n"
        "import scbench\n"
        "try:\n"
        "    scbench.kmeans\n"
        "except ImportError as exc:\n"
        "    assert exc.name == 'scbench.cluster', exc\n"
        "else:\n"
        "    raise AssertionError('no ImportError')\n"
    )


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
