"""The documented library surface: README's example and `scbench.__all__`."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import scbench

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ)
    src = str(Path(scbench.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    ari, mean_width = (float(v) for v in proc.stdout.split())
    assert ari >= 0.9 and -1.0 <= mean_width <= 1.0


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
