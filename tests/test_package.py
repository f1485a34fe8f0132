import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import gfstore

CHECK = """
import sys
import gfstore
missing = [name for name in gfstore.__all__ if not hasattr(gfstore, name)]
assert not missing, f"exported but undefined: {missing}"
assert "scipy" not in sys.modules, "import gfstore pulled in scipy"
"""


def test_import_is_light_and_exports_resolve():
    src = str(Path(gfstore.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", CHECK], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_every_traced_name_resolves():
    # perfbench/tracing.py patches these by name; a renamed or deleted one breaks --trace 1
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text())
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    ]
    assert traced
    for module, path in traced:
        obj = importlib.import_module(f"gfstore.{module}")
        for name in path.split("."):
            assert hasattr(obj, name), f"{module}.{path} is traced but does not exist"
            obj = getattr(obj, name)
