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
