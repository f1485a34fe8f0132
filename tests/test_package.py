import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_the_gfs_script_resolves_to_the_cli_main():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)  # no tomllib on 3.10
    assert scripts, "pyproject.toml declares no [project.scripts]"
    target = re.search(r'^gfs\s*=\s*"([\w.]+):(\w+)"\s*$', scripts.group(1), re.M)
    assert target, "pyproject.toml declares no gfs script"
    module, attr = target.groups()
    assert (module, attr) == ("gfstore.cli", "main")
    assert callable(getattr(importlib.import_module(module), attr))


def _tracing():
    """``perfbench/tracing.py``, imported from its file without touching it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # perfbench/tracing.py patches these by name; a renamed or deleted one breaks --trace 1
    tracing = _tracing()
    assert tracing.TRACED
    for module, path in tracing.TRACED:
        obj = importlib.import_module(f"gfstore.{module}")
        for name in path.split("."):
            assert hasattr(obj, name), f"{module}.{path} is traced but does not exist"
            obj = getattr(obj, name)
        assert callable(obj), f"{module}.{path} is traced but is not callable"
    spans = {tracing.span_name(module, path) for module, path in tracing.TRACED}
    assert set(tracing.HOOKS) <= spans


def test_traced_tuned_ingest_counts_its_scored_pairs():
    tracing = _tracing()
    rec = gfstore.SummaryRecord(rules=gfstore.CurationRules(budget_slots=8, nonstationarity_w=1.0))
    with tracing.Tracer() as tracer:
        tracing.install(tracer)
        rec.ingest_block(np.arange(40.0))
    metrics = tracing.layer_metrics(tracer)
    # one scoring per merge, each ranking at least one pair
    assert metrics["curation.score_merge_candidates.calls"] == rec.merge_count > 0
    assert metrics["curation.pairs_scored"] >= rec.merge_count
