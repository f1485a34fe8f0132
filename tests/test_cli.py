import io
import json
import sys

import numpy as np
import pytest

from gfstore import cli, container
from gfstore.record import PROVENANCE_RING


@pytest.fixture
def gfs(monkeypatch, capsys):
    """``gfs(args, stdin_text)`` runs ``cli.main`` in-process; returns (exit code, stdout, stderr)."""

    def run(args, stdin_text=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        rc = cli.main(args)
        out, err = capsys.readouterr()
        return rc, out, err

    return run


def csv_rows(n, seed=0):
    rows = np.random.default_rng(seed).normal(size=(n, 2)).tolist()
    return "#observation,reward\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows)


def test_ingest_twice_then_inspect_text_and_json(gfs, tmp_path):
    store = str(tmp_path / "s.gfs")
    rc, out, err = gfs(["ingest", store, "--budget", "8"], csv_rows(100))
    assert (rc, err) == (0, "")
    assert out == "ingested 100 rows; slots 8/8; t = 100\n"
    rc, out, _ = gfs(["ingest", store], csv_rows(50, seed=1))
    assert rc == 0 and out.endswith("t = 150\n")

    rc, text, err = gfs(["inspect", store])
    assert (rc, err) == (0, "")
    assert text.startswith("stream t = 150; slots 8/8; merges 142;")
    assert "channels: 2 ['observation', 'reward']" in text
    assert f"provenance: 143 events, last {PROVENANCE_RING} kept\n" in text
    assert "  create: 1\n  rescale level 0 (ingest): 74\n" in text

    rc, raw, err = gfs(["inspect", store, "--json"])
    assert (rc, err) == (0, "")
    assert raw.count("\n") == 1
    info = json.loads(raw)
    rec = container.load(store)
    assert info == json.loads(json.dumps(container.inspect_summary(rec)))
    assert info["provenance_events"] == 143
    assert info["event_counts"][0] == ["create", None, None, 1]
    assert sum(n for op, _, _, n in info["event_counts"] if op == "rescale") == info["merge_count"]
    assert len(info["provenance"]) == PROVENANCE_RING
    assert info["provenance"][-1]["op"] == "rescale"


def test_usage_errors_exit_1(gfs):
    rc, out, err = gfs(["inspect"])
    assert rc == 1 and out == "" and "error" in err
    rc, _, err = gfs(["no-such-command"])
    assert rc == 1


def test_data_errors_exit_2_with_one_line(gfs, tmp_path):
    store = str(tmp_path / "s.gfs")
    rc, _, err = gfs(["ingest", store], "1.0\nnot-a-number\n")
    assert rc == 2 and err.count("\n") == 1 and "line 2" in err
    rc, _, err = gfs(["inspect", str(tmp_path / "missing.gfs")])
    assert rc == 2 and err.count("\n") == 1


def test_inspect_truncated_store_exits_2_without_traceback(gfs, tmp_path):
    store = tmp_path / "s.gfs"
    assert gfs(["ingest", str(store), "--budget", "8"], csv_rows(40))[0] == 0
    blob = store.read_bytes()
    for cut in (6, 40, len(blob) // 2, len(blob) - 1):
        store.write_bytes(blob[:cut])
        rc, out, err = gfs(["inspect", str(store)])
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("gfs: ")
        assert "Traceback" not in err


def test_budget_on_an_existing_store_rebalances_it(gfs, tmp_path):
    store = tmp_path / "s.gfs"
    assert gfs(["ingest", str(store), "--budget", "16"], csv_rows(100))[0] == 0
    rc, out, err = gfs(["ingest", str(store), "--budget", "4"])
    assert (rc, err) == (0, "")
    assert out == "ingested 0 rows; slots 4/4; t = 100\n"
    rec = container.load(store)
    assert (rec.slots(), rec.budget, rec.aggregate().n) == (4, 4, 100)
    assert sum(n for (op, _, reason), n in rec.event_counts.items() if (op, reason) == ("rescale", "budget")) == 12

    before = store.read_bytes()
    rc, out, err = gfs(["ingest", str(store), "--budget", "0"], csv_rows(10))
    assert rc == 2 and out == "" and "BudgetTooSmall" in err
    assert store.read_bytes() == before
