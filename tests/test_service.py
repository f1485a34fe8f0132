import json
import math
import os

import numpy as np
import pytest

from gfstore import compare, container, service
from gfstore.record import SummaryRecord

SECRET = b"SECRET-BYTES-OF-A-FILE-OUTSIDE"


@pytest.fixture
def served(tmp_path, monkeypatch):
    """A service over a 200-row store in ``tmp_path/stores``, with one other store beside it.

    The working directory is ``tmp_path/stores``.
    """
    stores = tmp_path / "stores"
    stores.mkdir()
    rec = SummaryRecord(budget=16)
    rec.ingest_block(np.random.default_rng(1).normal(size=200))
    container.save(rec, stores / "served.gfs")
    other = SummaryRecord(budget=8)
    other.ingest_block(np.random.default_rng(2).normal(1.0, 2.0, size=100))
    container.save(other, stores / "other.gfs")
    (tmp_path / "secret.gfs").write_bytes(SECRET)
    monkeypatch.chdir(stores)
    return service.QueryService(rec, str(stores)), rec, other, tmp_path


def ask(svc, req) -> dict:
    return svc.handle_line(json.dumps(req))


def test_inspect(served):
    svc, rec, _, _ = served
    reply = ask(svc, {"op": "inspect"})
    assert reply["ok"]
    assert reply["result"] == container.inspect_summary(rec)
    assert reply["result"]["slots"] == rec.slots() == 16


def test_interval_bumps_access_counters(served):
    svc, rec, _, _ = served
    reply = ask(svc, {"op": "interval", "t0": 150, "t1": 200})
    assert reply["ok"]
    sids = [part["sid"] for part in reply["result"]]
    assert sids and sids == [p.sample.sid for p in rec.query_interval(150, 200)]
    before = [rec.access_log.count(sid) for sid in sids]
    ask(svc, {"op": "interval", "t0": 150, "t1": 200})
    assert [rec.access_log.count(sid) for sid in sids] == [c + 1.0 for c in before]


def test_member(served):
    svc, rec, _, _ = served
    hit = ask(svc, {"op": "member", "value": [float(rec.levels[0][-1].mean[0])]})
    assert hit["ok"] and not hit["result"]["absent_certain"]
    assert hit["result"]["candidates"]
    miss = ask(svc, {"op": "member", "value": [1e6]})
    assert miss["ok"] and miss["result"]["absent_certain"]
    assert miss["result"]["candidates"] == []


def jsonable(x):
    return "inf" if math.isinf(x) else x


@pytest.mark.parametrize("name", ["other.gfs", "./other.gfs", "sub/../other.gfs", "from-parent", "absolute"])
def test_compare_inside_the_store_directory(served, name, monkeypatch):
    svc, rec, other, tmp_path = served
    path = name
    if name == "from-parent":  # relative to a working directory above the store's
        monkeypatch.chdir(tmp_path)
        path = "stores/other.gfs"
    elif name == "absolute":
        path = str(tmp_path / "stores" / "other.gfs")
    reply = ask(svc, {"op": "compare", "store": path})
    assert reply["ok"], reply
    want = compare.subset_verdict(rec.aggregate(), other.aggregate())
    assert reply["result"] == {
        "verdict": want.verdict,
        "d_ab": jsonable(want.d_ab),
        "d_ba": jsonable(want.d_ba),
        "note": want.note,
    }


def test_compare_outside_the_store_directory_is_refused_unopened(served, monkeypatch):
    svc, _, _, tmp_path = served
    os.symlink(tmp_path / "secret.gfs", tmp_path / "stores" / "link.gfs")
    opened = []
    monkeypatch.setattr(container, "load", lambda path: opened.append(path))
    for path in (str(tmp_path / "secret.gfs"), "../secret.gfs", "link.gfs", "/etc/hostname"):
        reply = ask(svc, {"op": "compare", "store": path})
        assert reply["ok"] is False
        assert "PermissionError" in reply["error"]
        assert SECRET[:4].decode() not in reply["error"]
    monkeypatch.chdir(tmp_path)
    assert ask(svc, {"op": "compare", "store": "secret.gfs"})["ok"] is False
    assert opened == []


def test_compare_without_a_store_directory_is_refused(served):
    _, rec, _, _ = served
    reply = ask(service.QueryService(rec), {"op": "compare", "store": "other.gfs"})
    assert reply["ok"] is False and "PermissionError" in reply["error"]


@pytest.mark.parametrize("line", ['{"op": "drop_everything"}', "{not json", "[1, 2]", b"\xff\xfe"])
def test_unknown_op_and_malformed_requests(served, line):
    svc, _, _, _ = served
    reply = svc.handle_line(line)
    assert reply["ok"] is False
    assert reply["error"]
