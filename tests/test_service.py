import json
import math
import os
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from gfstore import compare, container, index, service, stats
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


def level_of(rec, t_start) -> int:
    """The level of ``rec`` that holds the stored sample starting at ``t_start``."""
    return next(k for k, level in enumerate(rec.levels) if any(s.t_start == t_start for s in level))


def access_tallies(rec) -> dict:
    return {key: n for key, n in rec.event_counts.items() if key[0] == "access"}


def returned_starts(req, result) -> list[int]:
    """The starts of the stored samples a reply to ``req`` returned."""
    if req["op"] == "interval":
        return [part["t_start"] for part in result]
    return [c["sample"]["t_start"] for c in result["candidates"]]


def test_interval_bumps_access_counters(served):
    svc, rec, _, _ = served
    events, noted = list(rec.provenance), container.inspect_summary(rec)["provenance_events"]
    requests = [
        {"op": "interval", "t0": 0, "t1": 200},
        {"op": "interval", "t0": 150, "t1": 200},
        {"op": "member", "value": [0.0]},
        {"op": "member", "value": [float(rec.levels[0][-1].mean[0])]},
        {"op": "member", "value": [1e6]},
    ]
    want = Counter()
    for req in requests:
        reply = ask(svc, req)
        assert reply["ok"]
        for start in returned_starts(req, reply["result"]):
            want["access", level_of(rec, start), req["op"]] += 1
    assert {k for _, k, _ in want} == {k for k, level in enumerate(rec.levels) if level}  # every level answered
    assert access_tallies(rec) == dict(want)
    assert list(rec.provenance) == events  # no request enters the ring
    assert container.inspect_summary(rec)["provenance_events"] == noted


def test_access_tallies_stay_bounded_and_round_trip(served):
    svc, rec, _, _ = served
    events = list(rec.provenance)
    rng = np.random.default_rng(5)
    returned = 0
    for i in range(10_000):
        if i % 2:
            t0 = int(rng.integers(0, rec.now))
            req = {"op": "interval", "t0": t0, "t1": int(rng.integers(t0 + 1, rec.now + 1))}
        else:
            req = {"op": "member", "value": [float(rng.normal(0.0, 2.0))]}
        reply = ask(svc, req)
        assert reply["ok"]
        returned += len(returned_starts(req, reply["result"]))
    tallies = access_tallies(rec)
    assert sum(tallies.values()) == returned
    assert len(tallies) <= 2 * len(rec.levels)
    assert list(rec.provenance) == events
    back = container.read(container.write(rec))
    assert back == rec and access_tallies(back) == tallies


def test_member(served):
    svc, rec, _, _ = served
    hit = ask(svc, {"op": "member", "value": [float(rec.levels[0][-1].mean[0])]})
    assert hit["ok"] and not hit["result"]["absent_certain"]
    assert hit["result"]["candidates"]
    miss = ask(svc, {"op": "member", "value": [1e6]})
    assert miss["ok"] and miss["result"]["absent_certain"]
    assert miss["result"]["candidates"] == []


def refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


def test_member_and_interval_replies_are_strict_json_over_non_finite_rows():
    raw = np.random.default_rng(15).normal(size=200)
    raw[50], raw[199] = np.nan, -np.inf
    rec = SummaryRecord(budget=8)
    rec.ingest_block(raw)
    svc = service.QueryService(rec)
    strict = {}
    for op, req in (("member", {"value": [0.1]}), ("interval", {"t0": 0, "t1": 200})):
        resp = ask(svc, {"op": op, **req})
        assert resp["ok"]
        strict[op] = json.loads(service.encode(resp), parse_constant=refuse)["result"]  # the line the socket sends
    likes = [c["likelihood"] for c in strict["member"]["candidates"]]
    assert likes[-1] == "nan" and all(type(x) is float for x in likes[:-1])  # the sample holding the NaN row
    held = strict["member"]["candidates"][-1]["sample"]
    assert held["t_start"] <= 50 < held["t_end"] and held["mean"] == held["min"] == ["nan"]
    newest = strict["interval"][-1]
    assert (newest["t_start"], newest["mean"], newest["min"], newest["max"]) == (199, ["-inf"], ["-inf"], ["-inf"])
    assert all(type(x) is float for part in strict["interval"][1:-1] for x in part["mean"] + part["variance"])


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
    for owner, name in ((container, "load"), (container, "read"), (os, "stat"), (os, "fstat"), (service, "open")):
        monkeypatch.setattr(owner, name, lambda *args, name=name: opened.append((name, args)), raising=False)
    for path in (str(tmp_path / "secret.gfs"), "../secret.gfs", "link.gfs", "/etc/hostname"):
        reply = ask(svc, {"op": "compare", "store": path})
        assert reply["ok"] is False
        assert "PermissionError" in reply["error"]
        assert SECRET[:4].decode() not in reply["error"]
    monkeypatch.chdir(tmp_path)
    assert ask(svc, {"op": "compare", "store": "secret.gfs"})["ok"] is False
    assert opened == []
    assert svc.other_aggregates == {}


def verdict_of(rec, other) -> dict:
    want = compare.subset_verdict(rec.aggregate(), other.aggregate())
    return {"verdict": want.verdict, "d_ab": jsonable(want.d_ab), "d_ba": jsonable(want.d_ba), "note": want.note}


def count_reads(monkeypatch) -> list:
    reads = []
    read = container.read
    monkeypatch.setattr(container, "read", lambda blob: reads.append(len(blob)) or read(blob))
    return reads


def test_compare_reads_a_store_once_until_it_is_saved_again(served, monkeypatch):
    svc, rec, other, tmp_path = served
    path = tmp_path / "stores" / "other.gfs"
    reads = count_reads(monkeypatch)
    first = ask(svc, {"op": "compare", "store": "other.gfs"})
    assert first["ok"] and first["result"] == verdict_of(rec, other)
    assert ask(svc, {"op": "compare", "store": str(path)}) == first
    assert len(reads) == 1 and len(svc.other_aggregates) == 1
    other.ingest_block(np.random.default_rng(3).normal(-5.0, 0.5, size=300))
    container.save(other, path)
    again = ask(svc, {"op": "compare", "store": "other.gfs"})
    assert again["ok"] and again["result"] == verdict_of(rec, other) != first["result"]
    assert len(reads) == 2


def test_compare_keeps_at_most_its_bound_of_other_aggregates(served):
    svc, rec, other, tmp_path = served
    names = [f"other{k}.gfs" for k in range(service.OTHER_AGGREGATES + 2)]
    for k, name in enumerate(names):
        other.ingest_block(np.full(1, float(k)))  # each store holds other data
        container.save(other, tmp_path / "stores" / name)
        reply = ask(svc, {"op": "compare", "store": name})
        assert reply["ok"] and reply["result"] == verdict_of(rec, other)
        assert len(svc.other_aggregates) == min(k + 1, service.OTHER_AGGREGATES)
    held = {key[0] for key in svc.other_aggregates}
    assert held == {os.path.realpath(tmp_path / "stores" / name) for name in names[2:]}  # the oldest two went first


def test_concurrent_compares_share_the_bounded_cache(served):
    svc, rec, other, tmp_path = served
    want = {}
    for k in range(service.OTHER_AGGREGATES + 4):
        other.ingest_block(np.full(1, float(k)))
        container.save(other, tmp_path / "stores" / f"other{k}.gfs")
        want[f"other{k}.gfs"] = verdict_of(rec, other)
    replies = []

    def client(offset):
        for i in range(40):
            name = f"other{(offset + i) % len(want)}.gfs"
            replies.append((name, ask(svc, {"op": "compare", "store": name})))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(7 * t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(replies) == 4 * 40
    assert all(reply["ok"] and reply["result"] == want[name] for name, reply in replies)
    assert len(svc.other_aggregates) <= service.OTHER_AGGREGATES


def test_a_missing_or_corrupt_store_is_not_cached(served):
    svc, rec, other, tmp_path = served
    path = tmp_path / "stores" / "fixed.gfs"
    for blob in (None, b"", SECRET, container.write(other)[:-1]):
        if blob is not None:
            path.write_bytes(blob)
        reply = ask(svc, {"op": "compare", "store": "fixed.gfs"})
        assert reply["ok"] is False and reply["error"]
        assert svc.other_aggregates == {}
    container.save(other, path)
    reply = ask(svc, {"op": "compare", "store": "fixed.gfs"})
    assert reply["ok"] and reply["result"] == verdict_of(rec, other)
    assert len(svc.other_aggregates) == 1


def test_compare_without_a_store_directory_is_refused(served):
    _, rec, _, _ = served
    reply = ask(service.QueryService(rec), {"op": "compare", "store": "other.gfs"})
    assert reply["ok"] is False and "PermissionError" in reply["error"]


@pytest.mark.parametrize(
    "line",
    [
        '{"op": "drop_everything"}',
        "{not json",
        "[1, 2]",
        b"\xff\xfe",
        '{"op": "interval", "t0": 1.9, "t1": 3}',
        '{"op": "interval", "t0": true, "t1": 3}',
        '{"op": "interval", "t0": "3", "t1": 5}',
        '{"op": "interval", "t0": 0, "t1": 3.0}',
        '{"op": "interval", "t0": 0}',
    ],
)
def test_unknown_op_and_malformed_requests(served, line):
    svc, rec, _, _ = served
    before = dict(rec.event_counts)
    reply = svc.handle_line(line)
    assert reply["ok"] is False
    assert reply["error"]
    assert rec.event_counts == before  # no access counted


def test_requests_on_an_unchanged_record_reduce_it_once(served, monkeypatch):
    """50 member and 50 compare requests from five threads share one stack and one aggregate of the record."""
    svc, rec, other, _ = served
    values = np.random.default_rng(4).normal(size=50).tolist()
    fresh = service.QueryService(container.read(container.write(rec)))
    want_member = [ask(fresh, {"op": "member", "value": [v]}) for v in values]
    want_compare = verdict_of(fresh.rec, other)
    served_ids = {id(s) for s in rec.samples_in_time_order()}
    builds, own_merges = [], []
    build, merge_runs = index.build, stats.merge_runs

    def counted_merge_runs(samples, *args):
        own_merges.append(bool(samples) and id(samples[0]) in served_ids)  # the other store's reduction is its own
        return merge_runs(samples, *args)

    monkeypatch.setattr(index, "build", lambda leaves: builds.append(None) or build(leaves))
    monkeypatch.setattr(stats, "merge_runs", counted_merge_runs)
    replies = []

    def client(t):
        for i in range(t, len(values), 5):
            replies.append((ask(svc, {"op": "member", "value": [values[i]]}), want_member[i]))
            replies.append((ask(svc, {"op": "compare", "store": "other.gfs"})["result"], want_compare))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(t,)) for t in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(replies) == 100
    assert all(got == want for got, want in replies)
    assert len(builds) == 1
    assert own_merges.count(True) == 1


def test_a_compare_after_an_ingest_reads_the_new_aggregate(served):
    svc, rec, other, _ = served
    first = ask(svc, {"op": "compare", "store": "other.gfs"})
    assert first["ok"] and first["result"] == verdict_of(rec, other)
    svc.rec.ingest_block(np.random.default_rng(5).normal(1.0, 2.0, size=400))
    second = ask(svc, {"op": "compare", "store": "other.gfs"})
    assert second["ok"] and second["result"] == verdict_of(rec, other) != first["result"]


def test_compare_replies_on_a_store_with_infinite_moments(served):
    _, _, other, tmp_path = served
    rec = SummaryRecord(budget=16)
    rec.ingest_block([-1e155, 1e155, 3e154, 0.0])  # near-limit rows: the aggregate's variance is inf
    assert not math.isfinite(rec.aggregate().variance[0])
    svc = service.QueryService(rec, str(tmp_path / "stores"))
    reply = ask(svc, {"op": "compare", "store": "other.gfs"})
    assert reply["ok"], reply
    assert reply["result"] == verdict_of(rec, other)
    assert reply["result"]["d_ab"] == reply["result"]["d_ba"] == "inf"
    assert json.loads(service.encode(reply)) == reply
