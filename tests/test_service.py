import io
import json
import math
import os
import shutil
import socket
import sys
import tempfile
import threading
from collections import Counter
from collections.abc import Mapping

import numpy as np
import pytest

from gfstore import cli, compare, container, index, service, stats
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


def plain(x):
    """``x`` as plain dicts, lists and scalars, whatever mapping or list types hold it."""
    if isinstance(x, Mapping):
        return {key: plain(v) for key, v in x.items()}
    if isinstance(x, list):
        return [plain(v) for v in x]
    return x


def oracle_line(reply) -> bytes:
    """The line ``json.dumps`` writes for ``reply`` as plain dicts and lists, NaN and inf as strings."""
    whole = plain(reply)
    try:
        text = json.dumps(whole, sort_keys=True, allow_nan=False)
    except ValueError:
        text = json.dumps(service._jsonable(whole), sort_keys=True)
    return text.encode("utf-8") + b"\n"


def random_requests(rng, rec, n):
    """``n`` interval requests over random spans and member requests of stored means, drawn and outside values."""
    means = [float(s.mean[0]) for s in rec.samples_in_time_order()]
    for _ in range(n):
        if rng.random() < 0.5:
            t0 = int(rng.integers(-5, rec.now))
            yield {"op": "interval", "t0": t0, "t1": int(rng.integers(max(t0, 0) + 1, rec.now + 1))}
        else:
            pick = rng.integers(3)
            v = [means[rng.integers(len(means))], rng.normal(0.0, 2.0), 1e6 * rng.choice([-1, 1])][pick]
            yield {"op": "member", "value": [float(v)] + [float(rng.normal())] * (rec.channels - 1)}


def assert_lines_match_the_oracle(svc, requests):
    for req in requests:
        reply = ask(svc, req)
        assert reply["ok"], reply
        assert service.encode(reply) == oracle_line(reply), req
        assert svc.table.stack is svc.rec.stack() and len(svc.table.texts) == svc.rec.slots()  # one text a row


def test_interval_and_member_lines_are_the_json_of_their_replies_over_non_finite_rows():
    raw = np.random.default_rng(21).normal(size=400)
    raw[[30, 150, 300, 399]] = [np.nan, np.inf, -np.inf, np.nan]
    rec = SummaryRecord(budget=16)
    rec.ingest_block(raw)
    svc = service.QueryService(rec)
    assert_lines_match_the_oracle(svc, random_requests(np.random.default_rng(22), rec, 300))
    assert None not in svc.table.texts  # every stored sample was returned, and encoded once
    lines = [service.encode(ask(svc, {"op": op, **req})) for op, req in (("interval", {"t0": 0, "t1": 400}),
                                                                        ("member", {"value": [0.1]}))]
    assert all(b'"nan"' in line and b"NaN" not in line for line in lines)
    assert b'"inf"' in lines[0] and b'"-inf"' in lines[0]


def test_interval_and_member_lines_after_a_dropped_variance_at_two_channels():
    rec = SummaryRecord(channels=2, budget=12)
    rec.ingest_block(np.random.default_rng(23).normal(size=(600, 2)))
    coarsest = max(k for k, level in enumerate(rec.levels) if level)
    rec.drop_statistic(coarsest, "variance")
    svc = service.QueryService(rec)
    assert_lines_match_the_oracle(svc, random_requests(np.random.default_rng(24), rec, 300))
    whole = ask(svc, {"op": "interval", "t0": 0, "t1": rec.now})["result"]
    assert any(part["variance"] is None for part in whole) and any(part["variance"] for part in whole)


def test_the_kept_texts_follow_the_record_through_an_ingest_and_a_drop():
    rng = np.random.default_rng(25)
    rec = SummaryRecord(budget=10)
    rec.ingest_block(rng.normal(size=300))
    svc = service.QueryService(rec)
    assert_lines_match_the_oracle(svc, random_requests(rng, rec, 100))
    table = svc.table
    edited = ask(svc, {"op": "interval", "t0": 0, "t1": rec.now})
    want = service.encode(edited)
    edited["result"][0]["mean"][0] = 1e9  # a caller's edit reaches no later reply
    edited["result"].clear()
    assert service.encode(ask(svc, {"op": "interval", "t0": 0, "t1": rec.now})) == want
    rec.ingest_block(rng.normal(5.0, 1.0, size=200))
    assert_lines_match_the_oracle(svc, random_requests(rng, rec, 100))
    assert svc.table.stack is rec.stack() is not table.stack
    rec.drop_statistic(max(k for k, level in enumerate(rec.levels) if level), "variance")
    assert_lines_match_the_oracle(svc, random_requests(rng, rec, 100))
    whole = ask(svc, {"op": "interval", "t0": 0, "t1": rec.now})
    assert whole["result"][0]["variance"] is None
    assert service.encode(whole) == oracle_line(whole)


def assert_likelihoods_match_a_fresh_table(svc, requests):
    """Each ``member`` reply ranks the candidates and likelihoods that :func:`index.membership` gives over a table
    built anew from the record's stored samples, with likelihood parts made anew: bit for bit, NaN for NaN."""
    for req in requests:
        if req["op"] != "member":
            continue
        rec = svc.rec
        fresh = index.membership(index.build(list(rec.samples_in_time_order()), rec.channels), req["value"])
        got = ask(svc, req)["result"]["candidates"]
        assert [c["sample"]["t_start"] for c in got] == [s.t_start for s, _ in fresh.candidates], req
        assert np.array_equal([c["likelihood"] for c in got], [x for _, x in fresh.candidates], equal_nan=True), req


def family_stores() -> dict:
    """Records of d = 1 whose stored samples take each likelihood family, and one with NaN and inf rows."""
    rng = np.random.default_rng(41)
    edges = tuple(np.linspace(-3.0, 3.0, 9).tolist())
    stores = {
        "histogram": SummaryRecord(budget=16, opts=stats.StatisticSet(histogram_edges=edges)),
        "no variance": SummaryRecord(budget=16),
        "no variance, no extrema": SummaryRecord(budget=16),
        "non-finite": SummaryRecord(budget=16),
    }
    raw = rng.normal(size=400)
    for rec in stores.values():
        rec.ingest_block(raw)
    for name, dropped in (("no variance", ("variance",)), ("no variance, no extrema", ("variance", "extrema"))):
        rec = stores[name]
        for k in range(len(rec.levels) - 1):  # every level but the finest, whose samples keep their variance
            for statistic in dropped:
                rec.drop_statistic(k + 1, statistic)
    stores["non-finite"] = SummaryRecord(budget=16)
    raw[[30, 150, 300, 399]] = [np.nan, np.inf, -np.inf, np.nan]
    stores["non-finite"].ingest_block(raw)
    return stores


@pytest.mark.parametrize(
    "name, family",
    [
        ("histogram", index.PIECEWISE),
        ("no variance", index.UNIFORM),
        ("no variance, no extrema", index.POINT),
        ("non-finite", index.GAUSSIAN),
    ],
)
def test_every_likelihood_family_through_the_kept_table(name, family):
    rec = family_stores()[name]
    assert family in index.families(rec.stack())
    svc = service.QueryService(rec)
    rng = np.random.default_rng(42)
    for block in range(3):  # the table changes between batches, so the service's and the record's parts are made anew
        requests = list(random_requests(rng, rec, 100))
        assert_lines_match_the_oracle(svc, requests)
        assert_likelihoods_match_a_fresh_table(svc, requests)
        table = svc.table
        rec.ingest_block(rng.normal(size=7))
        assert ask(svc, {"op": "interval", "t0": 0, "t1": rec.now})["ok"] and svc.table is not table
    if name == "non-finite":
        line = service.encode(ask(svc, {"op": "member", "value": [0.1]}))
        assert b'"likelihood": "nan"' in line and b"NaN" not in line


def test_a_reply_is_fixed_when_it_is_made():
    rng = np.random.default_rng(31)
    rec = SummaryRecord(budget=12)
    rec.ingest_block(rng.normal(size=300))
    svc = service.QueryService(rec)
    requests = [
        {"op": "member", "value": [float(rec.levels[0][-1].mean[0])]},
        {"op": "interval", "t0": 0, "t1": rec.now},
    ]
    unread = [ask(svc, req) for req in requests]  # left unread while the record changes
    read = [ask(svc, req) for req in requests]
    want, lines = [plain(r) for r in read], [service.encode(r) for r in read]
    assert all(r["result"]["candidates"] for r in want[:1]) and all(type(r) is service.Reply for r in read)
    for reply, first in zip(read, want):
        assert reply == first and plain(reply) == plain(reply)  # two reads are equal
    read[0]["result"]["candidates"][0]["sample"]["mean"][0] = 1e9  # a caller's edits reach no line and no reply
    read[1]["result"][0]["variance"] = None
    read[1]["result"].pop()
    assert [service.encode(r) for r in read] == lines
    assert [plain(ask(svc, req)) for req in requests] == want
    table = rec.stack()
    rec.ingest_block(rng.normal(size=5))
    rec.drop_statistic(max(k for k, level in enumerate(rec.levels) if level), "variance")
    assert any(s.variance is None for s in table.samples)  # the drop edited stored samples the replies returned
    assert [plain(r) for r in unread] == want and unread == want
    assert [service.encode(r) for r in unread] == lines


@pytest.mark.parametrize("value", [0.5, 1, [0.5], [1], float("nan"), [float("nan")]])
def test_member_takes_a_json_number_or_a_list_of_them(served, value):
    svc, _, _, _ = served
    reply = svc.handle_line(json.dumps({"op": "member", "value": value}))
    assert reply["ok"] and type(reply) is service.Reply


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
        '{"op": "member", "value": true}',
        '{"op": "member", "value": [true]}',
        '{"op": "member", "value": ["0.5"]}',
        '{"op": "member", "value": "0.5"}',
        '{"op": "member", "value": null}',
        '{"op": "member", "value": [null]}',
        '{"op": "member", "value": [[0.5]]}',
        '{"op": "member", "value": {"0": 0.5}}',
        '{"op": "member"}',
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
    """50 member and 50 compare requests from five threads share one table and one aggregate of the record."""
    svc, rec, other, _ = served
    values = np.random.default_rng(4).normal(size=50).tolist()
    fresh = service.QueryService(container.read(container.write(rec)))
    want_member = [ask(fresh, {"op": "member", "value": [v]}) for v in values]
    want_compare = verdict_of(fresh.rec, other)
    served_ids = {id(s) for s in rec.samples_in_time_order()}
    own_builds, own_merges = [], []  # the other store's table and reduction are its own
    build, merge_runs = index.build, stats.merge_runs

    def counted_build(leaves, channels):
        leaves = list(leaves)
        own_builds.append(bool(leaves) and id(leaves[0]) in served_ids)
        return build(leaves, channels)

    def counted_merge_runs(st, *args):
        own_merges.append(bool(st.samples) and id(st.samples[0]) in served_ids)
        return merge_runs(st, *args)

    monkeypatch.setattr(index, "build", counted_build)
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
    lines = [(service.encode(got), service.encode(want)) for got, want in replies if type(got) is service.Reply]
    assert len(lines) == 50 and all(got == want for got, want in lines)  # the texts kept under five threads
    assert own_builds.count(True) == 1  # one table, read by the member requests and the aggregate
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


# -- the socket layer ---------------------------------------------------------


@pytest.fixture
def socket_server():
    """``make_server`` over a budget-8 record of 200 rows, one of them NaN, served in a thread, on the path of a
    stale socket file.

    An AF_UNIX path holds at most 107 bytes, so the socket lives in a short temporary directory.
    """
    short = tempfile.mkdtemp(dir="/tmp")
    path = os.path.join(short, "s.sock")
    raw = np.random.default_rng(15).normal(size=200)
    raw[50] = np.nan
    rec = SummaryRecord(budget=8)
    rec.ingest_block(raw)
    stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    stale.bind(path)  # the socket file a server that was killed leaves behind
    stale.close()
    server = service.make_server(rec, path)  # replaces it
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, path
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        shutil.rmtree(short)
    assert not thread.is_alive()


def connect(path) -> socket.socket:
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(10)
    conn.connect(path)
    return conn


def test_the_socket_answers_each_line_but_a_blank_one(socket_server):
    server, path = socket_server
    with connect(path) as conn, conn.makefile("rb") as replies:
        conn.sendall(b"\n   \n" + json.dumps({"op": "interval", "t0": 0, "t1": 3}).encode() + b"\n")
        first = json.loads(replies.readline())
        assert first["ok"] and [p["t_start"] for p in first["result"]] == [0]  # no reply came before it
        conn.sendall(b"{not json\n")
        malformed = json.loads(replies.readline())
        assert malformed["ok"] is False and malformed["error"].startswith("JSONDecodeError")
        conn.sendall(json.dumps({"op": "member", "value": [0.1]}).encode() + b"\n")
        member = json.loads(replies.readline(), parse_constant=refuse)  # strict JSON over the NaN row
        assert member["ok"] and member["result"]["candidates"][-1]["likelihood"] == "nan"


def test_the_socket_answers_two_open_clients_and_shuts_down(socket_server):
    server, path = socket_server
    with connect(path) as first, connect(path) as second:
        with first.makefile("rb") as first_replies, second.makefile("rb") as second_replies:
            second.sendall(json.dumps({"op": "inspect"}).encode() + b"\n")  # the later client asks first
            first.sendall(json.dumps({"op": "interval", "t0": 0, "t1": 200}).encode() + b"\n")
            assert json.loads(second_replies.readline())["result"]["slots"] == 8
            assert json.loads(first_replies.readline())["ok"]
            stopper = threading.Thread(target=server.shutdown)
            stopper.start()
            stopper.join(timeout=10)
            assert not stopper.is_alive()  # shutdown() returned with both clients still connected


# -- what serve saves on exit ---------------------------------------------------


def serve_session(tmp_path, monkeypatch, during):
    """Save a store of the first 100 of 150 rows, then ``service.serve`` it with ``during(service, store, rows)`` as
    its whole session; returns the store's path."""
    store = tmp_path / "s.gfs"
    rows = np.random.default_rng(6).normal(size=150)
    rec = SummaryRecord(budget=16)
    rec.ingest_block(rows[:100])
    container.save(rec, store)

    def serve_forever(server):
        during(server.service, store, rows)
        raise KeyboardInterrupt

    monkeypatch.setattr(service.SocketServer, "serve_forever", serve_forever)
    short = tempfile.mkdtemp(dir="/tmp")
    try:
        service.serve(str(store), os.path.join(short, "s.sock"))
    finally:
        assert os.listdir(short) == []  # the socket is gone
        shutil.rmtree(short)
    return store


def test_serve_keeps_the_rows_appended_while_it_served(tmp_path, monkeypatch):
    seen = {}

    def during(svc, store, rows):
        for req in ({"op": "interval", "t0": 40, "t1": 100}, {"op": "member", "value": [float(rows[99])]}):
            assert ask(svc, req)["ok"]
        seen["tallies"] = access_tallies(svc.rec)  # the store had none before the session
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(f"{x!r}\n" for x in rows[100:].tolist())))
        assert cli.main(["ingest", str(store)]) == 0  # a second writer appends 50 rows
        seen["appended"] = container.load(store)

    saved = container.load(serve_session(tmp_path, monkeypatch, during))
    want, tallies = seen["appended"], seen["tallies"]
    want.event_counts.update(tallies)
    assert tallies and saved.now == 150
    assert access_tallies(saved) == tallies
    assert saved.levels == want.levels and saved.event_counts == want.event_counts


def test_serve_does_not_make_a_deleted_store_again(tmp_path, monkeypatch):
    def during(svc, store, rows):
        assert ask(svc, {"op": "interval", "t0": 0, "t1": 100})["ok"]
        os.unlink(store)

    with pytest.raises(FileNotFoundError):
        serve_session(tmp_path, monkeypatch, during)
    assert not (tmp_path / "s.gfs").exists()
