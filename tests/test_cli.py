import io
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gfstore import cli, compare, container, index, stats
from gfstore.curation import compact
from gfstore.record import PROVENANCE_RING, SummaryRecord
from test_container import repack_manifest


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
    for args, stdin_text, message in (
        (["--stats", "cov,median"], csv_rows(5), "unknown statistic token 'median'"),
        ([], "#observation,bogus\n1.0,2.0\n", "line 1: unknown channel label(s) ['bogus']"),
        ([], "1,2\n#action,reward\n3,4\n", "line 2: a '#' label line may only come first"),
        ([], "\n#observation,reward\n\n#action,reward\n1,2\n", "line 4: a '#' label line may only come first"),
        ([], "", "no data on stdin and no existing store"),
    ):
        rc, out, err = gfs(["ingest", store, *args], stdin_text)
        assert (rc, out, err) == (2, "", f"gfs: ValueError: {message}\n")
        assert not os.path.exists(store)
    assert gfs(["ingest", store], csv_rows(5))[0] == 0
    rc, out, err = gfs(["query", store])
    assert (rc, out) == (2, "") and err == "gfs: ValueError: one of --interval/--member/--range is required\n"


def test_stats_list_names_the_statistics_of_a_new_store(gfs, tmp_path):
    store = tmp_path / "s.gfs"
    assert gfs(["ingest", str(store), "--stats", "cov,hull,swv"], csv_rows(20))[0] == 0
    assert container.load(store).opts == stats.StatisticSet(covariance=True, hull=True, swv=True)


@pytest.mark.parametrize("spec", ["hist=10:0:4", "hist=0:0:3", "hist=0:10:0"])
def test_bad_histogram_spec_exits_2_and_writes_nothing(gfs, tmp_path, spec):
    store = tmp_path / "s.gfs"
    rc, out, err = gfs(["ingest", str(store), "--stats", spec], csv_rows(20))
    assert (rc, out) == (2, "")
    assert err.startswith("gfs: ValueError: histogram edges") and err.count("\n") == 1
    assert not store.exists()


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


def test_an_append_to_a_format_6_store_works_on_its_columns_alone(gfs, tmp_path, monkeypatch):
    """One `gfs ingest` of 100 rows into an existing store reads, validates, curates and writes the record's table:
    it makes no sample object, builds no table from samples, decodes no sample and walks no sample."""
    store = tmp_path / "s.gfs"
    rows = np.random.default_rng(9).normal(size=3_100).tolist()
    assert gfs(["ingest", str(store)], "".join(f"{x!r}\n" for x in rows[:3_000]))[0] == 0
    want = container.load(store).ingest_block(rows[3_000:])
    made = []

    def refused(name):
        def call(*args, **kwargs):
            made.append(name)
            raise AssertionError(f"{name} called")

        return call

    sample_init = stats.SummarySample.__init__

    def counted_init(self, *args, **kwargs):
        made.append("SummarySample")
        sample_init(self, *args, **kwargs)

    monkeypatch.setattr(stats.SummarySample, "__init__", counted_init)
    monkeypatch.setattr(stats, "stack", refused("stats.stack"))
    monkeypatch.setattr(container, "_decode_sample", refused("container._decode_sample"))
    monkeypatch.setattr(stats.Stack, "samples", property(refused("Stack.samples")))
    monkeypatch.setattr(SummaryRecord, "samples_in_time_order", refused("samples_in_time_order"))
    rc, out, err = gfs(["ingest", str(store)], "".join(f"{x!r}\n" for x in rows[3_000:]))
    assert (rc, err, made) == (0, "", [])
    assert out == f"ingested 100 rows; slots {want.slots()}/{want.budget}; t = 3100\n"
    monkeypatch.undo()
    assert container.load(store) == want


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


def test_ragged_csv_on_an_existing_store_exits_2_and_saves_nothing(gfs, tmp_path):
    store = tmp_path / "s.gfs"
    assert gfs(["ingest", str(store), "--budget", "8"], csv_rows(20))[0] == 0
    before = store.read_bytes()
    rc, out, err = gfs(["ingest", str(store)], "1.0,2.0\n3.0,4.0\n5.0\n6.0,7.0\n")
    assert (rc, out) == (2, "")
    assert err == "gfs: ValueError: line 3: expected 2 values, got 1\n"
    assert store.read_bytes() == before


def test_stats_on_an_existing_store_must_match_its_own(gfs, tmp_path):
    store = tmp_path / "s.gfs"
    assert gfs(["ingest", str(store), "--budget", "8"], csv_rows(20))[0] == 0
    before = store.read_bytes()
    rc, out, err = gfs(["ingest", str(store), "--stats", "cov,hist=0:10:5"], csv_rows(5))
    assert (rc, out) == (2, "")
    assert err == (
        "gfs: ValueError: the store keeps count,mean,variance,min,max; "
        "--stats asks for count,mean,variance,min,max,covariance,histogram[0:10:5]\n"
    )
    assert store.read_bytes() == before

    rich = tmp_path / "rich.gfs"
    assert gfs(["ingest", str(rich), "--stats", "cov,hist=0:10:5"], csv_rows(20))[0] == 0
    rc, out, err = gfs(["ingest", str(rich), "--stats", "cov,hist=0:10:5"], csv_rows(5))
    assert (rc, err) == (0, "") and out.endswith("t = 25\n")
    rc, _, err = gfs(["ingest", str(rich), "--stats", "cov,hist=0:10:4"], csv_rows(5))
    assert rc == 2 and "histogram[0:10:5]; --stats asks for" in err and err.endswith("histogram[0:10:4]\n")


@pytest.mark.parametrize("header", ["#action,reward", "#action", "#observation,observation,reward"])
def test_a_label_header_on_an_existing_store_must_repeat_its_labels(gfs, tmp_path, header):
    store = tmp_path / "s.gfs"
    assert gfs(["ingest", str(store)], "1.0,2.0\n3.0,4.0\n")[0] == 0
    before = store.read_bytes()
    rc, out, err = gfs(["ingest", str(store)], f"{header}\n5.0,6.0\n")
    assert (rc, out) == (2, "")
    assert err == f"gfs: ChannelMismatch: the store labels its channels observation,observation; the header {header[1:]}\n"
    assert store.read_bytes() == before
    rc, out, err = gfs(["ingest", str(store)], "#observation,observation\n5.0,6.0\n")
    assert (rc, err) == (0, "") and out.endswith("t = 3\n")
    rc, _, err = gfs(["ingest", str(tmp_path / "new.gfs")], f"{header}\n5.0,6.0\n")
    if header == "#action,reward":  # a new store takes any valid label per channel
        assert (rc, err) == (0, "")
    else:
        assert rc == 2 and "ChannelMismatch: one label per channel" in err


def test_a_store_whose_labels_are_not_strings_exits_2_and_is_left_as_it_was(gfs, tmp_path):
    store = tmp_path / "s.gfs"
    assert gfs(["ingest", str(store)], "1.0\n2.0\n")[0] == 0
    store.write_bytes(repack_manifest(store.read_bytes(), lambda m: m.update(labels=[3])))
    before = store.read_bytes()
    rc, out, err = gfs(["ingest", str(store)], "#observation\n5.0\n")
    assert (rc, out) == (2, "")
    assert err == "gfs: CorruptContainer: need one label string per channel (1), found [3]\n"
    assert store.read_bytes() == before


def spans(text: str) -> list[tuple[int, int, int]]:
    """The ``[t0,t1) n=N`` of every sample line that ``gfs query`` printed."""
    return [tuple(map(int, m)) for m in re.findall(r"\[(\d+),(\d+)\) n=(\d+)", text)]


def test_query_prints_the_records_own_answers(gfs, tmp_path):
    store = str(tmp_path / "s.gfs")
    assert gfs(["ingest", store, "--budget", "16"], csv_rows(100))[0] == 0
    rec = container.load(store)

    rc, out, err = gfs(["query", store, "--interval", "40:90"])
    assert (rc, err) == (0, "")
    parts = rec.query_interval(40, 90)
    assert spans(out) == [(p.sample.t_start, p.sample.t_end, p.sample.n) for p in parts]
    assert out.count(" coarse\n") == sum(p.coarse for p in parts) > 0

    hit = rec.levels[0][-1].mean.tolist()
    rc, out, err = gfs(["query", store, "--member", ",".join(map(repr, hit))])
    res = rec.membership(hit)
    assert (rc, err) == (0, "") and not res.absent_certain
    assert out.startswith(f"{len(res.candidates)} candidate sample(s), {res.nodes_visited} stored sample(s) tested\n")
    assert spans(out) == [(s.t_start, s.t_end, s.n) for s, _ in res.candidates]

    rc, out, err = gfs(["query", store, "--member", "1e6,1e6"])
    assert (rc, err) == (0, "")
    assert out == f"absent (certain), {rec.membership([1e6, 1e6]).nodes_visited} stored sample(s) tested\n"

    rc, out, err = gfs(["query", store, "--range", "-1:1,-0.5:2"])
    low, up = index.range_count_bounds(rec.stack(), [-1.0, -0.5], [1.0, 2.0])
    assert (rc, out, err) == (0, f"count in [{low}, {up}]\n", "")
    assert 0 <= low <= up <= 100


@pytest.mark.parametrize(
    "option, value, answer",
    [
        ("--range", "-1:1", "count in [5, 5]"),
        ("--member", "-0.5,0.2", "5 candidate"),
        ("--member", "-.5,.2", "5 candidate"),
    ],
)
def test_query_values_may_start_with_a_minus(gfs, tmp_path, option, value, answer):
    store = str(tmp_path / "s.gfs")
    row = "-0.5" if option == "--range" else "-0.5,0.2"
    assert gfs(["ingest", store], f"{row}\n" * 5)[0] == 0
    rc, out, err = gfs(["query", store, option, value])
    assert (rc, err) == (0, "") and out.startswith(answer)
    assert (rc, out, err) == gfs(["query", store, f"{option}={value}"])


def test_query_refuses_an_inverted_range(gfs, tmp_path):
    store = str(tmp_path / "s.gfs")
    assert gfs(["ingest", store, "--budget", "2"], "".join(f"{t}\n" for t in range(40)))[0] == 0
    assert gfs(["query", store, "--range", "10:30"]) == (0, "count in [0, 38]\n", "")
    rc, out, err = gfs(["query", store, "--range", "30:10"])
    assert (rc, out) == (2, "") and err.startswith("gfs: ValueError: the box's low corner [30.0]")
    wide = str(tmp_path / "wide.gfs")
    assert gfs(["ingest", wide, "--budget", "16"], "".join(f"{t % 3},{t % 5}\n" for t in range(200)))[0] == 0
    assert gfs(["query", wide, "--range", "-1:1,-1:1"])[0] == 0
    for box in ("nan:1,-1:1", "-1:1,-1:nan", "nan:nan,-1:1"):
        rc, out, err = gfs(["query", wide, "--range", box])
        assert (rc, out) == (2, "") and err.startswith("gfs: ValueError: the box's low corner ["), box


@pytest.mark.parametrize("command", [["inspect", "--json"], ["query", "--interval", "0:100"]])
def test_a_closed_stdout_exits_141_and_prints_nothing(gfs, tmp_path, command):
    store = str(tmp_path / "s.gfs")
    assert gfs(["ingest", store, "--budget", "16"], csv_rows(100))[0] == 0
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    read, write = os.pipe()
    os.close(read)  # the reader is gone before gfs writes, as after `| head -c 10`
    try:
        cmd = [sys.executable, "-m", "gfstore.cli", command[0], store, *command[1:]]
        proc = subprocess.run(cmd, stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_queries_on_a_saved_empty_record_find_nothing(gfs, tmp_path):
    store = str(tmp_path / "s.gfs")
    container.save(SummaryRecord(channels=2), store)
    assert gfs(["query", store, "--range", "-1:1,-1:1"]) == (0, "count in [0, 0]\n", "")
    assert gfs(["query", store, "--member", "0,0"]) == (0, "absent (certain), 0 stored sample(s) tested\n", "")
    for option, value in (("--range", "-1:1"), ("--member", "0,0,0")):  # the wrong shape, as on any other store
        rc, out, err = gfs(["query", store, option, value])
        assert (rc, out) == (2, "") and err.startswith("gfs: ChannelMismatch: ")


def test_compact_applies_the_stores_own_rules(gfs, tmp_path):
    store = tmp_path / "s.gfs"
    assert gfs(["ingest", str(store), "--budget", "8"], csv_rows(100))[0] == 0
    rec = container.load(store)
    rec.rules.max_scalars = rec.scalar_footprint() - 1
    container.save(rec, store)
    rc, out, err = gfs(["compact", str(store)])
    assert (rc, out, err) == (0, "compacted; slots 8/8\n", "")
    compact(rec)
    assert container.load(store) == rec
    assert any(op == "drop_statistic" for op, _, _ in rec.event_counts)


def test_compact_of_a_store_with_malformed_rules_exits_2_with_one_line(gfs, tmp_path):
    store = tmp_path / "s.gfs"
    assert gfs(["ingest", str(store), "--budget", "8"], csv_rows(100))[0] == 0
    rec = container.load(store)
    rec.rules.max_scalars = "x"
    container.save(rec, store)
    before = store.read_bytes()
    rc, out, err = gfs(["compact", str(store)])
    assert (rc, out) == (2, "") and err.count("\n") == 1
    assert err.startswith("gfs: CorruptContainer: malformed container (ValueError: malformed rules")
    assert store.read_bytes() == before


def test_compare_prints_the_verdict_of_the_two_aggregates(gfs, tmp_path):
    a, b = str(tmp_path / "a.gfs"), str(tmp_path / "b.gfs")
    assert gfs(["ingest", a, "--budget", "8"], csv_rows(100))[0] == 0
    assert gfs(["ingest", b, "--budget", "8"], csv_rows(40, seed=3))[0] == 0
    rc, out, err = gfs(["compare", a, b, "--tau", "0.5"])
    want = compare.subset_verdict(container.load(a).aggregate(), container.load(b).aggregate(), tau=0.5)
    lines = [f"verdict: {want.verdict}", f"D(A||B): {cli._fmt(want.d_ab)}", f"D(B||A): {cli._fmt(want.d_ba)}"]
    lines += [f"note: {want.note}"] if want.note else []
    assert (rc, out, err) == (0, "".join(f"{line}\n" for line in lines), "")


def test_compare_prints_inf_for_stores_that_share_no_value(gfs, tmp_path):
    a, b = str(tmp_path / "a.gfs"), str(tmp_path / "b.gfs")
    assert gfs(["ingest", a], "5.0\n" * 20)[0] == 0
    assert gfs(["ingest", b], "6.0\n" * 20)[0] == 0
    rc, out, err = gfs(["compare", a, b])
    assert (rc, err) == (0, "")
    assert "D(A||B): inf\n" in out and "D(B||A): inf\n" in out


def ask_server(proc, sock, requests) -> list[dict]:
    """Wait up to 10 s for ``sock`` to appear, then send ``requests`` one line each and read the replies."""
    deadline = time.monotonic() + 10
    while not sock.exists():
        assert proc.poll() is None, proc.stderr.read()
        assert time.monotonic() < deadline, "the server made no socket"
        time.sleep(0.02)
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(10)
        conn.connect(str(sock))
        with conn.makefile("rb") as replies:
            answers = []
            for req in requests:
                conn.sendall(json.dumps(req).encode() + b"\n")
                answers.append(json.loads(replies.readline()))
    return answers


def test_serve_answers_on_its_socket_and_saves_the_access_counters_on_sigint(gfs, tmp_path):
    store, other, sock = tmp_path / "s.gfs", tmp_path / "other.gfs", tmp_path / "gfs.sock"
    assert gfs(["ingest", str(store), "--budget", "16"], csv_rows(100))[0] == 0
    assert gfs(["ingest", str(other), "--budget", "8"], csv_rows(40, seed=3))[0] == 0
    rec = container.load(store)
    newest = rec.levels[0][-1].mean.tolist()
    requests = [
        {"op": "interval", "t0": 60, "t1": 100},
        {"op": "member", "value": newest},
        {"op": "compare", "store": "other.gfs"},
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    cmd = [sys.executable, "-m", "gfstore.cli", "serve", str(store), "--socket", str(sock)]
    with subprocess.Popen(cmd, env=env, cwd=tmp_path, stderr=subprocess.PIPE, text=True) as proc:
        try:
            answers = ask_server(proc, sock, requests)
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0, proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
    assert all(answer["ok"] for answer in answers), answers
    interval, member, verdict = (answer["result"] for answer in answers)
    assert [p["t_start"] for p in interval] == [p.sample.t_start for p in rec.query_interval(60, 100)]
    candidates = [c["sample"]["t_start"] for c in member["candidates"]]
    assert candidates == [s.t_start for s, _ in rec.membership(newest).candidates]
    assert verdict["verdict"] == compare.subset_verdict(rec.aggregate(), container.load(other).aggregate()).verdict
    touched = Counter([p["t_start"] for p in interval] + candidates)
    assert touched[rec.levels[0][-1].t_start] == 2  # the newest sample answered both queries
    saved = container.load(store)
    level_of = {s.t_start: k for k, level in enumerate(rec.levels) for s in level}
    returned = {"interval": [p["t_start"] for p in interval], "member": candidates}
    want = Counter(("access", level_of[start], op) for op, starts in returned.items() for start in starts)
    assert {key: n for key, n in saved.event_counts.items() if key[0] == "access"} == dict(want)
    assert saved.levels == rec.levels and list(saved.provenance) == list(rec.provenance)
    assert not sock.exists()
    shown = gfs(["inspect", str(store)])[1]
    assert all(f"  access level {k} ({op}): {n}\n" in shown for (_, k, op), n in want.items())


def test_budget_on_an_existing_store_forgets_what_the_loaded_record_kept(gfs, tmp_path, monkeypatch):
    store = tmp_path / "s.gfs"
    assert gfs(["ingest", str(store), "--budget", "16"], csv_rows(100))[0] == 0
    rec = container.load(store)
    queries = ([0.0, 0.0], [1.0, -1.0], [9.0, 9.0])

    def answers(r):
        return r.aggregate(), [r.membership(q) for q in queries]

    before = answers(rec)  # the record now keeps its stack and aggregate
    monkeypatch.setattr(container, "load", lambda path: rec)
    assert gfs(["ingest", str(store), "--budget", "4"], csv_rows(10, seed=1))[0] == 0
    assert (rec.slots(), rec.now) == (4, 110)
    after = answers(rec)
    assert after != before
    assert after == answers(container.read(container.write(rec))) == answers(container.read(store.read_bytes()))


def test_serve_saves_the_access_counters_and_removes_its_socket_on_sigterm(gfs, tmp_path):
    store = tmp_path / "s.gfs"
    assert gfs(["ingest", str(store), "--budget", "16"], csv_rows(100))[0] == 0
    short = Path(tempfile.mkdtemp(dir="/tmp"))  # an AF_UNIX path holds at most 107 bytes
    sock = short / "gfs.sock"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    cmd = [sys.executable, "-m", "gfstore.cli", "serve", str(store), "--socket", str(sock)]
    try:
        with subprocess.Popen(cmd, env=env, cwd=tmp_path, stderr=subprocess.PIPE, text=True) as proc:
            try:
                (answer,) = ask_server(proc, sock, [{"op": "interval", "t0": 60, "t1": 100}])
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=10) == 0, proc.stderr.read()
            finally:
                if proc.poll() is None:
                    proc.kill()
        assert answer["ok"] and answer["result"]
        access = {key: n for key, n in container.load(store).event_counts.items() if key[0] == "access"}
        assert sum(access.values()) == len(answer["result"]) and {op for _, _, op in access} == {"interval"}
        assert not sock.exists()
    finally:
        shutil.rmtree(short)
