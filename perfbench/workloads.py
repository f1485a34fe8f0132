"""The benchmark's workloads: inputs, timed loops and correctness gates.

Every workload drives gfstore only through its public surface:
``SummaryRecord`` and ``container`` in-process, ``gfs serve`` over its Unix
socket, and ``gfstore.cli.main`` in-process with CSV on stdin.

A workload's end-to-end metrics use the same names everywhere, so that each
workload reports every metric:

* ``ops_per_s``: rows ingested per second (ingest-*, cli-append) or requests
  completed per second of round-trip time in the closed loop (serve-*);
* ``op_p50_ms`` / ``op_tail_ms``: latency of one operation, that is one
  ``ingest_block`` call, one request round trip or one ``gfs ingest`` append;
  the tail percentile is fixed per workload (``Spec.tail``);
* ``save_ms`` / ``load_ms`` / ``store_bytes_per_slot``: the container of the
  workload's final (or served) record;
* ``mem_peak_mb``: peak RSS of the process running gfstore;
* ``setup_s``: set-up before the first timed operation.

Every duration is in reference-CPU seconds (see ``measure.SteadyClock``).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import measure
import records
import tracing
from gfstore import cli, compare, container, stats

HERE = Path(__file__).resolve().parent

# Mean, variance and covariance of a merge chain must match summarize() of
# the raw rows within this relative tolerance (float64 chains of a few
# thousand merges stay near 1e-13); counts, extrema, histograms and hulls
# must match exactly.
MOMENT_RTOL = 2.0**-30

# setup_s is the median of several set-ups, half timed before the timed loop
# and half after it, so that one slow stretch of the host does not set it.
SETUP_REPS = 10  # fresh interpreters per run (ingest-*, cli-append)
SERVER_LAUNCHES = 8  # server launches per run (serve-*)
SERVED_SAVE_LOADS = 9  # save/load timings of the served store per run (serve-*)
START_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 60.0

# Stream sizes are fixed so per-layer counts repeat for a given seed.
PLAIN_ROWS, PLAIN_BLOCK = 20_000, 500
RICH_ROWS, RICH_BLOCK = 4_000, 100
SERVE_ROWS = 30_000  # one `gfs ingest` with defaults: d = 1, budget 256
OTHER_STORES, OTHER_ROWS = 4, 2_000  # compare targets
APPENDS, APPEND_ROWS = 100, 100


@dataclass(frozen=True)
class Spec:
    kind: str  # "ingest", "serve" or "append"
    tail: int  # tail percentile of op latency, tenths of a percent
    # Calibrate the clock right before and after each request.  Worth it for
    # requests of milliseconds; for sub-millisecond ones the calibration
    # work would evict the server's caches between requests.
    bracket: bool
    aliases: tuple[str, str, str]  # names of ops_per_s, op_p50_ms, op_tail_ms here

    @property
    def min_ops(self) -> int:
        """Operations per run, so that the tail has ten samples beyond it."""
        return measure.samples_needed(self.tail)


SPECS = {
    "ingest-plain": Spec("ingest", 900, True, ("ingest_rows_per_s", "block_p50_ms", "block_p90_ms")),
    "ingest-rich": Spec("ingest", 900, True, ("ingest_rows_per_s", "block_p50_ms", "block_p90_ms")),
    "serve-interval": Spec("serve", 990, False, ("queries_per_s", "interval_p50_ms", "interval_p99_ms")),
    "serve-member": Spec("serve", 900, True, ("queries_per_s", "member_p50_ms", "member_p90_ms")),
    "serve-compare": Spec("serve", 900, True, ("queries_per_s", "compare_p50_ms", "compare_p90_ms")),
    "cli-append": Spec("append", 900, True, ("ingest_rows_per_s", "append_p50_ms", "append_p90_ms")),
}


class BenchError(RuntimeError):
    """The run could not be carried out (set-up failed, server hung)."""


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    spec = SPECS[workload]
    runner = {"ingest": run_ingest, "serve": run_serve, "append": run_append}[spec.kind]
    clock = measure.SteadyClock()
    out = runner(workload, spec, seed, seconds, trace, workdir, clock)
    f = clock.factors
    out.notes.append(
        f"host speed factor (reference-CPU seconds per second): median {statistics.median(f):.3f}, "
        f"range {min(f):.3f} to {max(f):.3f} over {len(f)} calibrations"
    )
    return out


# -- shared pieces ---------------------------------------------------------


def setup_seconds(workload: str, clock, reps: int) -> list[float]:
    """Import of gfstore + record construction in ``reps`` fresh interpreters.

    Each probe reports its own wall seconds, scaled by the calibrations the
    clock takes right before and after the probe's process.
    """
    times = []
    for _ in range(reps):
        proc, _ = clock.timed(
            lambda: subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload],
                capture_output=True,
                text=True,
                timeout=START_TIMEOUT_S,
                env=_child_env(),
            )
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(clock.scaled(float(proc.stdout)))
    return times


def _child_env() -> dict:
    """The caller's environment without GFS_BUDGET, so every store gets the CLI's default budget."""
    env = {k: v for k, v in os.environ.items() if k != "GFS_BUDGET"}
    return {**env, "PYTHONPATH": str(HERE.parent / "src")}


def own_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(out: Outcome, spec: Spec, latencies: list[float]) -> None:
    out.metrics["op_p50_ms"] = statistics.median(latencies) * 1e3
    out.metrics["op_tail_ms"] = measure.percentile(latencies, spec.tail) * 1e3
    out.notes.append(f"{len(latencies)} operations timed; op_tail_ms is their {measure.label(spec.tail)}")


def timed_save_load(clock, rec, path: Path, reps: int) -> tuple[float, float, object]:
    """Median container.save and container.load seconds; returns the last loaded record.

    Each call starts from a collected heap, so whether a full garbage
    collection lands inside it does not depend on what ran before.
    """
    saves, loads = [], []
    loaded = None
    for _ in range(reps):
        gc.collect()
        _, seconds = clock.timed(lambda: container.save(rec, path))
        saves.append(seconds)
        loaded = None
        gc.collect()
        loaded, seconds = clock.timed(lambda: container.load(path))
        loads.append(seconds)
    return statistics.median(saves), statistics.median(loads), loaded


def gate_aggregate(out: Outcome, rec, raw: np.ndarray, opts, exact_extras: bool) -> None:
    """aggregate() must equal summarize() of every row ingested."""
    agg, ref = rec.aggregate(), stats.summarize(raw, opts=opts)
    out.check(agg.n == ref.n, f"aggregate count {agg.n} != {ref.n}")
    out.check(np.array_equal(agg.min_v, ref.min_v), "aggregate min differs from summarize")
    out.check(np.array_equal(agg.max_v, ref.max_v), "aggregate max differs from summarize")
    for name in ("mean", "variance", "covariance"):
        a, r = getattr(agg, name), getattr(ref, name)
        if r is None:
            continue
        ok = a is not None and np.allclose(a, r, rtol=MOMENT_RTOL, atol=MOMENT_RTOL)
        out.check(ok, f"aggregate {name} differs from summarize beyond {MOMENT_RTOL:.1e}")
    if exact_extras:
        out.check(agg.histogram == ref.histogram, "aggregate histogram differs from summarize")
        same_hull = agg.hull is not None and set(map(tuple, agg.hull)) == set(map(tuple, ref.hull))
        out.check(same_hull, "aggregate hull differs from summarize")


def swv_depth_max(rec) -> int:
    return max((s.swv.shape[0] for s in rec.samples_in_time_order() if s.swv is not None), default=0)


def open_items(rec) -> list[str]:
    notes = [
        f"open item: the provenance log holds {len(rec.provenance)} events after "
        f"{rec.now} rows (one per merge); it is unbounded"
    ]
    depth = swv_depth_max(rec)
    if depth:
        notes.append(
            f"open item: the deepest stored SWV stack has {depth} terms after {rec.now} rows; "
            "with tuned rules it grows with the stream"
        )
    return notes


# -- ingest-plain, ingest-rich ---------------------------------------------


def run_ingest(workload, spec, seed, seconds, trace, workdir, clock) -> Outcome:
    out = Outcome()
    rows, block = (PLAIN_ROWS, PLAIN_BLOCK) if workload == "ingest-plain" else (RICH_ROWS, RICH_BLOCK)
    channels = records.new_record(workload).channels
    data = gen.regime_stream(gen.rng_for(seed, 0), rows, channels)
    path = workdir / "store.gfs"

    def one_pass(latencies: list[float]):
        """Ingest the stream into a new record, then save and load it once."""
        gc.collect()  # every pass starts from the same heap state
        rec = records.new_record(workload)
        busy = 0.0
        for i in range(0, rows, block):
            out.attempted += 1
            try:
                _, dt = clock.timed(lambda: rec.ingest_block(data[i : i + block]))
            except Exception as exc:  # a failed ingest call counts, and fails the gate
                out.failed += 1
                latencies.append(math.inf)
                out.check(False, f"ingest_block raised {type(exc).__name__}: {exc}")
                continue
            latencies.append(dt)
            busy += dt
        save_s, load_s, loaded = timed_save_load(clock, rec, path, 1)
        return rec, loaded, busy, save_s, load_s

    def gate(rec, loaded) -> None:
        gate_ingest(out, rec, loaded, data, workload == "ingest-rich")

    if trace:
        gate(*one_pass([])[:2])  # warm-up, so the untraced pass below is steady
        rec, loaded, plain_s, *_ = one_pass([])
        gate(rec, loaded)
        with tracing.Tracer() as tr:
            tracing.install(tr)
            rec, loaded, traced_s, *_ = one_pass([])
        gate(rec, loaded)
        out.metrics.update(tracing.layer_metrics(tr))
        out.metrics["record.merges"] = rec.merge_count
        out.metrics["stats.swv_depth_max"] = swv_depth_max(rec)
        out.metrics["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
        out.notes += open_items(rec)
        return out

    setups = setup_seconds(workload, clock, SETUP_REPS // 2)
    latencies: list[float] = []
    rates, saves, loads = [], [], []
    start = time.perf_counter()
    while len(latencies) < spec.min_ops or time.perf_counter() - start < seconds:
        rec, loaded, busy, save_s, load_s = one_pass(latencies)
        gate(rec, loaded)
        rates.append(rows / busy)
        saves.append(save_s)
        loads.append(load_s)
        slots, notes = rec.slots(), open_items(rec)
        del rec, loaded  # so the next pass's peak holds only its own record and loaded copy
    out.metrics["mem_peak_mb"] = own_peak_mb()
    out.metrics["setup_s"] = statistics.median(setups + setup_seconds(workload, clock, SETUP_REPS // 2))
    out.metrics["ops_per_s"] = statistics.median(rates)
    latency_metrics(out, spec, latencies)
    out.metrics["save_ms"] = statistics.median(saves) * 1e3
    out.metrics["load_ms"] = statistics.median(loads) * 1e3
    out.metrics["store_bytes_per_slot"] = path.stat().st_size / slots
    out.notes += notes
    return out


def gate_ingest(out: Outcome, rec, loaded, raw: np.ndarray, rich: bool) -> None:
    try:
        rec.validate()
    except Exception as exc:  # noqa: BLE001 - any failure here fails the gate
        out.check(False, f"validate() raised {type(exc).__name__}: {exc}")
    out.check(rec.slots() <= rec.budget, f"{rec.slots()} slots exceed budget {rec.budget}")
    out.check(rec.now == len(raw), f"record holds {rec.now} rows, {len(raw)} were ingested")
    gate_aggregate(out, rec, raw, rec.opts, exact_extras=rich)
    out.check(loaded == rec, "container.read(container.write(rec)) != rec")


# -- serve-interval, serve-member, serve-compare ---------------------------


class Server:
    """One `gfs serve` process started through perfbench/serve_main.py."""

    def __init__(self, store: Path, sock: Path, log: Path, trace_out: Path | None = None):
        self.store, self.sock, self.log, self.trace_out = store, sock, log, trace_out
        self.proc: subprocess.Popen | None = None
        self.conn: socket.socket | None = None
        self.rfile = None
        self.peak_mb = 0.0

    def start(self) -> float:
        """Launch and wait for the first reply; returns the wall seconds that took."""
        if self.sock.exists():
            self.sock.unlink()
        cmd = [sys.executable, str(HERE / "serve_main.py"), str(self.store), str(self.sock)]
        if self.trace_out is not None:
            cmd += ["--trace-out", str(self.trace_out)]
        t0 = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT, env=_child_env()
            )
        deadline = t0 + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited during start-up: {self._log_tail()}")
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            conn.settimeout(IO_TIMEOUT_S)
            try:
                conn.connect(str(self.sock))
                break
            except (FileNotFoundError, ConnectionRefusedError):
                conn.close()
                if time.perf_counter() > deadline:
                    raise BenchError("server did not accept a connection in time") from None
                time.sleep(0.002)
        self.conn, self.rfile = conn, conn.makefile("rb")
        reply = json.loads(self.roundtrip(b'{"op": "inspect"}\n'))
        if reply.get("ok") is not True:
            raise BenchError(f"first request failed: {reply}")
        return time.perf_counter() - t0

    def roundtrip(self, line: bytes) -> bytes:
        self.conn.sendall(line)
        reply = self.rfile.readline()
        if not reply:
            raise BenchError(f"server closed the connection: {self._log_tail()}")
        return reply

    def stop(self) -> None:
        """SIGINT (the server saves its store), reap with a timeout, drop the socket."""
        if self.conn is not None:
            self.rfile.close()
            self.conn.close()
            self.conn = None
        if self.proc is not None and self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            deadline = time.perf_counter() + STOP_TIMEOUT_S
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.peak_mb = usage.ru_maxrss / 1024.0
                    break
                if time.perf_counter() > deadline:
                    self.proc.kill()
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                    raise BenchError("server did not stop after SIGINT")
                time.sleep(0.005)
            if self.proc.returncode != 0:
                raise BenchError(f"server exited with {self.proc.returncode}: {self._log_tail()}")
        if self.sock.exists():
            self.sock.unlink()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None:
            self.stop()
            return
        with contextlib.suppress(Exception):  # already failing: just make sure it is gone
            self.stop()
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT_S)

    def _log_tail(self) -> str:
        try:
            return self.log.read_text(errors="replace")[-800:]
        except OSError:
            return "(no server log)"


def cli_call(args: list[str], stdin_text: str) -> tuple[int, str]:
    """gfstore.cli.main in-process with ``stdin_text`` on stdin; returns (exit code, stderr)."""
    err = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(args)
    except Exception as exc:  # an escaping exception is a failed call, not a crash of the run
        return -1, f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = old_stdin
    return rc, err.getvalue()


def _jsonable(x: float):
    return "inf" if isinstance(x, float) and math.isinf(x) else x


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def _check_interval(out: Outcome, req: dict, result) -> None:
    t0, t1 = req["t0"], req["t1"]
    ok = bool(result) and result[0]["t_start"] <= t0 < result[0]["t_end"] and result[-1]["t_end"] >= t1
    ok = ok and all(a["t_end"] == b["t_start"] for a, b in zip(result, result[1:]))
    out.check(ok, f"interval reply does not tile [{t0}, {t1})")


def _check_member(out: Outcome, present: bool, result) -> None:
    if present:
        out.check(not result["absent_certain"], "an ingested value was reported certainly absent")


def _check_compare(out: Outcome, expected: dict, req: dict, result) -> None:
    want = expected[req["store"]]
    ok = result["verdict"] == want.verdict and _same(result["d_ab"], _jsonable(want.d_ab))
    ok = ok and _same(result["d_ba"], _jsonable(want.d_ba))
    out.check(ok, f"compare verdict for {req['store']} differs from compare.subset_verdict")


def run_serve(workload, spec, seed, seconds, trace, workdir, clock) -> Outcome:
    out = Outcome()
    data = gen.regime_stream(gen.rng_for(seed, 0), SERVE_ROWS, 1)
    built = workdir / "built.gfs"
    rc, err = cli_call(["ingest", str(built)], gen.csv_text(data))
    if rc != 0:
        raise BenchError(f"building the served store failed: {err}")
    rec = container.load(built)

    expected = {}
    others = []
    if workload == "serve-compare":
        for k in range(OTHER_STORES):
            path = workdir / f"other{k}.gfs"
            other = gen.regime_stream(gen.rng_for(seed, 10 + k), OTHER_ROWS, 1)
            rc, err = cli_call(["ingest", str(path)], gen.csv_text(other))
            if rc != 0:
                raise BenchError(f"building compare store {k} failed: {err}")
            expected[str(path)] = compare.subset_verdict(rec.aggregate(), container.load(path).aggregate())
            others.append(str(path))

    def requests():
        rng = gen.rng_for(seed, 1)
        if workload == "serve-interval":
            for req in gen.interval_requests(rng, rec.now):
                yield req, lambda result, req=req: _check_interval(out, req, result)
        elif workload == "serve-member":
            for req, present in gen.member_requests(rng, data):
                yield req, lambda result, p=present: _check_member(out, p, result)
        else:
            for req in gen.compare_requests(rng, others):
                yield req, lambda result, req=req: _check_compare(out, expected, req, result)

    served = workdir / "served.gfs"
    sock = workdir / "gfs.sock"
    log = workdir / "server.log"

    def launch(trace_out=None) -> Server:
        shutil.copyfile(built, served)  # serve saves access counters on exit: start fresh each time
        return Server(served, sock, log, trace_out)

    def loop(server: Server, latencies: list[float], until, walls: list[float] | None = None) -> float:
        """Closed loop: one request, wait for its reply, check it, repeat.

        Appends each round trip to ``latencies`` (reference-CPU seconds) and
        to ``walls`` (wall seconds); returns the summed round trips in
        reference-CPU seconds.
        """
        stream = requests()
        start = time.perf_counter()
        busy = 0.0
        while until(len(latencies), time.perf_counter() - start):
            req, check = next(stream)
            line = (json.dumps(req) + "\n").encode("utf-8")
            out.attempted += 1
            if spec.bracket:
                raw, dt = clock.timed(lambda: server.roundtrip(line))
            else:
                clock.tick()
                t0 = time.perf_counter()
                raw = server.roundtrip(line)
                dt = clock.scaled(time.perf_counter() - t0)
            reply = json.loads(raw)
            if reply.get("ok") is True:
                latencies.append(dt)
                check(reply["result"])
            else:
                out.failed += 1
                latencies.append(math.inf)
                out.check(False, f"{req['op']} request failed: {reply.get('error')}")
            if walls is not None:
                walls.append(dt / clock.scale)
            busy += dt
        return busy

    def exactly(n):
        return lambda done, _elapsed: done < n

    if trace:
        with launch() as server:
            server.start()
            loop(server, [], exactly(spec.min_ops // 10))  # warm-up
            plain_s = loop(server, [], exactly(spec.min_ops))
        trace_out = workdir / "trace.json"
        walls: list[float] = []
        with launch(trace_out) as server:
            server.start()
            traced_s = loop(server, [], exactly(spec.min_ops), walls)
        dump = json.loads(trace_out.read_text())
        out.metrics.update(dump["layers"])
        handled = [d for name, d in dump["handle_line"] if not name.endswith(".inspect")]
        if len(handled) != len(walls):
            raise BenchError(f"{len(handled)} traced requests for {len(walls)} sent")
        out.metrics["service.transport_ms"] = statistics.median(
            [rtt - h for rtt, h in zip(walls, handled)]
        ) * 1e3
        out.metrics["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
        out.metrics["record.merges"] = container.load(served).merge_count - rec.merge_count
        out.metrics["stats.swv_depth_max"] = swv_depth_max(rec)
        out.notes += open_items(rec)
        return out

    save_s, load_s, _ = timed_save_load(clock, rec, workdir / "resaved.gfs", SERVED_SAVE_LOADS)
    out.metrics["save_ms"] = save_s * 1e3
    out.metrics["load_ms"] = load_s * 1e3
    out.metrics["store_bytes_per_slot"] = built.stat().st_size / rec.slots()

    starts: list[float] = []

    def launches(n: int) -> None:
        for _ in range(n):
            with launch() as server:
                starts.append(clock.timed(server.start)[1])

    launches(SERVER_LAUNCHES // 2 - 1)
    latencies: list[float] = []
    with launch() as server:
        starts.append(clock.timed(server.start)[1])
        elapsed = loop(server, latencies, lambda done, el: done < spec.min_ops or el < seconds)
    out.metrics["mem_peak_mb"] = server.peak_mb
    launches(SERVER_LAUNCHES - SERVER_LAUNCHES // 2)
    out.metrics["setup_s"] = statistics.median(starts)
    out.metrics["ops_per_s"] = (len(latencies) - out.failed) / elapsed
    latency_metrics(out, spec, latencies)
    out.notes += open_items(rec)
    return out


# -- cli-append -------------------------------------------------------------


def run_append(workload, spec, seed, seconds, trace, workdir, clock) -> Outcome:
    out = Outcome()
    rows = APPENDS * APPEND_ROWS
    data = gen.regime_stream(gen.rng_for(seed, 0), rows, 1)
    chunks = [gen.csv_text(data[i : i + APPEND_ROWS]) for i in range(0, rows, APPEND_ROWS)]
    path = workdir / "append.gfs"

    def one_pass(latencies: list[float]) -> float:
        """Grow a fresh store by every chunk; returns the seconds spent in appends."""
        if path.exists():
            path.unlink()
        gc.collect()  # every pass starts from the same heap state
        busy = 0.0
        for chunk in chunks:
            out.attempted += 1
            (rc, err), dt = clock.timed(lambda: cli_call(["ingest", str(path)], chunk))
            if rc == 0:
                latencies.append(dt)
            else:
                out.failed += 1
                latencies.append(math.inf)
                out.check(False, f"gfs ingest exited {rc}: {err.strip()}")
            busy += dt
        return busy

    def gate(rec) -> None:
        out.check(rec.now == rows, f"store holds {rec.now} rows, {rows} were sent")
        gate_aggregate(out, rec, data, rec.opts, exact_extras=False)

    if trace:
        one_pass([])  # warm-up, so the untraced pass below is steady
        plain_s = one_pass([])
        gate(container.load(path))
        with tracing.Tracer() as tr:
            tracing.install(tr)
            traced_s = one_pass([])
        rec = container.load(path)
        gate(rec)
        out.metrics.update(tracing.layer_metrics(tr))
        out.metrics["record.merges"] = rec.merge_count
        out.metrics["stats.swv_depth_max"] = swv_depth_max(rec)
        out.metrics["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
        out.notes += open_items(rec)
        return out

    setups = setup_seconds(workload, clock, SETUP_REPS // 2)
    latencies: list[float] = []
    rates, saves, loads = [], [], []
    start = time.perf_counter()
    while len(latencies) < spec.min_ops or time.perf_counter() - start < seconds:
        rates.append(rows / one_pass(latencies))
        rec = container.load(path)
        gate(rec)
        save_s, load_s, loaded = timed_save_load(clock, rec, workdir / "resaved.gfs", 3)
        saves.append(save_s)
        loads.append(load_s)
        slots, notes = rec.slots(), open_items(rec)
        del rec, loaded  # so the next pass's appends run without the last pass's records
    out.metrics["mem_peak_mb"] = own_peak_mb()
    out.metrics["setup_s"] = statistics.median(setups + setup_seconds(workload, clock, SETUP_REPS // 2))
    out.metrics["ops_per_s"] = statistics.median(rates)
    latency_metrics(out, spec, latencies)
    out.metrics["save_ms"] = statistics.median(saves) * 1e3
    out.metrics["load_ms"] = statistics.median(loads) * 1e3
    out.metrics["store_bytes_per_slot"] = path.stat().st_size / slots
    out.notes += notes
    return out
