"""Line-oriented query service over a local stream socket.

One JSON object per line in, one per line out: {"ok": true, "result": ...}
or {"ok": false, "error": "..."}, in strict JSON (:func:`encode`).
Serving queries through the store is what lets the store observe its
usage: every answered ``interval`` or ``member`` request counts the stored
samples it returned under ``("access", level, op)`` in the record's event
totals (:func:`curation.record_access`), and ``serve`` saves those tallies
on exit.  ``compare`` opens only stores inside the served store's directory:
its path, read like the store path given to ``serve`` (relative to the
working directory), is resolved with ``realpath`` and refused, unopened,
if it lands outside that directory.  A service keeps the aggregates of the
last ``OTHER_AGGREGATES`` other stores it read, keyed by the resolved path
and the device, inode, modification time and size of the opened file, so
repeated compares against an unchanged store read it once.
``container.save`` replaces a store with a new file, so a saved store is
read again.
"""

from __future__ import annotations

import json
import math
import os
import socketserver
import threading

from . import compare as cmp
from . import container, curation, stats
from .record import SummaryRecord

#: How many other stores' aggregates a service keeps; the oldest read goes first.
OTHER_AGGREGATES = 16


def _jsonable(x):
    """``x`` with each NaN or infinite float in it as the string "nan", "inf" or "-inf", which strict JSON holds."""
    if isinstance(x, dict):
        return {key: _jsonable(v) for key, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return repr(x) if isinstance(x, float) and not math.isfinite(x) else x


def encode(resp: dict) -> bytes:
    """One reply line of strict JSON, every float in it passed through :func:`_jsonable`."""
    try:
        text = json.dumps(resp, sort_keys=True, allow_nan=False)
    except ValueError:  # a NaN or infinite float, from a stored sample or a likelihood: only then is the reply walked
        text = json.dumps(_jsonable(resp), sort_keys=True)
    return text.encode("utf-8") + b"\n"


def _sample_dict(s, coarse: bool | None = None) -> dict:
    d = {
        "t_start": s.t_start,
        "t_end": s.t_end,
        "n": s.n,
        "mean": s.mean.tolist(),
        "variance": None if s.variance is None else s.variance.tolist(),
        "min": None if s.min_v is None else s.min_v.tolist(),
        "max": None if s.max_v is None else s.max_v.tolist(),
    }
    if coarse is not None:
        d["coarse"] = coarse
    return d


class QueryService:
    """Wraps one record; thread-safe via a single writer lock.

    ``store_dir`` is the directory of the served store, the only place
    ``compare`` reads other stores from; without it ``compare`` reads none.
    ``other_aggregates`` maps ``(realpath, st_dev, st_ino, st_mtime_ns,
    st_size)`` of another store's opened file to its aggregate.  It holds
    at most ``OTHER_AGGREGATES`` entries, in the order they were read, and
    only stores that loaded.  The served record's own aggregate and
    member stack are the record's: it reduces its stored samples once per
    change and answers every request until the next from what it keeps, so
    the service holds nothing of the served record besides the record.
    """

    def __init__(self, rec: SummaryRecord, store_dir: str | None = None):
        self.rec = rec
        self.lock = threading.Lock()
        self.store_dir = None if store_dir is None else os.path.realpath(store_dir)
        self.other_aggregates: dict[tuple, stats.SummarySample] = {}

    def handle_line(self, line: bytes | str) -> dict:
        try:
            req = json.loads(line)
            op = req.get("op")
            if op == "inspect":
                return self._inspect()
            if op == "interval":
                return self._interval(req["t0"], req["t1"])
            if op == "member":
                return self._member(req["value"])
            if op == "compare":
                return self._compare(req["store"])
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:  # malformed requests must not kill the service
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def _inspect(self) -> dict:
        with self.lock:
            return {"ok": True, "result": container.inspect_summary(self.rec)}

    def _interval(self, t0: int, t1: int) -> dict:
        if type(t0) is not int or type(t1) is not int:  # JSON integers only: not a float, a bool or a string
            raise TypeError(f"t0 and t1 must be integers, got {t0!r} and {t1!r}")
        with self.lock:
            parts = self.rec.query_interval(t0, t1)
            curation.record_access(self.rec, [p.sample for p in parts], "interval")
            return {
                "ok": True,
                "result": [_sample_dict(p.sample, p.coarse) for p in parts],
            }

    def _member(self, value) -> dict:
        with self.lock:
            res = self.rec.membership(value)
            curation.record_access(self.rec, [s for s, _ in res.candidates], "member")
            return {
                "ok": True,
                "result": {
                    "absent_certain": res.absent_certain,
                    "nodes_visited": res.nodes_visited,
                    "candidates": [
                        {"sample": _sample_dict(s), "likelihood": like}
                        for s, like in res.candidates
                    ],
                    "note": res.note,
                },
            }

    def _compare(self, other_path: str) -> dict:
        root = self.store_dir
        path = os.path.realpath(other_path)
        if root is None or os.path.commonpath([root, path]) != root:
            raise PermissionError("compare reads only stores in the served store's directory")
        other = self._other_aggregate(path)
        with self.lock:
            verdict = cmp.subset_verdict(self.rec.aggregate(), other)
        return {
            "ok": True,
            "result": {
                "verdict": verdict.verdict,
                "d_ab": _jsonable(verdict.d_ab),
                "d_ba": _jsonable(verdict.d_ba),
                "note": verdict.note,
            },
        }

    def _other_aggregate(self, path: str) -> stats.SummarySample:
        """The aggregate of the store at ``path``, read only when its file is not in the cache.

        The key is taken from the open descriptor, so it belongs to the bytes read.
        """
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            key = (path, st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)
            with self.lock:
                agg = self.other_aggregates.get(key)
            if agg is None:
                agg = container.read(fh.read()).aggregate()
                with self.lock:
                    cache = self.other_aggregates
                    cache[key] = agg
                    while len(cache) > OTHER_AGGREGATES:
                        del cache[next(iter(cache))]
        return agg


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            resp = self.server.service.handle_line(line)
            self.wfile.write(encode(resp))
            self.wfile.flush()


class SocketServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True


def make_server(rec: SummaryRecord, socket_path: str, store_dir: str | None = None) -> SocketServer:
    if os.path.exists(socket_path):
        os.unlink(socket_path)
    server = SocketServer(socket_path, _Handler)
    server.service = QueryService(rec, store_dir)
    return server


def serve(store_path: str, socket_path: str) -> None:
    """Load a store and answer queries until interrupted; saves it, with its access tallies, on exit."""
    rec = container.load(store_path)
    server = make_server(rec, socket_path, os.path.dirname(os.path.realpath(store_path)))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        container.save(rec, store_path)  # persist the access tallies
        if os.path.exists(socket_path):
            os.unlink(socket_path)
