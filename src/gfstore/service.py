"""Line-oriented query service over a local stream socket.

One JSON object per line in, one per line out: {"ok": true, "result": ...}
or {"ok": false, "error": "..."}, in sorted-key strict JSON (:func:`encode`).
Most of an ``interval`` or ``member`` reply is its stored samples, so a
service keeps each stored sample's text, encoded once while the record's
table of stored samples (:meth:`SummaryRecord.stack`) stays the same, and
writes those replies by joining the kept texts: at most one text per
stored sample, the same bytes that encoding the reply whole would give.
Serving queries through the store is what lets the store observe its
usage: every answered ``interval`` or ``member`` request counts the stored
samples it returned under ``("access", level, op)`` in the record's event
totals (:func:`curation.record_access`), and ``serve`` adds the session's
tallies to the store on exit.  ``compare`` opens only stores inside the
served store's directory: its path, read like the store path given to
``serve`` (relative to the working directory), is resolved with
``realpath`` and refused, unopened, if it lands outside that directory.
A service keeps the aggregates of the last ``OTHER_AGGREGATES`` other
stores it read, keyed by the resolved path and the device, inode,
modification time and size of the opened file, so repeated compares
against an unchanged store read it once.
``container.save`` replaces a store with a new file, so a saved store is
read again.
"""

from __future__ import annotations

import json
import math
import os
import signal
import socketserver
import threading

from . import compare as cmp
from . import container, curation, stats
from .record import SummaryRecord

#: How many other stores' aggregates a service keeps; the oldest read goes first.
OTHER_AGGREGATES = 16

#: The opening of an ``interval`` part, by its ``coarse`` flag, before the rest of its sample's text.
_COARSE = {True: '{"coarse": true, ', False: '{"coarse": false, '}


def _jsonable(x):
    """``x`` with each NaN or infinite float in it as the string "nan", "inf" or "-inf", which strict JSON holds."""
    if isinstance(x, dict):
        return {key: _jsonable(v) for key, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return repr(x) if isinstance(x, float) and not math.isfinite(x) else x


def _dumps(obj) -> str:
    """Sorted-key strict JSON of ``obj``, every float in it passed through :func:`_jsonable`."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError:  # a NaN or infinite float, from a stored sample or a likelihood: only then is ``obj`` walked
        return json.dumps(_jsonable(obj), sort_keys=True)


class Reply(dict):
    """An ``interval`` or ``member`` reply with its line, joined from the kept texts when the reply was made.

    The line is fixed when the reply is made: editing the dict changes neither the line :func:`encode` writes
    for it nor a later reply.
    """

    __slots__ = ("line",)


def encode(resp: dict) -> bytes:
    """One reply line of sorted-key strict JSON: the line of a :class:`Reply`, else :func:`_dumps` of ``resp``."""
    if type(resp) is Reply:
        return resp.line
    return _dumps(resp).encode("utf-8") + b"\n"


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


def _reply(result, line: str) -> Reply:
    reply = Reply(ok=True, result=result)
    reply.line = line.encode("utf-8")
    return reply


class QueryService:
    """Wraps one record; thread-safe via a single writer lock.

    ``store_dir`` is the directory of the served store, the only place
    ``compare`` reads other stores from; without it ``compare`` reads none.
    ``other_aggregates`` maps ``(realpath, st_dev, st_ino, st_mtime_ns,
    st_size)`` of another store's opened file to its aggregate.  It holds
    at most ``OTHER_AGGREGATES`` entries, in the order they were read, and
    only stores that loaded.  The served record's own table of stored
    samples and aggregate are the record's: it builds them once per change
    and answers every request until the next from what it keeps.
    ``texts`` maps the ``id`` of a stored sample of that table,
    ``texts_stack``, to :func:`_dumps` of its :func:`_sample_dict`, made
    the first time a reply returns the sample.  A request that finds the
    record's table replaced starts an empty map, so the service keeps at
    most one text per stored sample, and none of samples the record no
    longer keeps.
    """

    def __init__(self, rec: SummaryRecord, store_dir: str | None = None):
        self.rec = rec
        self.lock = threading.Lock()
        self.store_dir = None if store_dir is None else os.path.realpath(store_dir)
        self.other_aggregates: dict[tuple, stats.SummarySample] = {}
        self.texts_stack: stats.Stack | None = None
        self.texts: dict[int, str] = {}

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
            samples = [p.sample for p in parts]
            curation.record_access(self.rec, samples, "interval")
            result = [_sample_dict(p.sample, p.coarse) for p in parts]
            texts = self._texts(samples)
        # "coarse" sorts before every key of a sample, so it opens each part's text
        lines = [_COARSE[p.coarse] + text[1:] for p, text in zip(parts, texts)]
        return _reply(result, '{"ok": true, "result": [' + ", ".join(lines) + "]}\n")

    def _member(self, value) -> dict:
        with self.lock:
            res = self.rec.membership(value)
            samples = [s for s, _ in res.candidates]
            curation.record_access(self.rec, samples, "member")
            result = {
                "absent_certain": res.absent_certain,
                "nodes_visited": res.nodes_visited,
                "candidates": [{"sample": _sample_dict(s), "likelihood": like} for s, like in res.candidates],
                "note": res.note,
            }
            texts = self._texts(samples)
        candidates = ", ".join(
            f'{{"likelihood": {_dumps(like)}, "sample": {text}}}' for (_, like), text in zip(res.candidates, texts)
        )
        line = (
            f'{{"ok": true, "result": {{"absent_certain": {_dumps(res.absent_certain)}, "candidates": [{candidates}], '
            f'"nodes_visited": {_dumps(res.nodes_visited)}, "note": {_dumps(res.note)}}}}}\n'
        )
        return _reply(result, line)

    def _texts(self, samples) -> list[str]:
        """The kept text of each of ``samples``, stored samples of the record's table; call with the lock held."""
        st = self.rec.stack()
        if st is not self.texts_stack:
            self.texts_stack, self.texts = st, {}
        texts = self.texts
        out = []
        for s in samples:
            text = texts.get(id(s))
            if text is None:
                text = texts[id(s)] = _dumps(_sample_dict(s))
            out.append(text)
        return out

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
    """Load a store and answer queries until SIGINT or SIGTERM; on exit, add the session's access tallies to the store.

    While it serves, SIGTERM raises KeyboardInterrupt as SIGINT does, so it
    must run in the main thread; the previous SIGTERM handler is restored on
    exit.  A session's tally is the increase of each ``("access", level,
    op)`` count since the load.  On exit the store is loaded again as it is
    then, so rows that ``gfs ingest`` appended meanwhile stay; if that load
    fails, its error surfaces, and a deleted store is not made again.
    gfstore takes no file lock, so a write between that load and the save
    is lost.
    """
    rec = container.load(store_path)
    loaded = dict(rec.event_counts)
    server = make_server(rec, socket_path, os.path.dirname(os.path.realpath(store_path)))
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        with server.service.lock:  # handler threads may still be answering
            served = [(key, n - loaded.get(key, 0)) for key, n in rec.event_counts.items() if key[0] == "access"]
        current = container.load(store_path)
        counts = current.event_counts
        for key, n in served:
            if n:
                counts[key] = counts.get(key, 0) + n
        container.save(current, store_path)
