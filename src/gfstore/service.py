"""Line-oriented query service over a local stream socket.

One JSON object per line in, one per line out: {"ok": true, "result": ...}
or {"ok": false, "error": "..."}, in sorted-key strict JSON (:func:`encode`).
An ``interval`` or ``member`` reply is answered from the rows of the
record's table of stored samples (:meth:`SummaryRecord.stack`).  While that
table stays the same, a service keeps what depends on it alone: each row's
level, its end, the masks of the rows that lack a variance, a minimum or a
maximum, and each row's text, encoded the first time a reply returns the
row; the record keeps the table's likelihood parts beside it.  A reply's
line is joined from the kept texts, the likelihoods written in one pass:
the same bytes that encoding the reply whole would give.  Its dict
(:class:`Reply`) is made only when a caller reads it, from the kept table,
so the socket, which sends the line alone, never makes it.
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
from collections.abc import Mapping

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


class Reply(Mapping):
    """An ``interval`` or ``member`` reply: its line, joined from the kept texts when the reply was made, and its
    dict, made by ``make`` on the first read and compared equal to, key by key.

    Both are fixed when the reply is made: ``make`` reads the table's read-only columns, what the service keeps of
    the table (:class:`_Table`) and the reply's rows, never the stored samples, which a later ``drop_statistic``
    edits in place.  Each reply makes
    its own lists, so editing one reply's dict changes neither the line :func:`encode` writes for it nor a later
    reply.
    """

    __slots__ = ("line", "_make", "_dict")

    def __init__(self, line: str, make):
        self.line = line.encode("utf-8")
        self._make, self._dict = make, None

    def _read(self) -> dict:
        d = self._dict
        if d is None:  # two threads may both make it; either dict is the reply
            d = self._dict = self._make()
        return d

    def __getitem__(self, key):
        return self._read()[key]

    def __iter__(self):
        return iter(self._read())

    def __len__(self) -> int:
        return len(self._read())

    def __repr__(self) -> str:
        return f"Reply({self._read()!r})"


def encode(resp: Mapping) -> bytes:
    """One reply line of sorted-key strict JSON: the line of a :class:`Reply`, else :func:`_dumps` of ``resp``."""
    if type(resp) is Reply:
        return resp.line
    return _dumps(resp).encode("utf-8") + b"\n"


class _Table:
    """What a service keeps of one table of the record, ``stack``: each row's level (:func:`curation.row_levels`),
    start, end and count, the masks of the rows that lack a variance, a minimum or a maximum, and each row's text,
    :func:`_dumps` of :meth:`sample`, made the first time a reply returns the row (None until then)."""

    __slots__ = ("stack", "level", "t_start", "t_end", "n", "lacks", "texts")

    def __init__(self, rec: SummaryRecord):
        st = self.stack = rec.stack()
        self.level = curation.row_levels(rec)
        self.t_start, self.n = st.t_start.tolist(), st.n.tolist()
        self.t_end = [s.t_end for s in st.samples]
        self.lacks = [st.lacks(name).tolist() for name in ("variance", "min_v", "max_v")]
        self.texts: list[str | None] = [None] * len(st.samples)

    def sample(self, row: int, coarse: bool | None = None) -> dict:
        """The reply dict of the stored sample at ``row``, with ``coarse`` when given; its lists are new."""
        st = self.stack
        no_variance, no_min, no_max = self.lacks
        d = {
            "t_start": self.t_start[row],
            "t_end": self.t_end[row],
            "n": self.n[row],
            "mean": st.mean[row].tolist(),
            "variance": None if no_variance[row] else st.variance[row].tolist(),
            "min": None if no_min[row] else st.min_v[row].tolist(),
            "max": None if no_max[row] else st.max_v[row].tolist(),
        }
        if coarse is not None:
            d["coarse"] = coarse
        return d

    def texts_of(self, rows: list[int]) -> list[str]:
        """The kept text of each of ``rows``, made where missing; call with the service's lock held."""
        texts = self.texts
        out = []
        for row in rows:
            text = texts[row]
            if text is None:
                text = texts[row] = _dumps(self.sample(row))
            out.append(text)
        return out


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
    ``table`` is what the service keeps of that table (:class:`_Table`).
    A request that finds the record's table replaced makes it anew, so the
    service keeps at most one text per stored sample, and none of samples
    the record no longer keeps.
    """

    def __init__(self, rec: SummaryRecord, store_dir: str | None = None):
        self.rec = rec
        self.lock = threading.Lock()
        self.store_dir = None if store_dir is None else os.path.realpath(store_dir)
        self.other_aggregates: dict[tuple, stats.SummarySample] = {}
        self.table: _Table | None = None

    def handle_line(self, line: bytes | str) -> Mapping:
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

    def _table(self) -> _Table:
        """What the service keeps of the record's current table, made anew if it was replaced; call with the lock
        held."""
        table = self.table
        if table is None or table.stack is not self.rec.stack():
            table = self.table = _Table(self.rec)
        return table

    def _interval(self, t0: int, t1: int) -> Reply:
        if type(t0) is not int or type(t1) is not int:  # JSON integers only: not a float, a bool or a string
            raise TypeError(f"t0 and t1 must be integers, got {t0!r} and {t1!r}")
        with self.lock:
            parts = self.rec.query_interval(t0, t1)
            table = self._table()
            rows = [p.row for p in parts]
            curation.record_access(self.rec, table.level[rows], "interval")
            texts = table.texts_of(rows)
        coarse = [p.coarse for p in parts]
        # "coarse" sorts before every key of a sample, so it opens each part's text
        lines = [_COARSE[c] + text[1:] for c, text in zip(coarse, texts)]
        return Reply(
            '{"ok": true, "result": [' + ", ".join(lines) + "]}\n",
            lambda: {"ok": True, "result": [table.sample(row, c) for row, c in zip(rows, coarse)]},
        )

    def _member(self, value) -> Reply:
        numbers = value if type(value) is list else [value]
        if not all(type(v) in (int, float) for v in numbers):  # JSON numbers only: no bool, string or null
            raise TypeError(f"value must be a JSON number or a list of them, got {value!r}")
        with self.lock:
            res = self.rec.membership(value)
            table = self._table()
            curation.record_access(self.rec, table.level[res.rows], "member")
            rows = res.rows.tolist()
            texts = table.texts_of(rows)
        likes = [like for _, like in res.candidates]
        # one text of every likelihood: the list's items, "nan", "inf" and "-inf" as strings, hold no ", "
        candidates = ", ".join(
            f'{{"likelihood": {like}, "sample": {text}}}' for like, text in zip(_dumps(likes)[1:-1].split(", "), texts)
        )
        line = (
            f'{{"ok": true, "result": {{"absent_certain": {_dumps(res.absent_certain)}, "candidates": [{candidates}], '
            f'"nodes_visited": {_dumps(res.nodes_visited)}, "note": {_dumps(res.note)}}}}}\n'
        )

        def make() -> dict:
            result = {
                "absent_certain": res.absent_certain,
                "nodes_visited": res.nodes_visited,
                "candidates": [{"sample": table.sample(row), "likelihood": like} for row, like in zip(rows, likes)],
                "note": res.note,
            }
            return {"ok": True, "result": result}

        return Reply(line, make)

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
