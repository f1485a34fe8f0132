"""Per-layer tracing of gfstore by patching module and class attributes.

Patching the attribute (not the caller's reference) catches calls made from
inside the package too: ``stats.merge_all`` looks ``merge`` up in its module
globals, and ``SummaryRecord.membership`` calls ``index.build`` through the
module.  Each call becomes a span (name, start, end, parent); spans are kept
in flat per-thread arrays and reduced to per-layer metrics at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import struct
import threading
import time
from array import array
from collections import Counter

# (module, attribute path) of every traced callable.  These are the layer
# boundaries of the package; the rest of the public API runs inside them.
TRACED = (
    ("record", "SummaryRecord.ingest"),
    ("record", "SummaryRecord.ingest_block"),
    ("record", "SummaryRecord.rebalance"),
    ("record", "SummaryRecord.query_interval"),
    ("record", "SummaryRecord.aggregate"),
    ("record", "SummaryRecord.membership"),
    ("record", "SummaryRecord.validate"),
    ("stats", "point_sample"),
    ("stats", "merge"),
    ("stats", "merge_all"),
    ("stats", "merge_hull"),
    ("stats", "summarize"),
    ("spectrum", "pool_terms"),
    ("curation", "score_merge_candidates"),
    ("curation", "record_access"),
    ("curation", "compact"),
    ("compare", "model_from_sample"),
    ("compare", "symmetric_merge_score"),
    ("compare", "kl_divergence"),
    ("compare", "subset_verdict"),
    ("index", "build"),
    ("index", "membership"),
    ("container", "save"),
    ("container", "load"),
    ("container", "write"),
    ("container", "read"),
    ("service", "QueryService.handle_line"),
    ("cli", "main"),
)


class _ThreadSpans:
    """Spans opened by one thread, in the order they were opened."""

    def __init__(self):
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []

    def open(self, name_id: int) -> int:
        idx = len(self.names)
        self.names.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()


class Tracer:
    """Installs span-recording wrappers and restores the originals on exit.

    Use as a context manager; every patched attribute is put back even when
    a traced call raises.
    """

    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._threads_lock = threading.Lock()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counters: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            self._local.spans = spans
            with self._threads_lock:
                self._threads.append(spans)
        return spans

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def traced(self, name: str, fn, *, label=None, count=None):
        """``fn`` wrapped in a span named ``name`` (plus ``.label(args)`` if given).

        ``count(tracer, args, result)`` runs after the span closes, so the
        counting is not charged to ``fn``.
        """
        base_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = base_id if label is None else self.name_id(f"{name}.{label(args)}")
            spans = self._spans()
            idx = spans.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.close(idx)
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, self.traced(name, original, **hooks))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reduction ---------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every thread."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        with self._threads_lock:
            threads = list(self._threads)
        for t in threads:
            for nid, own in zip(t.names, self_times(t.starts, t.ends, t.parents)):
                calls[nid] += 1
                self_s[nid] += own
        return {self.names[nid]: (calls[nid], self_s[nid]) for nid in calls}

    def durations(self, prefix: str) -> list[tuple[str, float]]:
        """(name, seconds) of every span whose name starts with ``prefix``, in start order."""
        out = []
        with self._threads_lock:
            threads = list(self._threads)
        for t in threads:
            for i, nid in enumerate(t.names):
                if self.names[nid].startswith(prefix):
                    out.append((t.starts[i], self.names[nid], t.ends[i] - t.starts[i]))
        return [(name, d) for _, name, d in sorted(out)]


def self_times(starts, ends, parents) -> array:
    """Each span's duration minus the part of it that its child spans cover.

    Spans must be listed in start order, as a thread opens them.  Children
    may overlap each other or stick out of their parent; only the union of
    their intervals inside the parent counts.
    """
    n = len(starts)
    covered = array("d", bytes(8 * n))
    reach = array("d", starts)  # end of the child coverage found so far, per parent
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (ends[i] - starts[i] - covered[i] for i in range(n)))


# -- gfstore layer map ------------------------------------------------------


def _resolve(modname: str, path: str):
    owner = importlib.import_module(f"gfstore.{modname}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _count_pairs(tracer, args, ranked):
    tracer.counters["curation.pairs_scored"] += len(ranked)


def _count_nodes(tracer, args, root):
    tracer.counters["index.nodes_built"] += root.node_count()


def _count_membership(tracer, args, res):
    tracer.counters["index.queries"] += 1
    tracer.counters["index.nodes_visited"] += res.nodes_visited
    tracer.counters["index.absent_certain"] += int(res.absent_certain)


def _note_container(tracer, args, blob):
    # GFS1 layout: magic, u32 version, u64 manifest length, manifest, u64 data length, data
    (mlen,) = struct.unpack_from("<Q", blob, 8)
    (dlen,) = struct.unpack_from("<Q", blob, 16 + mlen)
    tracer.gauges["container.manifest_bytes"] = mlen
    tracer.gauges["container.data_bytes"] = dlen
    tracer.gauges["container.provenance_events"] = len(args[0].provenance)


def _request_op(args) -> str:
    try:
        return str(json.loads(args[1]).get("op"))
    except (ValueError, AttributeError):
        return "malformed"


HOOKS = {
    "curation.score_merge_candidates": {"count": _count_pairs},
    "index.build": {"count": _count_nodes},
    "index.membership": {"count": _count_membership},
    "container.write": {"count": _note_container},
    "service.handle_line": {"label": _request_op},
}


def span_name(modname: str, path: str) -> str:
    """Metric prefix of a traced callable: module plus function, class dropped."""
    return f"{modname}.{path.rsplit('.', 1)[-1]}"


def install(tracer: Tracer) -> Tracer:
    """Patch every callable in :data:`TRACED` (gfstore must be importable)."""
    for modname, path in TRACED:
        owner, attr = _resolve(modname, path)
        name = span_name(modname, path)
        tracer.patch(owner, attr, name, **HOOKS.get(name, {}))
    return tracer


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Calls and self milliseconds per span name, plus the recorded counts."""
    out: dict[str, float] = {}
    for name, (calls, self_s) in tracer.span_totals().items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_ms"] = self_s * 1e3
    c = tracer.counters
    out["curation.pairs_scored"] = c["curation.pairs_scored"]
    out["index.nodes_built"] = c["index.nodes_built"]
    queries = c["index.queries"]
    out["index.nodes_visited_per_query"] = c["index.nodes_visited"] / queries if queries else 0.0
    out["index.absent_certain_ratio"] = c["index.absent_certain"] / queries if queries else 0.0
    out.update(tracer.gauges)
    return out
