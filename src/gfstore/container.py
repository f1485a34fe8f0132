"""Self-describing container for a whole record.

Layout (format version 5): magic "GFS1", u32 format version, u64 manifest
length, the manifest, u64 data length, then the data section.  The
manifest is JSON (stream metadata, statistics, curation rules, provenance,
length and CRC-32 of the data section) plus a u32 CRC-32 trailer over
magic, version, manifest length and JSON; the length counts the trailer.
The data section holds per-level arrays of samples: a 32-byte header
(t_start, t_end, n, channels, block count) followed by the statistics as
length-prefixed blocks; each sample has the manifest's channel count and a
mean block.  Histogram bin edges are held once, in the manifest's
statistics, and every sample with a histogram gets that one array on read.
The histogram block (type 7) is sparse: a u64 pair count, then an (i64
key, u64 count) pair per non-zero entry of the sample's count tuple, the
outliers under key ``OUTLIER_BIN`` (-1) first, then the bins in order; a
key outside ``[OUTLIER_BIN, bins)`` or a repeated key does not load.
Versions 1 to 4 still load.  They put a sample id after n (a 40-byte
header), which is read past.  Their manifest's ``counters``
must agree with the ``now`` and ``merge_count`` that the record derives,
or :class:`InvariantViolation` is raised.  Versions 1 to 3 also wrote the
manifest's edges into each histogram sample as a type-8 block, which is
read past without a note.  Version 1 has no manifest trailer, and versions
1 and 2 store a float64 per-sample weight after the id (a 48-byte header).
A sample weight other than 1.0 raises :class:`VersionUnsupported`, because
this build keeps no weights.
Provenance is bounded: the manifest holds the event totals as sorted
``[op, level, reason, count]`` rows under ``event_counts``, the per-level
``access`` tallies of served requests among them, and the last
``PROVENANCE_RING`` events under ``provenance``; a file without
``event_counts`` (an older build's unbounded event list) is folded into
totals on read.  A row whose op is not a string, whose level is not null
or a count, whose reason is not null or a string, or whose count is not a
non-negative integer, and a second row of one key, raise
:class:`CorruptContainer`, as do rules that ``CurationRules.check``
refuses.  Older builds also wrote a per-sample ``access_log``, which is
ignored without a note.
Length prefixes make unknown blocks skippable, and unknown statistics or
rules keys in the manifest are dropped with a provenance note, so
containers written by richer or older builds stay readable; the skipped
blocks of each type (such as the retired types 10-12, or 8 in version 4)
get one note with their count and bytes.  The retired merge weights
``slowness_w``, ``recurrence_reprieve_w`` and ``prior_access_w``, which
older builds wrote into every manifest, are dropped without a note when
they hold 0.0, since the policy is then unchanged.  All numbers are
little-endian; reals are IEEE-754 64-bit, counts 64-bit unsigned, so
round trips are bit-exact.  Any malformed input raises a
:class:`StoreError`.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import struct
import zlib
from collections import deque

import numpy as np

from . import curation, stats
from .errors import BadMagic, BudgetTooSmall, ChecksumMismatch, CorruptContainer, InvariantViolation, VersionUnsupported
from .record import PROVENANCE_RING, SummaryRecord

MAGIC = b"GFS1"
FORMAT_VERSION = 5

_HEAD = struct.Struct("<qqQII")
_HEAD_V4 = struct.Struct("<qqQqII")  # versions 3 and 4: a sample id follows n
_HEAD_V2 = struct.Struct("<qqQqdII")  # versions 1 and 2: a float64 weight follows the id
_PAIR = struct.Struct("<qQ")  # a histogram key and its count

_BLOCK_MEAN = 1
_BLOCK_VARIANCE = 2
_BLOCK_MIN = 3
_BLOCK_MAX = 4
_BLOCK_COVARIANCE = 5
_BLOCK_HULL = 6
_BLOCK_HISTOGRAM = 7
_BLOCK_SWV = 9
# 8, 10, 11, 12: retired (were the per-sample histogram bin edges, family
# hint, notes and dictionary id); never reuse them
_BLOCK_OLD_EDGES = 8  # versions 1-3 wrote the manifest's edges here

# rules keys of retired merge weights; at 0.0 they left the policy as it is now
_RETIRED_RULES = ("slowness_w", "recurrence_reprieve_w", "prior_access_w")


def _floats(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()

def _read_floats(buf: bytes, count: int) -> np.ndarray:
    return np.frombuffer(buf, dtype="<f8", count=count).copy()


@functools.lru_cache(maxsize=16)
def _upper(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the upper triangle of a d x d matrix, the covariance block's order; shared, so read-only."""
    iu = np.triu_indices(d)
    iu[0].flags.writeable = iu[1].flags.writeable = False
    return iu


def _is_count(x) -> bool:
    """An integer >= 0, as JSON holds one (a bool is not one)."""
    return type(x) is int and x >= 0


def _encode_sample(s: stats.SummarySample) -> bytes:
    d = s.channels
    blocks: list[tuple[int, bytes]] = [(_BLOCK_MEAN, _floats(s.mean))]
    if s.variance is not None:
        blocks.append((_BLOCK_VARIANCE, _floats(s.variance)))
    if s.min_v is not None:
        blocks.append((_BLOCK_MIN, _floats(s.min_v)))
    if s.max_v is not None:
        blocks.append((_BLOCK_MAX, _floats(s.max_v)))
    if s.covariance is not None:
        blocks.append((_BLOCK_COVARIANCE, _floats(s.covariance[_upper(d)])))
    if s.hull is not None:
        blocks.append((_BLOCK_HULL, struct.pack("<Q", s.hull.shape[0]) + _floats(s.hull)))
    h = s.histogram
    if h is not None:
        keys = list(itertools.compress(range(len(h) - 1), h))
        if h[stats.OUTLIER_BIN]:
            keys.insert(0, stats.OUTLIER_BIN)
        pairs = b"".join([_PAIR.pack(k, h[k]) for k in keys])
        blocks.append((_BLOCK_HISTOGRAM, struct.pack("<Q", len(keys)) + pairs))
    if s.swv is not None:
        blocks.append((_BLOCK_SWV, struct.pack("<Q", s.swv.shape[0]) + _floats(s.swv)))
    framed = [struct.pack("<IQ", btype, len(payload)) + payload for btype, payload in blocks]
    return _HEAD.pack(s.t_start, s.t_end, s.n, d, len(blocks)) + b"".join(framed)


def _decode_sample(
    buf: memoryview, offset: int, skipped: dict, version: int, channels: int, edges: np.ndarray | None
) -> tuple[stats.SummarySample, int]:
    """One sample of a ``channels``-channel record; unknown blocks are tallied in ``skipped[type] = (count, bytes)``."""
    head = _HEAD if version > 4 else _HEAD_V4 if version > 2 else _HEAD_V2
    t0, t1, n, *old, d, n_blocks = head.unpack_from(buf, offset)
    offset += head.size
    if len(old) > 1 and old[1] != 1.0:  # versions 1-4: the sample id, then in 1 and 2 a weight
        raise VersionUnsupported(
            f"sample [{t0},{t1}) has weight {old[1]!r}; only weight 1.0 loads into format {FORMAT_VERSION}"
        )
    if d != channels:
        raise InvariantViolation(f"sample [{t0},{t1}): n = {n} in {d} channels; record has {channels}")
    width = 0 if edges is None else edges.shape[0]  # the bins and the outlier count
    s = stats.SummarySample(t_start=t0, t_end=t1, n=n, mean=None, variance=None, min_v=None, max_v=None)
    for _ in range(n_blocks):
        btype, length = struct.unpack_from("<IQ", buf, offset)
        offset += struct.calcsize("<IQ")
        payload = bytes(buf[offset : offset + length])
        offset += length
        if btype == _BLOCK_MEAN:
            s.mean = _read_floats(payload, d)
        elif btype == _BLOCK_VARIANCE:
            s.variance = _read_floats(payload, d)
        elif btype == _BLOCK_MIN:
            s.min_v = _read_floats(payload, d)
        elif btype == _BLOCK_MAX:
            s.max_v = _read_floats(payload, d)
        elif btype == _BLOCK_COVARIANCE:
            tri = _read_floats(payload, d * (d + 1) // 2)
            cov = np.zeros((d, d))
            iu = _upper(d)
            cov[iu] = tri
            cov[(iu[1], iu[0])] = tri
            s.covariance = cov
        elif btype == _BLOCK_HULL:
            (m,) = struct.unpack_from("<Q", payload)
            s.hull = _read_floats(payload[8:], 2 * m).reshape(m, 2)
        elif btype == _BLOCK_HISTOGRAM:
            (k,) = struct.unpack_from("<Q", payload)
            pairs = list(_PAIR.iter_unpack(payload[8 : 8 + 16 * k]))
            if len(pairs) != k or len({key for key, _ in pairs}) != k:
                raise CorruptContainer(f"sample [{t0},{t1}): histogram block of {k} pairs is short or repeats a key")
            hist = [0] * width
            for key, count in pairs:
                if not stats.OUTLIER_BIN <= key < width - 1:
                    raise InvariantViolation(f"sample [{t0},{t1}) of n = {n} has histogram key {key} on {width - 1} bins")
                hist[key] = count
            s.histogram = tuple(hist)
            s.hist_edges = edges
        elif btype == _BLOCK_SWV:
            (depth,) = struct.unpack_from("<Q", payload)
            s.swv = _read_floats(payload[8:], depth * d).reshape(depth, d)
        elif btype != _BLOCK_OLD_EDGES or version > 3:
            count, total = skipped.get(btype, (0, 0))
            skipped[btype] = (count + 1, total + length)
    if s.mean is None:
        raise CorruptContainer(f"sample [{t0},{t1}) has no mean block")
    return s, offset


def _encode_data(rec: SummaryRecord) -> bytes:
    parts = [struct.pack("<Q", len(rec.levels))]
    for level in rec.levels:
        parts.append(struct.pack("<Q", len(level)))
        parts.extend(map(_encode_sample, level))
    return b"".join(parts)


def _manifest(rec: SummaryRecord, data: bytes) -> dict:
    return {
        "data_len": len(data),
        "data_crc32": zlib.crc32(data) & 0xFFFFFFFF,
        "channels": rec.channels,
        "labels": list(rec.labels),
        "statistics": dataclasses.asdict(rec.opts),
        "rules": dataclasses.asdict(rec.rules),
        "provenance": list(rec.provenance),
        "event_counts": rec.event_rows(),
    }


def _known_fields(cls, fields: dict, section: str, ignored: list[str]) -> dict:
    """The entries of ``fields`` that ``cls`` declares; the rest go to ``ignored``."""
    names = {f.name for f in dataclasses.fields(cls)}
    ignored.extend(f"{section}.{k}" for k in sorted(fields) if k not in names)
    return {k: v for k, v in fields.items() if k in names}


def write(rec: SummaryRecord) -> bytes:
    """Serialize the whole record; read(write(rec)) == rec bit-exactly."""
    data = _encode_data(rec)
    manifest = json.dumps(_manifest(rec, data), sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(manifest) + 4) + manifest
    return b"".join((head, struct.pack("<IQ", zlib.crc32(head), len(data)), data))


def _fold_events(events: list[dict]) -> dict:
    """Event totals of an unbounded event list, as written by older builds."""
    counts: dict = {}
    for e in events:
        key = (e["op"], e.get("level"), e.get("reason", e.get("statistic")))
        counts[key] = counts.get(key, 0) + 1
    return counts


def read(blob: bytes) -> SummaryRecord:
    """Parse a container, verifying checksum and structural invariants.

    Every failure is a :class:`StoreError`; malformed bytes that trip the
    decoders raise :class:`CorruptContainer`.
    """
    try:
        return _read(blob)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError, struct.error, BudgetTooSmall) as exc:
        raise CorruptContainer(f"malformed container ({type(exc).__name__}: {exc})") from exc


def _read(blob: bytes) -> SummaryRecord:
    if blob[:4] != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, found {blob[:4]!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if not 1 <= version <= FORMAT_VERSION:
        raise VersionUnsupported(f"format version {version} not supported")
    (mlen,) = struct.unpack_from("<Q", blob, 8)
    pos = 16 + mlen
    end = pos  # end of the manifest's JSON
    if version >= 2:
        end -= 4
        (crc,) = struct.unpack_from("<I", blob, end)
        if zlib.crc32(memoryview(blob)[:end]) != crc:
            raise ChecksumMismatch("manifest does not match its CRC-32")
    manifest = json.loads(blob[16:end].decode("utf-8"))
    (dlen,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    data = blob[pos : pos + dlen]
    if len(data) != dlen or dlen != manifest["data_len"]:
        raise ChecksumMismatch("data section truncated")
    if (zlib.crc32(data) & 0xFFFFFFFF) != manifest["data_crc32"]:
        raise ChecksumMismatch("data section does not match manifest CRC-32")

    ignored: list[str] = []
    opts_d = _known_fields(stats.StatisticSet, manifest["statistics"], "statistics", ignored)
    if opts_d.get("histogram_edges") is not None:
        opts_d["histogram_edges"] = tuple(opts_d["histogram_edges"])
    opts = stats.StatisticSet(**opts_d)
    rules_d = {k: v for k, v in manifest["rules"].items() if not (k in _RETIRED_RULES and v == 0.0)}
    rules = curation.CurationRules(**_known_fields(curation.CurationRules, rules_d, "rules", ignored))

    rec = SummaryRecord(
        channels=manifest["channels"],
        opts=opts,
        rules=rules,
        labels=tuple(manifest["labels"]),
    )
    events = manifest["provenance"]
    if "event_counts" in manifest:
        rows = manifest["event_counts"]
        rec.event_counts = {(op, level, reason): n for op, level, reason, n in rows}
        if len(rec.event_counts) != len(rows):
            raise CorruptContainer("two event rows share an (op, level, reason) key")
    else:
        rec.event_counts = _fold_events(events)
    for (op, level, reason), n in rec.event_counts.items():
        if not (
            isinstance(op, str)
            and (level is None or _is_count(level))
            and (reason is None or isinstance(reason, str))
            and _is_count(n)
        ):
            raise CorruptContainer(f"malformed event row {[op, level, reason, n]}")
    rec.provenance = deque(events, maxlen=PROVENANCE_RING)
    if ignored:
        note = f"ignored unknown manifest keys {', '.join(ignored)}"
        rec.note(("read", None, None), {"op": "read", "note": note})

    view = memoryview(data)
    offset = 0
    (n_levels,) = struct.unpack_from("<Q", view, offset)
    offset += 8
    skipped: dict[int, tuple[int, int]] = {}
    edges = opts.edges_array()
    levels: list[list[stats.SummarySample]] = []
    for _ in range(n_levels):
        (count,) = struct.unpack_from("<Q", view, offset)
        offset += 8
        level = []
        for _ in range(count):
            s, offset = _decode_sample(view, offset, skipped, version, rec.channels, edges)
            level.append(s)
        levels.append(level)
    rec.levels = levels if levels else [[]]
    for btype, (blocks, nbytes) in sorted(skipped.items()):
        note = f"skipped {blocks} statistic block(s) of unknown or retired type {btype} ({nbytes} bytes)"
        rec.note(("read", None, None), {"op": "read", "note": note})
    rec.validate()
    if version < 5:
        old = manifest["counters"]
        if (old["now"], old["merge_count"]) != (rec.now, rec.merge_count):
            raise InvariantViolation(f"counters {old} disagree with now {rec.now} after {rec.merge_count} merges")
    return rec


def save(rec: SummaryRecord, path) -> None:
    """Replace the store at ``path`` atomically: a failed save leaves the old file as it was."""
    blob = write(rec)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(path) -> SummaryRecord:
    with open(path, "rb") as fh:
        return read(fh.read())


def inspect_summary(rec: SummaryRecord) -> dict:
    """Accounting as plain JSON values: spans, slot usage, per-sample storage cost, provenance.

    ``floats``/``ints`` and ``scalar_footprint`` count what the samples hold
    of their own (:func:`stats.scalar_cost`): histogram bin edges, held once
    in the statistics, are not counted per sample.

    ``provenance_events`` is the total number of events ever noted (create,
    read, and curation's merges, promotions and drops); it leaves out the
    ``access`` tallies of served requests, which no provenance event
    records.  ``event_counts`` holds the ``[op, level, reason, count]``
    rows, the ``access`` tallies among them, and ``provenance`` the last
    ``PROVENANCE_RING`` events.
    """
    levels = []
    for row in rec.span_report():
        samples = rec.levels[row.level]
        floats = ints = 0
        for s in samples:
            f, i = stats.scalar_cost(s)
            floats += f
            ints += i
        levels.append(
            {
                "level": row.level,
                "scale": row.scale,
                "count": row.count,
                "t_start": row.t_start,
                "t_end": row.t_end,
                "n_total": row.n_total,
                "floats": floats,
                "ints": ints,
                "floats_per_sample": floats / row.count,
                "ints_per_sample": ints / row.count,
            }
        )
    return {
        "channels": rec.channels,
        "labels": list(rec.labels),
        "now": rec.now,
        "slots": rec.slots(),
        "budget": rec.budget,
        "merge_count": rec.merge_count,
        "scalar_footprint": rec.scalar_footprint(),
        "levels": levels,
        "statistics": rec.opts.names(),
        "rules": dataclasses.asdict(rec.rules),
        "provenance_events": sum(n for (op, _, _), n in rec.event_counts.items() if op != "access"),
        "event_counts": rec.event_rows(),
        "provenance": list(rec.provenance),
    }
