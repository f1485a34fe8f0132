"""Self-describing container for a whole record.

Layout (format version 6): magic "GFS1", u32 format version, u64 manifest
length, the manifest, u64 data length, then the data section.  The
manifest is JSON (stream metadata, statistics, curation rules, provenance,
length and CRC-32 of the data section) plus a u32 CRC-32 trailer over
magic, version, manifest length and JSON; the length counts the trailer.
``labels`` must be a list of one string per channel.
The data section is a sequence of blocks, each a u32 type, a u64 payload
length and the payload.  A block holds one column over all stored samples,
k of them in time order (coarsest level first, as
:meth:`SummaryRecord.stack` orders them), and is read with one
``np.frombuffer`` per array:

- type 13, the sample count of every level, finest first (u64 each);
- type 14, every sample's ``t_start``, then every ``t_end``, then every
  ``n`` (i64 each);
- type 1, the means, k x channels f8;
- types 2, 3 and 4 (variance, minimum, maximum) and 5 (covariance): a
  lacks mask of k bytes (1 where the sample keeps none, as after a drop),
  then the values of the m samples that keep one: m x channels f8, or the
  upper triangle of each covariance, row by row.  A kept NaN stays a NaN,
  apart from a dropped statistic;
- types 6 (hull) and 9 (scale-wise variance): the mask, m + 1 i64 offsets
  (rising from 0) into the rows of the m samples that keep one, then the
  rows: hull vertices as 2 f8 each, SWV terms as channels f8 each;
- type 7 (histogram), sparse: the mask, m + 1 i64 offsets into the pairs,
  then every pair's i64 key, then every pair's u64 count.  A sample has a
  pair per non-zero entry of its count tuple, the outliers under key
  ``OUTLIER_BIN`` (-1) first, then the bins in order; a key outside
  ``[OUTLIER_BIN, bins)``, or keys that do not rise within a sample, do not
  load.

Blocks 13, 14 and 1 are required; an optional statistic that no sample
keeps has no block.  A block of a known type that comes twice, holds too
few bytes or bytes past its columns, has a mask byte other than 0 or 1,
or offsets that fall, raises :class:`CorruptContainer`.  Samples are built
from row views of one array of their own per column, never of the file's
bytes.  Histogram bin edges are held once, in the manifest's statistics,
and every sample with a histogram gets that one array on read.
Versions 1 to 5 still load, through the per-sample decoder: their data
section holds the level count, then per level its sample count and each
sample as a header (t_start, t_end, n, channels, block count: 32 bytes in
version 5) followed by its statistics as blocks of the types above, each
sample with the manifest's channel count and a mean block, the histogram
as a u64 pair count and its (key, count) pairs.  Versions 1 to 4 put a
sample id after n (a 40-byte header), which is read past.  Their manifest's ``counters``
must agree with the ``now`` and ``merge_count`` that the record derives,
or :class:`InvariantViolation` is raised.  Versions 1 to 3 also wrote the
manifest's edges into each histogram sample as a type-8 block, which is
read past without a note.  Version 1 has no manifest trailer, and versions
1 and 2 store a float64 per-sample weight after the id (a 48-byte header).
A sample weight other than 1.0 raises :class:`VersionUnsupported`, because
this build keeps no weights.  :func:`write` writes version 6 only.
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
blocks of each type (such as the retired types 10-12, or 8 after version 3)
get one note with their count and bytes.  An older build's scale-wise
variance stack deeper than ⌈log2 n⌉ terms (a term per merge) loads with
its deeper terms summed into the top one, noted once.  The retired merge weights
``slowness_w``, ``recurrence_reprieve_w`` and ``prior_access_w``, which
older builds wrote into every manifest, are dropped without a note when
they hold 0.0, since the policy is then unchanged.  All numbers are
little-endian; reals are IEEE-754 64-bit and integers 64-bit, so round
trips are bit-exact.  Any malformed input raises a
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

from . import curation, spectrum, stats
from .errors import BadMagic, BudgetTooSmall, ChecksumMismatch, CorruptContainer, InvariantViolation, VersionUnsupported
from .record import PROVENANCE_RING, SummaryRecord

MAGIC = b"GFS1"
FORMAT_VERSION = 6

_FRAME = struct.Struct("<IQ")  # a block's type and payload length
_HEAD = struct.Struct("<qqQII")  # version 5's sample header
_HEAD_V4 = struct.Struct("<qqQqII")  # versions 3 and 4: a sample id follows n
_HEAD_V2 = struct.Struct("<qqQqdII")  # versions 1 and 2: a float64 weight follows the id
_PAIR = struct.Struct("<qQ")  # a histogram key and its count

# a statistic's block type, per sample in versions 1-5 and per column in version 6
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
_BLOCK_LEVELS = 13  # version 6: the stored samples per level, finest first
_BLOCK_SPANS = 14  # version 6: every sample's t_start, then every t_end, then every n

# version 6: the optional statistics, each a lacks mask and the columns of the samples that keep it
_MOMENTS = ((_BLOCK_VARIANCE, "variance"), (_BLOCK_MIN, "min_v"), (_BLOCK_MAX, "max_v"))
_RAGGED = ((_BLOCK_HULL, "hull"), (_BLOCK_SWV, "swv"))  # a row count per sample: vertices, or terms
_SAMPLE_FIELDS = tuple(f.name for f in dataclasses.fields(stats.SummarySample))

# rules keys of retired merge weights; at 0.0 they left the policy as it is now
_RETIRED_RULES = ("slowness_w", "recurrence_reprieve_w", "prior_access_w")


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


def _block(btype: int, *columns: np.ndarray) -> bytes:
    """A framed block: its type, its length and its columns' little-endian bytes, one after another."""
    payload = b"".join(c.astype(c.dtype.newbyteorder("<"), copy=False).tobytes() for c in columns)
    return _FRAME.pack(btype, len(payload)) + payload


def _kept(samples, name: str) -> tuple[np.ndarray, list]:
    """The mask of the samples whose field ``name`` is None, and the field of every other sample."""
    values = [getattr(s, name) for s in samples]
    lacks = np.fromiter((v is None for v in values), bool, len(values))
    return lacks, [v for v in values if v is not None]


def _encode_data(rec: SummaryRecord) -> bytes:
    """The data section of format 6, each column over the stored samples as they are, in time order."""
    d = rec.channels
    st = stats.stack(rec.samples_in_time_order(), d)
    samples = st.samples
    out = [
        _block(_BLOCK_LEVELS, np.array([len(level) for level in rec.levels], dtype=np.uint64)),
        _block(_BLOCK_SPANS, st.t_start, np.array([s.t_end for s in samples], dtype=np.int64), st.n),
        _block(_BLOCK_MEAN, st.mean),
    ]
    for btype, name in _MOMENTS:
        lacks = st.lacks(name)
        if not lacks.all():
            out.append(_block(btype, lacks, getattr(st, name)[~lacks]))
    lacks, kept = _kept(samples, "covariance")
    if kept:
        out.append(_block(_BLOCK_COVARIANCE, lacks, np.array(kept, dtype=np.float64)[(slice(None), *_upper(d))]))
    for btype, name in _RAGGED:
        lacks, kept = _kept(samples, name)
        if kept:
            offsets = np.cumsum([0, *(x.shape[0] for x in kept)], dtype=np.int64)
            out.append(_block(btype, lacks, offsets, np.concatenate(kept).astype(np.float64, copy=False)))
    lacks, kept = _kept(samples, "histogram")
    if kept:
        width = st.histogram.shape[1]
        if any(len(h) != width for h in kept):
            raise InvariantViolation(f"a histogram does not hold the record's {width - 1} bins and outlier count")
        counts = np.roll(st.histogram[~lacks], 1, axis=1)  # the outlier count first, as key OUTLIER_BIN
        owner, at = np.nonzero(counts)
        offsets = np.searchsorted(owner, np.arange(len(kept) + 1)).astype(np.int64)
        keys = (at + stats.OUTLIER_BIN).astype(np.int64)
        out.append(_block(_BLOCK_HISTOGRAM, lacks, offsets, keys, counts[owner, at].astype(np.uint64)))
    return b"".join(out)


class _Payload:
    """The payload of one format-6 block, read front to back; a read past its end raises CorruptContainer."""

    def __init__(self, btype: int, buf: memoryview):
        self.btype, self.buf, self.pos = btype, buf, 0

    def take(self, dtype: str, count: int) -> np.ndarray:
        """The next ``count`` values of ``dtype``, as an array of their own."""
        size = count * np.dtype(dtype).itemsize
        if self.pos + size > len(self.buf):
            raise CorruptContainer(f"block of type {self.btype} holds {len(self.buf)} bytes, too few for its columns")
        out = np.frombuffer(self.buf, dtype, count, self.pos).copy()
        self.pos += size
        return out

    def mask(self, k: int) -> tuple[np.ndarray, int]:
        """The lacks mask of ``k`` samples, and the number of samples that keep the statistic."""
        lacks = self.take("u1", k)
        if (lacks > 1).any():
            raise CorruptContainer(f"block of type {self.btype} has a mask byte other than 0 or 1")
        return lacks.view(bool), k - int(np.count_nonzero(lacks))

    def offsets(self, m: int) -> list[int]:
        """Where each of ``m`` samples' rows start, and the end: from 0, never falling."""
        offsets = self.take("<i8", m + 1)
        if offsets[0] or (np.diff(offsets) < 0).any():
            raise CorruptContainer(f"block of type {self.btype} has offsets that do not rise from 0")
        return offsets.tolist()

    def end(self) -> None:
        if self.pos != len(self.buf):
            raise CorruptContainer(f"block of type {self.btype} has {len(self.buf) - self.pos} bytes past its columns")


_COLUMNS = {_BLOCK_LEVELS, _BLOCK_SPANS, _BLOCK_MEAN, _BLOCK_VARIANCE, _BLOCK_MIN, _BLOCK_MAX, _BLOCK_COVARIANCE,
            _BLOCK_HULL, _BLOCK_HISTOGRAM, _BLOCK_SWV}  # the block types of format 6


def _spread(lacks: np.ndarray, values) -> list:
    """One entry per sample: None where ``lacks``, else the next of ``values``."""
    if not lacks.any():
        return list(values)
    it = iter(values)
    return [None if gone else next(it) for gone in lacks.tolist()]


def _decode_columns(data: memoryview, channels: int, edges: np.ndarray | None, skipped: dict) -> list[list]:
    """The stored samples of a format-6 data section, one list per level, finest first; unknown blocks are
    tallied in ``skipped[type] = (count, bytes)``."""
    blocks: dict[int, _Payload] = {}
    pos = 0
    while pos < len(data):
        btype, length = _FRAME.unpack_from(data, pos)
        pos += _FRAME.size
        if pos + length > len(data):
            raise CorruptContainer(f"block of type {btype} runs past the data section")
        if btype not in _COLUMNS:
            count, total = skipped.get(btype, (0, 0))
            skipped[btype] = (count + 1, total + length)
        elif btype in blocks:
            raise CorruptContainer(f"two blocks of type {btype}")
        else:
            blocks[btype] = _Payload(btype, data[pos : pos + length])
        pos += length
    missing = {_BLOCK_LEVELS, _BLOCK_SPANS, _BLOCK_MEAN} - blocks.keys()
    if missing:
        raise CorruptContainer(f"no block of type {min(missing)}")

    d = channels
    b = blocks[_BLOCK_LEVELS]
    per_level = b.take("<u8", len(b.buf) // 8).tolist()
    k = sum(per_level)
    t_start, t_end, n = blocks[_BLOCK_SPANS].take("<i8", 3 * k).reshape(3, k).tolist()
    means = blocks[_BLOCK_MEAN].take("<f8", k * d).reshape(k, d)
    cols = {"t_start": t_start, "t_end": t_end, "n": n, "mean": list(means)}
    for btype, name in _MOMENTS:
        if (b := blocks.get(btype)) is not None:
            lacks, m = b.mask(k)
            cols[name] = _spread(lacks, b.take("<f8", m * d).reshape(m, d))
    if (b := blocks.get(_BLOCK_COVARIANCE)) is not None:
        lacks, m = b.mask(k)
        iu = _upper(d)
        tri = b.take("<f8", m * iu[0].shape[0]).reshape(m, iu[0].shape[0])
        cov = np.empty((m, d, d))
        cov[:, iu[0], iu[1]] = tri
        cov[:, iu[1], iu[0]] = tri
        cols["covariance"] = _spread(lacks, cov)
    for btype, name in _RAGGED:
        if (b := blocks.get(btype)) is not None:
            lacks, m = b.mask(k)
            offsets = b.offsets(m)
            width = 2 if btype == _BLOCK_HULL else d
            rows = b.take("<f8", offsets[-1] * width).reshape(-1, width)
            cols[name] = _spread(lacks, [rows[i:j] for i, j in zip(offsets, offsets[1:])])
    if (b := blocks.get(_BLOCK_HISTOGRAM)) is not None:
        lacks, m = b.mask(k)
        offsets = b.offsets(m)
        keys, counts = b.take("<i8", offsets[-1]), b.take("<u8", offsets[-1])
        width = 0 if edges is None else edges.shape[0]  # the bins and the outlier count
        owner = np.repeat(np.arange(m), np.diff(offsets))
        falls = (np.diff(keys) <= 0) & (np.diff(owner) == 0)  # within a sample, keys rise
        if ((keys < stats.OUTLIER_BIN) | (keys >= width - 1)).any() or falls.any():
            raise CorruptContainer(f"histogram block on {width - 1} bins has a key out of range, repeated or unordered")
        dense = np.zeros((m, width), dtype=np.uint64)
        dense[owner, keys] = counts  # OUTLIER_BIN is the last entry
        cols["histogram"] = _spread(lacks, map(tuple, dense.tolist()))
        cols["hist_edges"] = [None if h is None else edges for h in cols["histogram"]]
    for b in blocks.values():
        b.end()

    none = itertools.repeat(None)
    samples = list(map(stats.SummarySample, *(cols.get(name, none) for name in _SAMPLE_FIELDS)))
    levels, end = [], k
    for count in per_level:  # the finest level's samples come last in time order
        levels.append(samples[end - count : end])
        end -= count
    return levels


def _decode_levels(data: memoryview, version: int, channels: int, edges: np.ndarray | None, skipped: dict):
    """The stored samples of a format 1-5 data section, one list per level, finest first, with an older build's
    SWV stacks deeper than ⌈log2 n⌉ terms folded into their top term; and the number of stacks folded."""
    offset = 0
    (n_levels,) = struct.unpack_from("<Q", data, offset)
    offset += 8
    levels: list[list[stats.SummarySample]] = []
    folded = 0
    for _ in range(n_levels):
        (count,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        level = []
        for _ in range(count):
            s, offset = _decode_sample(data, offset, skipped, version, channels, edges)
            if s.swv is not None and s.swv.shape[0] > (top := spectrum.depth(s.n)) > 0:  # an older build's stack
                s.swv = np.vstack([s.swv[: top - 1], s.swv[top - 1 :].sum(axis=0)])
                folded += 1
            level.append(s)
        levels.append(level)
    return levels, folded


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
    """Serialize the whole record in format 6; read(write(rec)) == rec bit-exactly."""
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

    channels, labels = manifest["channels"], manifest["labels"]
    if type(labels) is not list or len(labels) != channels or not all(type(x) is str for x in labels):
        raise CorruptContainer(f"need one label string per channel ({channels!r}), found {labels!r}")
    rec = SummaryRecord(channels=channels, opts=opts, rules=rules, labels=tuple(labels))
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

    skipped: dict[int, tuple[int, int]] = {}
    edges = opts.edges_array()
    if version >= 6:
        levels, folded = _decode_columns(memoryview(data), rec.channels, edges, skipped), 0
    else:
        levels, folded = _decode_levels(memoryview(data), version, rec.channels, edges, skipped)
    rec.levels = levels if levels else [[]]
    for btype, (blocks, nbytes) in sorted(skipped.items()):
        note = f"skipped {blocks} statistic block(s) of unknown or retired type {btype} ({nbytes} bytes)"
        rec.note(("read", None, None), {"op": "read", "note": note})
    if folded:
        rec.note(("read", None, None), {"op": "read", "note": f"folded {folded} SWV stack(s) to ⌈log2 n⌉ terms"})
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

    ``levels`` has one row per non-empty level, the coarsest first.  Its
    ``floats``/``ints`` count what the samples hold of their own
    (:func:`stats.scalar_cost`), and ``scalar_footprint`` is their sum:
    histogram bin edges, held once in the statistics, are not counted.

    ``provenance_events`` is the total number of events ever noted (create,
    read, and curation's merges, promotions and drops); it leaves out the
    ``access`` tallies of served requests, which no provenance event
    records.  ``event_counts`` holds the ``[op, level, reason, count]``
    rows, the ``access`` tallies among them, and ``provenance`` the last
    ``PROVENANCE_RING`` events.
    """
    levels = []
    for k in range(len(rec.levels) - 1, -1, -1):
        samples = rec.levels[k]
        if not samples:
            continue
        floats = ints = n_total = 0
        for s in samples:
            f, i = stats.scalar_cost(s)
            floats += f
            ints += i
            n_total += s.n
        count = len(samples)
        levels.append(
            {
                "level": k,
                "scale": 1 << k,
                "count": count,
                "t_start": samples[0].t_start,
                "t_end": samples[-1].t_end,
                "n_total": n_total,
                "floats": floats,
                "ints": ints,
                "floats_per_sample": floats / count,
                "ints_per_sample": ints / count,
            }
        )
    return {
        "channels": rec.channels,
        "labels": list(rec.labels),
        "now": rec.now,
        "slots": rec.slots(),
        "budget": rec.budget,
        "merge_count": rec.merge_count,
        "scalar_footprint": sum(row["floats"] + row["ints"] for row in levels),
        "levels": levels,
        "statistics": rec.opts.names(),
        "rules": dataclasses.asdict(rec.rules),
        "provenance_events": sum(n for (op, _, _), n in rec.event_counts.items() if op != "access"),
        "event_counts": rec.event_rows(),
        "provenance": list(rec.provenance),
    }
