import dataclasses
import importlib.util
import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from gfstore import container, spectrum, stats
from gfstore.curation import CurationRules, compact
from gfstore.errors import CorruptContainer, InvariantViolation, StoreError, VersionUnsupported
from gfstore.record import PROVENANCE_RING, SummaryRecord
from test_record import BLOCK_RTOL, assert_same_sample

RICH = stats.StatisticSet(
    covariance=True, hull=True, histogram_edges=tuple(np.linspace(-3, 3, 9)), swv=True
)


def rich_record():
    """d = 2 with every optional statistic, KL-tuned merges, 5x budget rows."""
    rules = CurationRules(budget_slots=16, nonstationarity_w=1.0)
    rec = SummaryRecord(channels=2, opts=RICH, rules=rules)
    rec.ingest_block(np.random.default_rng(3).normal(size=(80, 2)))
    return rec


def seal(blob: bytes) -> bytes:
    """Recompute the manifest's CRC-32 trailer (format versions 2 and 3)."""
    (mlen,) = struct.unpack_from("<Q", blob, 8)
    end = 16 + mlen - 4
    return blob[:end] + struct.pack("<I", zlib.crc32(blob[:end])) + blob[end + 4 :]


def repack_manifest(blob: bytes, edit) -> bytes:
    """Rewrite the JSON manifest in place and re-seal its CRC-32 trailer."""
    (mlen,) = struct.unpack_from("<Q", blob, 8)
    manifest = json.loads(blob[16 : 16 + mlen - 4])
    edit(manifest)
    raw = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return seal(blob[:8] + struct.pack("<Q", len(raw) + 4) + raw + bytes(4) + blob[16 + mlen :])


def test_round_trip_all_statistics_bit_exact():
    rec = rich_record()
    samples = list(rec.samples_in_time_order())
    assert rec.merge_count >= 64
    assert all(s.swv is not None and s.hull is not None and s.histogram is not None for s in samples)
    assert len({s.swv.shape[0] for s in samples}) > 1  # merges of unequal depth happened
    blob = container.write(rec)
    back = container.read(blob)
    assert back == rec
    assert container.write(back) == blob


def test_round_trip_default_statistics_bit_exact():
    rec = SummaryRecord()
    rec.ingest_block(np.random.default_rng(5).normal(size=300))
    blob = container.write(rec)
    back = container.read(blob)
    assert back == rec
    assert container.write(back) == blob


def test_reads_parent_format_manifest():
    rec = rich_record()
    old_rules = ("dict_gate_radius", "dict_promote_threshold", "dict_drop_threshold")

    def parent_format(manifest):
        manifest["rules"].update(dict_gate_radius=3.0, dict_promote_threshold=3, dict_drop_threshold=2)
        manifest["dictionary"] = None

    back = container.read(repack_manifest(container.write(rec), parent_format))
    assert back.levels == rec.levels
    assert back.rules == rec.rules
    notes = [e for e in back.provenance if e["op"] == "read"]
    assert len(notes) == 1
    assert all(f"rules.{key}" in notes[0]["note"] for key in old_rules)
    # the ring is full, so the read note evicts the oldest kept event
    assert list(back.provenance) == [*list(rec.provenance)[1:], notes[0]]
    assert back.event_counts == {**rec.event_counts, ("read", None, None): 1}


def parent_access_log(rec: SummaryRecord) -> dict:
    """A per-sample access log as older format-5 builds wrote it: counts keyed by sample start."""
    counts = {str(s.t_start): [float(i % 3), i % 2] for i, s in enumerate(rec.samples_in_time_order())}
    return {"counts": counts, "half_life": 16.0, "tick": 1}


def test_retired_merge_weights_drop_silently_at_zero_and_with_a_note_otherwise():
    rec = rich_record()
    blob = container.write(rec)

    def parent_format(manifest):  # older builds wrote every weight, at 0.0 unless set, and an access log
        manifest["rules"].update(slowness_w=0.0, recurrence_reprieve_w=0.0, prior_access_w=0.0)
        manifest["access_log"] = parent_access_log(rec)

    assert container.read(repack_manifest(blob, parent_format)) == rec

    rows = np.random.default_rng(9).normal(size=(40, 2))
    want = container.read(blob)
    want.ingest_block(rows)
    for weight in ("slowness_w", "prior_access_w"):

        def one_set(manifest, weight=weight):
            parent_format(manifest)
            manifest["rules"][weight] = 1.0

        back = container.read(repack_manifest(blob, one_set))
        assert back.rules == rec.rules
        assert [e["note"] for e in back.provenance if e["op"] == "read"] == [f"ignored unknown manifest keys rules.{weight}"]
        back.ingest_block(rows)
        back.validate()
        assert back.levels == want.levels  # the rest of the policy goes on as it was


def small_blob() -> bytes:
    rec = SummaryRecord(budget=8)
    rec.ingest_block(np.random.default_rng(11).normal(size=40))
    return container.write(rec)


def test_reads_parent_format_event_list():
    rec = SummaryRecord(budget=8)
    rec.ingest_block(np.random.default_rng(2).normal(size=20))
    events = [{"op": "create", "channels": 1, "scale_ratio": 2, "statistics": ["count"]}]
    events += [
        {"op": "rescale", "level": i % 5, "pair_index": 0, "out_level": i % 5 + 1, "span": [i, i + 2],
         "reason": "compact" if i % 7 == 0 else "ingest"}
        for i in range(990)
    ]
    events += [{"op": "promote", "level": 3, "span": [0, 8]}] * 4
    events += [{"op": "drop_statistic", "statistic": "hull", "level": 2}] * 5

    def parent_format(manifest):
        del manifest["event_counts"]
        manifest["provenance"] = events

    back = container.read(repack_manifest(container.write(rec), parent_format))
    assert len(events) == 1000
    assert sum(back.event_counts.values()) == 1000
    assert back.event_counts[("create", None, None)] == 1
    assert back.event_counts[("rescale", 0, "compact")] == 29  # i = 0, 35, ..., 980
    assert back.event_counts[("rescale", 0, "ingest")] == 198 - 29
    assert sum(n for (op, _, _), n in back.event_counts.items() if op == "rescale") == 990
    assert back.event_counts[("promote", 3, None)] == 4
    assert back.event_counts[("drop_statistic", 2, "hull")] == 5
    assert list(back.provenance) == events[-PROVENANCE_RING:]
    assert back.levels == rec.levels
    assert container.read(container.write(back)) == back


def test_every_prefix_raises_store_error():
    blob = small_blob()
    assert len(blob) < 16_000
    for n in range(len(blob)):
        with pytest.raises(StoreError):
            container.read(blob[:n])


def newest_row(field: int, value):
    """An edit that sets ``field`` of the manifest's last event row, a ``rescale`` row with a level and a reason."""
    return lambda m: m["event_counts"][-1].__setitem__(field, value)


MALFORMED = {
    "missing-key": lambda m: m.pop("rules"),
    "labels-not-a-list": lambda m: m.update(labels=7),
    "short-counts-row": lambda m: m.update(event_counts=[["rescale", 0]]),
    "op-not-a-string": newest_row(0, 7),
    "level-below-zero": newest_row(1, -1),
    "level-a-string": newest_row(1, "0"),
    "reason-not-a-string": newest_row(2, 3),
    "count-not-a-number": newest_row(3, "x"),
    "negative-count": newest_row(3, -5),
    "fractional-count": newest_row(3, 1.5),
    "count-a-bool": newest_row(3, True),
    "repeated-row": lambda m: m["event_counts"].append([*m["event_counts"][-1][:3], 0]),
    "nan-count": newest_row(3, float("nan")),
    "infinite-count": newest_row(3, float("inf")),
    "statistics-not-an-object": lambda m: m.update(statistics=[1]),
    "edges-not-a-list": lambda m: m["statistics"].update(histogram_edges=3),
    "covariance-a-string": lambda m: m["statistics"].update(covariance="no"),
    "hull-a-number": lambda m: m["statistics"].update(hull=0),
    "swv-null": lambda m: m["statistics"].update(swv=None),
    "budget-zero": lambda m: m["rules"].update(budget_slots=0),
    "fractional-budget": lambda m: m["rules"].update(budget_slots=8.5),
    "budget-a-bool": lambda m: m["rules"].update(budget_slots=True),
    "weight-a-string": lambda m: m["rules"].update(nonstationarity_w="1"),
    "nan-weight": lambda m: m["rules"].update(nonstationarity_w=float("nan")),
    "infinite-weight": lambda m: m["rules"].update(nonstationarity_w=float("inf")),
    "negative-weight": lambda m: m["rules"].update(nonstationarity_w=-1.0),
    "weight-a-bool": lambda m: m["rules"].update(nonstationarity_w=True),
    "max-scalars-a-string": lambda m: m["rules"].update(max_scalars="x"),
    "negative-max-scalars": lambda m: m["rules"].update(max_scalars=-3),
    "fractional-max-scalars": lambda m: m["rules"].update(max_scalars=2.5),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_manifest_raises_corrupt_container(edit):
    blob = small_blob()
    op, level, reason, _ = container.read(blob).event_rows()[-1]  # the row newest_row edits
    assert (op, reason) == ("rescale", "ingest") and level > 0
    with pytest.raises(CorruptContainer):
        container.read(repack_manifest(blob, edit))


def newest_in_two_channels(rec):
    rec.levels[0][-1] = stats.point_sample([0.5, 0.5], rec.now - 1, rec.opts)


def newest_holds_seven_rows(rec):
    rec.levels[0][-1].n = 7


def newest_counts_a_stray_bin(rec):
    rec.levels[0][-1].histogram = (0,) * 7 + (1, 0)  # written as key 7


def newest_counts_two_rows(rec):
    rec.levels[0][-1].histogram = (2, 0, 0)


def newest_variance_negative(rec):
    rec.levels[0][-1].variance = np.array([-1.0])


def newest_covariance_negative(rec):
    rec.levels[0][-1].covariance = np.array([[-1.0]])


def newest_minimum_above_maximum(rec):
    rec.levels[0][-1].min_v = rec.levels[0][-1].max_v + 1.0


def newest_keeps_an_swv_term(rec):
    rec.levels[0][-1].swv = np.ones((1, 1))  # a one-row sample has no scale


def oldest_swv_term_negative(rec):
    rec.levels[-1][0].swv[0] = -1.0


@pytest.mark.parametrize(
    "edit, message",
    [
        (newest_in_two_channels, r"\[19,20\): n = 1 in 2 channels; record has 1"),
        (newest_holds_seven_rows, r"\[19,20\): n = 7 in 1 channels; record has 1"),
        (newest_counts_a_stray_bin, r"\[19,20\) of n = 1 has histogram key 7 on 2 bins"),
        (newest_counts_two_rows, r"n = 1 has histogram \(2, 0, 0\) on 2 bins"),
        (newest_variance_negative, r"\[19,20\) has a negative variance or a minimum above its maximum"),
        (newest_covariance_negative, r"\[19,20\) has a negative variance or a minimum above its maximum"),
        (newest_minimum_above_maximum, r"\[19,20\) has a negative variance or a minimum above its maximum"),
        (newest_keeps_an_swv_term, r"\[19,20\) of n = 1 has SWV terms \(1, 1\), not \(0, 1\)"),
        (oldest_swv_term_negative, r"\[0,4\) has a negative variance or a minimum above its maximum"),
    ],
)
def test_a_sample_that_disagrees_with_its_record_does_not_load(edit, message):
    opts = stats.StatisticSet(covariance=True, histogram_edges=(0.0, 1.0, 2.0), swv=True)
    rec = SummaryRecord(budget=8, opts=opts)
    rec.ingest_block(np.random.default_rng(4).uniform(-1, 3, size=20))
    container.read(container.write(rec))
    edit(rec)
    with pytest.raises(InvariantViolation, match=message):
        container.read(container.write(rec))


def test_a_hull_with_no_vertex_does_not_load():
    rec = SummaryRecord(channels=2, budget=2, opts=stats.StatisticSet(hull=True))
    rec.ingest_block([[0, 0], [1, 1], [0, 1], [5, 5], [6, 6]])
    assert not rec.membership([0.0, 1.0]).absent_certain
    next(rec.samples_in_time_order()).hull = np.empty((0, 2))  # would rule out every value
    with pytest.raises(InvariantViolation, match=r"\[0,4\) of n = 4 has a hull with no vertex"):
        container.read(container.write(rec))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_spreads_and_extrema_of_inf_and_nan_rows_still_load():
    rec = SummaryRecord(channels=2, budget=8, opts=stats.StatisticSet(covariance=True))
    raw = np.random.default_rng(6).normal(size=(40, 2))
    raw[3, 0], raw[12, 1], raw[30, 1] = np.nan, np.inf, np.nan
    rec.ingest_block(raw)
    assert np.isnan(rec.levels[-1][0].variance).all() and np.isnan(rec.levels[-1][0].min_v[0])
    blob = container.write(rec)
    assert container.write(container.read(blob)) == blob


def test_non_utf8_manifest_raises_corrupt_container():
    blob = bytearray(small_blob())
    blob[17] = 0xFF
    blob = seal(bytes(blob))
    with pytest.raises(CorruptContainer):
        container.read(bytes(blob))


def test_failed_save_leaves_old_store_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "store.gfs"
    rec = SummaryRecord(budget=8)
    rec.ingest_block(np.arange(30.0))
    container.save(rec, path)
    before = path.read_bytes()
    rec.ingest_block(np.arange(30.0))

    def fail(fd):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk gone"):
        container.save(rec, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.gfs"]
    monkeypatch.undo()
    container.save(rec, path)
    assert container.load(path) == rec
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.gfs"]


def test_single_bit_flips_never_load():
    blob = small_blob()
    rng = np.random.default_rng(2024)
    for _ in range(1_000):
        bit = int(rng.integers(8 * len(blob)))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(StoreError):
            container.read(bytes(flipped))


SAMPLE_HEAD = "<qqQII"
V4_SAMPLE_HEAD = "<qqQqII"  # versions 3 and 4: a sample id follows n
OLD_SAMPLE_HEAD = "<qqQqdII"  # versions 1 and 2: a float64 weight follows the id


def v4_sample(s: stats.SummarySample, old_id: int) -> bytes:
    """``s`` with the 40-byte sample header of format versions 3 and 4, carrying ``old_id``."""
    enc = container._encode_sample(s)
    t0, t1, n, d, n_blocks = struct.unpack_from(SAMPLE_HEAD, enc)
    return struct.pack(V4_SAMPLE_HEAD, t0, t1, n, old_id, d, n_blocks) + enc[struct.calcsize(SAMPLE_HEAD) :]


def old_sample(s: stats.SummarySample, old_id: int, weight: float = 1.0) -> bytes:
    """``s`` with the 48-byte sample header of format versions 1 and 2, carrying ``old_id``."""
    enc = container._encode_sample(s)
    t0, t1, n, d, n_blocks = struct.unpack_from(SAMPLE_HEAD, enc)
    return struct.pack(OLD_SAMPLE_HEAD, t0, t1, n, old_id, weight, d, n_blocks) + enc[struct.calcsize(SAMPLE_HEAD) :]


def parent_sample(s: stats.SummarySample, old_id: int) -> bytes:
    """``s`` as an older build wrote it: weight 1.0 plus a family-hint (10) and a notes (11) block."""
    enc = old_sample(s, old_id)
    *head, n_blocks = struct.unpack_from(OLD_SAMPLE_HEAD, enc)
    hint = b"gaussian"
    note = b"dropped hull on merge at [0,8)"
    notes = struct.pack("<QQ", 1, len(note)) + note
    extra = struct.pack("<IQ", 10, len(hint)) + hint + struct.pack("<IQ", 11, len(notes)) + notes
    return struct.pack(OLD_SAMPLE_HEAD, *head, n_blocks + 2) + enc[struct.calcsize(OLD_SAMPLE_HEAD) :] + extra


def old_ids(rec: SummaryRecord) -> dict[int, int]:
    """An id per stored sample, keyed by its start, numbered newest first so that no id is its start."""
    samples = list(rec.samples_in_time_order())
    return {s.t_start: 3 * (len(samples) - i) + 1 for i, s in enumerate(samples)}


def old_container(rec: SummaryRecord, encode, version: int, edit=lambda m: None) -> bytes:
    """``rec`` in format ``version`` (1 to 4), each sample written by ``encode(s, id)``.

    As those versions wrote it, every sample carries an id that the
    manifest's access log keys a counter by, and the manifest holds
    ``format_version`` and the ``counters``.
    """
    ids = old_ids(rec)
    data = struct.pack("<Q", len(rec.levels))
    for level in rec.levels:
        data += struct.pack("<Q", len(level)) + b"".join(encode(s, ids[s.t_start]) for s in level)
    blob = container.write(rec)
    (mlen,) = struct.unpack_from("<Q", blob, 8)
    manifest = json.loads(blob[16 : 16 + mlen - 4])
    log = parent_access_log(rec)
    manifest["access_log"] = {**log, "counts": {str(ids[int(start)]): v for start, v in log["counts"].items()}}
    counters = {"now": rec.now, "next_sid": max(ids.values(), default=0) + 1, "merge_count": rec.merge_count}
    manifest.update(format_version=version, data_len=len(data), data_crc32=zlib.crc32(data), counters=counters)
    edit(manifest)
    raw = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if version == 1:
        head = b"GFS1" + struct.pack("<IQ", 1, len(raw)) + raw
    else:
        head = b"GFS1" + struct.pack("<IQ", version, len(raw) + 4) + raw
        head += struct.pack("<I", zlib.crc32(head))
    return head + struct.pack("<Q", len(data)) + data


def test_reads_version_1_file_with_retired_blocks_and_keys():
    rec = rich_record()

    def parent_format(manifest):
        manifest["statistics"]["family_hint"] = None
        manifest["rules"].update(kl_tau=0.1, access_half_life=16.0, drop_priority=None)

    v1 = old_container(rec, parent_sample, 1, parent_format)

    back = container.read(v1)
    assert back.levels == rec.levels
    assert back.rules == rec.rules and back.opts == rec.opts
    slots = rec.slots()
    notes = [e["note"] for e in back.provenance if e["op"] == "read"]
    assert len(notes) == 3  # one for the manifest keys, one per retired block type
    assert all(
        key in notes[0]
        for key in ("statistics.family_hint", "rules.kl_tau", "rules.access_half_life", "rules.drop_priority")
    )
    assert notes[1] == f"skipped {slots} statistic block(s) of unknown or retired type 10 ({8 * slots} bytes)"
    assert notes[2].startswith(f"skipped {slots} statistic block(s) of unknown or retired type 11 (")
    assert back.event_counts[("read", None, None)] == 3
    rewritten = container.write(back)
    assert struct.unpack_from("<I", rewritten, 4) == (container.FORMAT_VERSION,)
    assert container.read(rewritten) == back


def data_len(blob: bytes) -> int:
    (mlen,) = struct.unpack_from("<Q", blob, 8)
    return struct.unpack_from("<Q", blob, 16 + mlen)[0]


def test_reads_version_2_file_with_unit_weights():
    rec = rich_record()
    v2 = old_container(rec, old_sample, 2)
    back = container.read(v2)
    assert back.levels == rec.levels
    assert back.rules == rec.rules and back.opts == rec.opts
    rewritten = container.write(back)
    assert struct.unpack_from("<I", rewritten, 4) == (container.FORMAT_VERSION,)
    assert data_len(v2) - data_len(rewritten) == 16 * rec.slots()
    assert container.read(rewritten) == back


def test_version_2_file_with_another_weight_is_refused():
    rec = rich_record()
    first = next(rec.samples_in_time_order())
    v2 = old_container(rec, lambda s, old_id: old_sample(s, old_id, 0.5 if s is first else 1.0), 2)
    with pytest.raises(VersionUnsupported, match="weight 0.5"):
        container.read(v2)


def blocks(enc: bytes) -> list[tuple[int, bytes]]:
    """The ``(type, block bytes)`` of one encoded sample, in order."""
    *_, n_blocks = struct.unpack_from(SAMPLE_HEAD, enc)
    pos, out = struct.calcsize(SAMPLE_HEAD), []
    for _ in range(n_blocks):
        btype, length = struct.unpack_from("<IQ", enc, pos)
        out.append((btype, enc[pos : pos + 12 + length]))
        pos += 12 + length
    return out


def v3_sample(s: stats.SummarySample, old_id: int) -> bytes:
    """``s`` byte for byte as format 3 wrote it: its bin edges follow the histogram as a type-8 block."""
    enc = container._encode_sample(s)
    parts = []
    for btype, block in blocks(enc):
        parts.append(block)
        if btype == 7:
            e = s.hist_edges
            parts.append(struct.pack("<IQQ", 8, 8 + 8 * len(e), len(e)) + e.astype("<f8").tobytes())
    t0, t1, n, d, _ = struct.unpack_from(SAMPLE_HEAD, enc)
    return struct.pack(V4_SAMPLE_HEAD, t0, t1, n, old_id, d, len(parts)) + b"".join(parts)


def test_reads_version_3_file_with_per_sample_edges():
    rec = rich_record()
    blob = old_container(rec, v3_sample, 3)
    v3 = container.read(blob)
    assert v3.levels == rec.levels
    assert not any(e["op"] == "read" for e in v3.provenance)  # the edges are read past without a note
    assert_edges_shared(v3)
    rewritten = container.write(v3)
    assert struct.unpack_from("<I", rewritten, 4) == (container.FORMAT_VERSION,) == (5,)
    for s in v3.samples_in_time_order():
        assert 8 not in [btype for btype, _ in blocks(container._encode_sample(s))]
    hists = sum(s.histogram is not None for s in v3.samples_in_time_order())
    assert data_len(blob) - data_len(rewritten) == (20 + 8 * len(rec.opts.histogram_edges)) * hists + 8 * rec.slots()
    assert container.read(rewritten) == v3


def assert_edges_shared(rec: SummaryRecord) -> None:
    """Every histogram sample holds the record's one read-only edges array."""
    edges = rec.opts.edges_array()
    hists = [s for s in rec.samples_in_time_order() if s.histogram is not None]
    assert hists and all(s.hist_edges is edges for s in hists)
    with pytest.raises(ValueError, match="read-only"):
        edges[0] = 0.0


def test_histogram_samples_share_the_statistic_sets_edges():
    opts = stats.StatisticSet(covariance=True, hull=True, histogram_edges=tuple(np.linspace(-2, 2, 6)))
    rows = np.random.default_rng(8).normal(size=(200, 2))
    tuned = SummaryRecord(channels=2, opts=opts, rules=CurationRules(budget_slots=8, nonstationarity_w=1.0))
    planned = SummaryRecord(channels=2, opts=opts, rules=CurationRules(budget_slots=8))
    compacted = SummaryRecord(channels=2, opts=opts, rules=CurationRules(budget_slots=8))
    tuned.ingest_block(rows)  # row by row
    planned.ingest_block(rows)
    compacted.ingest_block(rows)
    compacted.rules.budget_slots = 4
    compact(compacted)  # merges
    compacted.rules.max_scalars = compacted.scalar_footprint() - 1
    compact(compacted)  # drops
    assert any(op == "drop_statistic" for op, _, _ in compacted.event_counts)
    for rec in (tuned, planned, compacted):
        assert_edges_shared(rec)
        back = container.read(container.write(rec))
        assert back == rec
        assert_edges_shared(back)


@pytest.mark.parametrize("counter", ["now", "merge_count"])
def test_version_4_counters_must_agree_with_what_the_record_derives(counter):
    rec = rich_record()
    assert container.read(old_container(rec, v4_sample, 4)) == rec

    def disagree(manifest):
        manifest["counters"][counter] += 1

    with pytest.raises(InvariantViolation, match="disagree"):
        container.read(old_container(rec, v4_sample, 4, disagree))


DATA = Path(__file__).resolve().parent / "data"


def generator(name: str):
    """The seeded store generator ``tests/data/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, DATA / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FORMAT4 = generator("make_format4_stores")


def stored_stacks(blob: bytes) -> list[np.ndarray | None]:
    """The SWV stack of every sample of ``blob`` in level order, as stored, before ``read`` folds it."""
    (version,) = struct.unpack_from("<I", blob, 4)
    (mlen,) = struct.unpack_from("<Q", blob, 8)
    manifest = json.loads(blob[16 : 16 + mlen - 4])
    edges = np.asarray(manifest["statistics"]["histogram_edges"] or (0.0, 1.0))  # unread without a histogram
    data = memoryview(blob)[16 + mlen + 8 :]
    (n_levels,), offset, stacks = struct.unpack_from("<Q", data), 8, []
    for _ in range(n_levels):
        (count,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        for _ in range(count):
            s, offset = container._decode_sample(data, offset, {}, version, manifest["channels"], edges)
            stacks.append(s.swv)
    return stacks


def assert_folded(back: SummaryRecord, blob: bytes) -> tuple[int, int]:
    """Each SWV stack of ``back`` is the stored one of ``blob`` with the terms past ⌈log2 n⌉ - 1 summed into that
    one; returns the number of samples folded and of terms folded away."""
    samples = [s for level in back.levels for s in level]
    folded = removed = 0
    for s, stack in zip(samples, stored_stacks(blob), strict=True):
        top = spectrum.depth(s.n)
        assert s.swv.shape == (top, back.channels) and stack.shape[0] >= top
        assert np.array_equal(s.swv[: top - 1], stack[: top - 1])
        assert np.allclose(s.swv.sum(axis=0), stack.sum(axis=0), rtol=BLOCK_RTOL, atol=0.0)
        folded += stack.shape[0] > top
        removed += stack.shape[0] - top
    return folded, removed


@pytest.mark.parametrize("name", sorted(FORMAT4.STORES))
def test_format_4_store_of_the_parent_build_loads_equal_to_the_same_stream_now(name):
    blob = (DATA / name).read_bytes()
    assert struct.unpack_from("<I", blob, 4) == (4,)
    back = container.read(blob)
    want = FORMAT4.STORES[name]()
    served = {key for key in want.event_counts if key[0] == "access"}
    assert bool(served) == (name == "accessed.gfs")
    for key in served:  # format 4 kept usage in an access log, which is not read
        del want.event_counts[key]
    notes = [e["note"] for e in back.provenance if e["op"] == "read"]  # their zero retired weights leave none
    removed = 0
    if back.opts.swv:  # that build appended an SWV term per merge; the stacks load folded, the sums kept
        folded, removed = assert_folded(back, blob)
        assert folded and notes == [f"folded {folded} SWV stack(s) to ⌈log2 n⌉ terms"]
        want.note(("read", None, None), {"op": "read", "note": notes[0]})
        for s, w in zip(back.samples_in_time_order(), want.samples_in_time_order()):
            assert np.allclose(s.swv.sum(axis=0), w.swv.sum(axis=0), rtol=BLOCK_RTOL, atol=0.0)
            w.swv = s.swv
    else:
        assert not notes
    assert back == want
    rewritten = container.write(back)
    assert data_len(blob) - data_len(rewritten) == 8 * back.slots() + 8 * back.channels * removed
    assert container.read(rewritten) == back
    back.ingest_block(np.random.default_rng(7).normal(size=(100, back.channels)))
    back.validate()


FORMAT5 = generator("make_format5_stores")


@pytest.mark.parametrize("name", sorted(FORMAT5.STORES))
def test_format_5_store_of_the_dict_histogram_build_is_written_back_byte_for_byte(name):
    blob = (DATA / name).read_bytes()
    assert struct.unpack_from("<I", blob, 4) == (5,)
    back = container.read(blob)
    assert container.write(back) == blob
    assert back == FORMAT5.STORES[name]()
    hists = [s.histogram for s in back.samples_in_time_order()]
    assert any(h is not None and h[stats.OUTLIER_BIN] for h in hists)
    assert (None in hists) == (name == "golden-d2.gfs")  # compaction dropped a histogram there


def test_deep_swv_stacks_of_an_older_build_load_folded_into_their_top_scale():
    blob = (DATA / FORMAT5.DEEP_SWV).read_bytes()
    assert struct.unpack_from("<I", blob, 4) == (5,)
    assert max(stack.shape[0] for stack in stored_stacks(blob)) > 400
    back = container.read(blob)
    folded, removed = assert_folded(back, blob)
    notes = [e["note"] for e in back.provenance if e["op"] == "read"]
    assert folded and notes == [f"folded {folded} SWV stack(s) to ⌈log2 n⌉ terms"]
    want = FORMAT5.deep_swv_record()  # the same stream now, planned, with scale-indexed stacks
    for s, w in zip(back.samples_in_time_order(), want.samples_in_time_order(), strict=True):
        assert np.allclose(s.swv.sum(axis=0), s.variance, rtol=BLOCK_RTOL, atol=0.0)
        assert_same_sample(s, dataclasses.replace(w, swv=s.swv), scale=0.0)
    back.validate()
    back.ingest_block(np.random.default_rng(8).normal(size=100))
    back.validate()
    assert data_len(container.write(back)) < data_len(blob) / 4


FIRST_SAMPLE = 16  # data offset of the first sample: after the level count and level 0's sample count


def repack_data(blob: bytes, edit) -> bytes:
    """Rewrite the data section with ``edit(bytearray)``, then re-seal the manifest's data CRC-32 and its own."""
    (mlen,) = struct.unpack_from("<Q", blob, 8)
    data = bytes(edit(bytearray(blob[16 + mlen + 8 :])))

    def reseal(manifest):
        manifest.update(data_len=len(data), data_crc32=zlib.crc32(data))

    return repack_manifest(blob[: 16 + mlen] + struct.pack("<Q", len(data)) + data, reseal)


def two_row_blob(opts=stats.StatisticSet()) -> bytes:
    rec = SummaryRecord(budget=8, opts=opts)
    rec.ingest_block([0.5, 7.0])
    return container.write(rec)


def test_a_sample_without_a_mean_block_does_not_load():
    def drop_first_mean(data):
        at = FIRST_SAMPLE + struct.calcsize(SAMPLE_HEAD)
        assert struct.unpack_from("<IQ", data, at) == (1, 8)  # the mean block of [0, 1)
        (n_blocks,) = struct.unpack_from("<I", data, at - 4)
        struct.pack_into("<I", data, at - 4, n_blocks - 1)
        del data[at : at + 20]
        return data

    with pytest.raises(CorruptContainer, match=r"sample \[0,1\) has no mean block"):
        container.read(repack_data(two_row_blob(), drop_first_mean))


@pytest.mark.parametrize("d", [2, 1 << 20])
def test_a_sample_header_with_another_channel_count_does_not_load(d):
    def recount(data):
        struct.pack_into("<I", data, FIRST_SAMPLE + 24, d)
        return data

    with pytest.raises(InvariantViolation, match=rf"sample \[0,1\): n = 1 in {d} channels; record has 1"):
        container.read(repack_data(two_row_blob(), recount))


def test_a_histogram_block_that_repeats_a_key_does_not_load():
    blob = two_row_blob(stats.StatisticSet(histogram_edges=(0.0, 1.0, 2.0)))
    once = struct.pack("<IQQqQ", 7, 24, 1, 0, 1)  # the histogram of [0, 1): bin 0 counts its row
    assert container.read(blob).levels[0][0].histogram == (1, 0, 0)

    def repeat(data):
        return data.replace(once, struct.pack("<IQQqQqQ", 7, 40, 2, 0, 1, 0, 1), 1)

    with pytest.raises(CorruptContainer, match=r"sample \[0,1\): histogram block of 2 pairs"):
        container.read(repack_data(blob, repeat))
