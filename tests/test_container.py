import json
import os
import struct

import numpy as np
import pytest

from gfstore import container, stats
from gfstore.curation import CurationRules
from gfstore.errors import CorruptContainer, StoreError
from gfstore.record import PROVENANCE_RING, SummaryRecord

RICH = stats.StatisticSet(
    covariance=True, hull=True, histogram_edges=tuple(np.linspace(-3, 3, 9)), swv=True
)


def rich_record():
    """d = 2 with every optional statistic, KL-tuned merges, 5x budget rows."""
    rules = CurationRules(budget_slots=16, nonstationarity_w=1.0)
    rec = SummaryRecord(channels=2, opts=RICH, rules=rules)
    rec.ingest_block(np.random.default_rng(3).normal(size=(80, 2)))
    return rec


def repack_manifest(blob: bytes, edit) -> bytes:
    """Rewrite the JSON manifest in place; the CRC covers only the data section."""
    (mlen,) = struct.unpack_from("<Q", blob, 8)
    manifest = json.loads(blob[16 : 16 + mlen])
    edit(manifest)
    raw = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + mlen :]


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


MALFORMED = {
    "missing-key": lambda m: m.pop("counters"),
    "labels-not-a-list": lambda m: m.update(labels=7),
    "short-counts-row": lambda m: m.update(event_counts=[["rescale", 0]]),
    "non-numeric-sid": lambda m: m.update(access_log={"counts": {"x": [0.0, 0]}}),
    "infinite-tick": lambda m: m.update(access_log={"counts": {"1": [0.0, float("inf")]}}),
    "statistics-not-an-object": lambda m: m.update(statistics=[1]),
    "edges-not-a-list": lambda m: m["statistics"].update(histogram_edges=3),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_manifest_raises_corrupt_container(edit):
    with pytest.raises(CorruptContainer):
        container.read(repack_manifest(small_blob(), edit))


def test_non_utf8_manifest_raises_corrupt_container():
    blob = bytearray(small_blob())
    blob[17] = 0xFF
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
