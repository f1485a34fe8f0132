import json
import struct

import numpy as np

from gfstore import container, stats
from gfstore.curation import CurationRules
from gfstore.record import SummaryRecord

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
    assert back.provenance[:-1] == rec.provenance
