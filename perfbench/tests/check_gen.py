"""The generator gives the same inputs for the same seed.

    python -m pytest perfbench/tests/check_*.py
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np  # noqa: E402

import gen  # noqa: E402


def take(it, n=200):
    return list(itertools.islice(it, n))


def test_regime_stream_is_deterministic():
    a = gen.regime_stream(gen.rng_for(7, 0), 5000, 2)
    b = gen.regime_stream(gen.rng_for(7, 0), 5000, 2)
    c = gen.regime_stream(gen.rng_for(8, 0), 5000, 2)
    assert a.shape == (5000, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_request_mixes_are_deterministic():
    data = gen.regime_stream(gen.rng_for(3, 0), 3000, 1)
    for seed in (3, 4):
        assert take(gen.interval_requests(gen.rng_for(seed, 1), 3000)) == take(
            gen.interval_requests(gen.rng_for(seed, 1), 3000)
        )
        assert take(gen.member_requests(gen.rng_for(seed, 1), data)) == take(
            gen.member_requests(gen.rng_for(seed, 1), data)
        )
        stores = ["a", "b", "c"]
        assert take(gen.compare_requests(gen.rng_for(seed, 1), stores)) == take(
            gen.compare_requests(gen.rng_for(seed, 1), stores)
        )
    assert take(gen.interval_requests(gen.rng_for(3, 1), 3000)) != take(
        gen.interval_requests(gen.rng_for(4, 1), 3000)
    )


def test_interval_requests_stay_inside_the_stream():
    for req in take(gen.interval_requests(gen.rng_for(1, 1), 500), 2000):
        assert 0 <= req["t0"] < req["t1"] <= 500


def test_member_requests_mix_present_and_absent_values():
    data = gen.regime_stream(gen.rng_for(2, 0), 2000, 1)
    reqs = take(gen.member_requests(gen.rng_for(2, 1), data), 2000)
    present = [r for r, p in reqs if p]
    absent = [r for r, p in reqs if not p]
    assert abs(len(present) / len(reqs) - gen.PRESENT_SHARE) < 0.05
    values = set(data[:, 0].tolist())
    assert all(r["value"][0] in values for r in present)
    assert all(not data.min() <= r["value"][0] <= data.max() for r in absent)


def test_csv_round_trips_exactly():
    block = gen.regime_stream(gen.rng_for(5, 0), 300, 2)
    parsed = np.array([[float(tok) for tok in line.split(",")] for line in gen.csv_text(block).splitlines()])
    assert np.array_equal(parsed, block)
