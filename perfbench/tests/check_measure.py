"""The percentile rule: a percentile is only reported with ten samples beyond it.

    python -m pytest perfbench/tests/check_*.py
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pytest  # noqa: E402

import measure  # noqa: E402


def test_samples_needed():
    assert measure.samples_needed(500) == 20
    assert measure.samples_needed(900) == 100
    assert measure.samples_needed(990) == 1000
    assert measure.samples_needed(999) == 10000


def test_percentile_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    p90 = measure.percentile(values, 900)
    assert p90 == 90
    assert sum(v > p90 for v in values) == 10
    values = list(range(1, 1001))
    assert sum(v > measure.percentile(values, 990) for v in values) == 10


def test_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        measure.percentile(list(range(99)), 900)


def test_failed_operations_miss_every_limit():
    values = [1.0] * 89 + [math.inf] * 11
    assert measure.percentile(values, 900) == math.inf
