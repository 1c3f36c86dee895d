import math

import pytest

from measure import GateFailure, compare_oracle, percentile, samples_beyond


def test_p90_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    value, n = percentile(samples, 0.9)
    assert (value, n) == (90.0, 100)
    assert samples_beyond(100, 0.9) == 10
    with pytest.raises(GateFailure):
        percentile(samples[:99], 0.9)


def test_p99_needs_a_thousand_samples():
    assert samples_beyond(1000, 0.99) == 10
    percentile([1.0] * 1000, 0.99)
    with pytest.raises(GateFailure):
        percentile([1.0] * 999, 0.99)


def test_median_is_exempt_from_the_tail_rule():
    assert percentile([3.0, 1.0, 2.0], 0.5) == (2.0, 3)


def test_failed_ops_count_as_missing_every_limit():
    samples = [1.0] * 90
    value, n = percentile(samples, 0.9, failed=15)
    assert n == 105
    assert value == math.inf
    assert percentile(samples, 0.5, failed=15) == (1.0, 105)


def test_oracle_compares_padded_records_and_deletions():
    oracle = {1: b"ab", 2: None, 3: b"c"}
    assert compare_oracle({1: b"ab\x00\x00", 3: b"c\x00"}, oracle) == []
    assert compare_oracle({1: b"ab\x00\x01", 3: b"c"}, oracle)
    assert compare_oracle({1: b"ab", 2: b"x", 3: b"c"}, oracle)
    assert compare_oracle({1: b"ab"}, oracle)


def test_a_segment_is_scaled_once_and_failures_stay_infinite():
    from workloads import READ, WRITE, Phase

    phase = Phase()
    phase.record(READ, 1.0)
    phase.scale(0, 2.0, 10.0)
    phase.record(WRITE, 1.0)
    phase.fail("refused")
    phase.scale(1, 0.5, 4.0)
    assert phase.samples(READ) == [2.0]
    assert phase.samples(WRITE) == [0.5]
    assert phase.failed == 1 and math.isinf(phase.ops[-1][1])
    assert (phase.wall_s, phase.host_s) == (22.0, 14.0)
