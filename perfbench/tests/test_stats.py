"""Timing records, host-speed scaling and the tail sample-count rule."""

import numpy as np
import pytest

from perfbench import stats
from perfbench.common import REF_CHUNK_S, HostSpeed, Result, record_timing


def _host(*samples):
    host = HostSpeed()
    host.ends = [end for end, _ in samples]
    host.chunks = [chunk for _, chunk in samples]
    return host


def test_record_timing_stores_the_percentile_in_ms_with_its_sample_count_and_tail():
    durations = list(np.random.default_rng(3).random(120))
    spans = [(100.0 + k, 100.0 + k + d) for k, d in enumerate(durations)]
    res = Result()
    record_timing(res, "latency_p50_ms", spans, 50, _host((0.0, REF_CHUNK_S)))
    assert res.metrics["latency_p50_ms"] == pytest.approx(float(np.percentile(durations, 50)) * 1e3)
    assert res.samples["latency_p50_ms"] == 120
    # 120 samples: 12 lie beyond p90, 6 beyond p95.
    assert res.tails["latency_p50_ms"] == (90.0, pytest.approx(float(np.percentile(durations, 90)) * 1e3))
    assert not res.errors


def test_record_timing_reports_no_tail_for_too_few_samples():
    res = Result()
    record_timing(res, "latency_p50_ms", [(k, k + 0.5) for k in range(39)], 50, _host((0.0, REF_CHUNK_S)))
    assert res.samples["latency_p50_ms"] == 39
    assert "latency_p50_ms" not in res.tails


def test_record_timing_without_samples_is_a_failed_check():
    res = Result()
    record_timing(res, "cold_p50_ms", [], 50, _host((0.0, REF_CHUNK_S)))
    assert "cold_p50_ms" not in res.metrics
    assert res.errors == ["cold_p50_ms: no samples"]


@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, None), (0, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_host_speed_scales_by_the_samples_that_bracket_an_operation():
    host = _host((10.0, 2 * REF_CHUNK_S), (20.0, REF_CHUNK_S / 2), (30.0, REF_CHUNK_S), (40.0, REF_CHUNK_S))
    assert host.scale_over(11.0, 19.0) == pytest.approx(1 / 1.25)  # before and after: mean of 2 and 1/2
    assert host.scale_over(5.0, 8.0) == 0.5  # nothing before: the first after only
    assert host.scale_over(21.0, 39.0) == 1.0  # median of the samples at 20, 30 and 40
    assert host.scale_over(41.0, 45.0) == 1.0  # nothing after: the last before only
    assert host.scale() == 1.0  # the median sample


def test_record_timing_keeps_the_unscaled_percentile_beside_the_scaled_one():
    res = Result()
    host = _host((0.0, 2 * REF_CHUNK_S), (10.0, 2 * REF_CHUNK_S))
    record_timing(res, "latency_p50_ms", [(1.0, 1.002), (2.0, 2.004), (3.0, 3.006)], 50, host)
    assert res.metrics["latency_p50_ms"] == pytest.approx(2.0)
    assert res.raw["latency_p50_ms"] == pytest.approx(4.0)
