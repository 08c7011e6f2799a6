"""Exact order-statistic percentiles: no interpolation, ever."""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.serving import latency_summary
from repro.serving.metrics import _rank

from tests.serving.oracle import exact_percentile


class TestExactPercentile:
    def test_p50_of_even_count_is_a_sample_not_a_midpoint(self):
        # np.quantile's default says 2.5 here; nearest-rank says 2.
        assert latency_summary([1, 2, 3, 4])["p50"] == 2

    def test_p100_is_max(self):
        assert _rank(100, 4) == 3
        assert latency_summary([7, 3, 9, 1])["max"] == 9

    def test_p99_of_1_to_100(self):
        assert latency_summary(range(1, 101))["p99"] == 99

    def test_single_sample(self):
        for pct in (1, 50, 99, 100):
            assert _rank(pct, 1) == 0
        summary = latency_summary([42])
        assert summary["p50"] == summary["p90"] == summary["p99"] == 42

    def test_unsorted_input(self):
        assert latency_summary([9, 1, 5])["p50"] == 5

    def test_rank_is_exact_at_boundaries(self):
        # ceil(pct/100 * n) in rational arithmetic: 25% of 4 is rank 1
        # exactly, whatever the float product 0.25 * 4 would round to.
        assert [_rank(pct, 4) for pct in (25, 50, 75, 100)] == [0, 1, 2, 3]
        assert _rank(90, 10) == 8
        assert _rank(99, 100) == 98

    def test_result_is_always_an_observed_sample(self):
        rng = np.random.default_rng(0)
        values = [int(v) for v in rng.integers(0, 10 ** 9, size=257)]
        for pct in (1, 25, 50, 90, 99, 99.9, 100):
            assert 0 <= _rank(pct, len(values)) < len(values)
        summary = latency_summary(values)
        for key in ("p50", "p90", "p99", "max"):
            assert summary[key] in set(values)

    @pytest.mark.parametrize("pct", [0, -1, 100.1, 200])
    def test_out_of_range_pct_raises(self, pct):
        with pytest.raises(SchedulingError, match="percentile"):
            _rank(pct, 2)


class TestLatencySummary:
    def test_pinned_on_fixed_seed(self):
        # Regression pin for the exact-order-statistic contract: 1000
        # seeded integer latencies must summarize to these exact values
        # on every platform and run.
        rng = np.random.default_rng(2024)
        values = [int(v) for v in rng.integers(1, 10 ** 7, size=1000)]
        assert latency_summary(values) == {
            "count": 1000,
            "p50": exact_percentile(values, 50),
            "p90": exact_percentile(values, 90),
            "p99": exact_percentile(values, 99),
            "max": max(values),
            "mean": sum(values) // 1000,
        }
        # and the order statistics themselves are pinned:
        assert latency_summary(values)["p50"] == sorted(values)[499]
        assert latency_summary(values)["p99"] == sorted(values)[989]

    def test_empty_is_all_zero(self):
        assert latency_summary([]) == {
            "count": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0, "mean": 0}

    def test_mean_is_floored_integer(self):
        summary = latency_summary([1, 2])
        assert summary["mean"] == 1
        assert isinstance(summary["mean"], int)
