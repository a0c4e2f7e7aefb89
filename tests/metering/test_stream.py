"""Unit tests for the streaming metering pipeline."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metering.analysis import trimmed_stats
from repro.metering.stream import (
    StreamingFeatures,
    StreamingTrim,
    StreamingWindow,
    WindowSpec,
)


class TestStreamingTrim:
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 10, 11, 100, 257])
    @pytest.mark.parametrize("trim", [0.0, 0.1, 0.25, 0.49])
    def test_bit_identical_to_batch(self, n, trim):
        rng = np.random.default_rng(n)
        values = rng.uniform(50, 400, n)
        acc = StreamingTrim(trim=trim)
        acc.push_many(values)
        assert acc.finalize() == trimmed_stats(values, trim)

    def test_ddof_threads_through(self):
        values = np.arange(20.0)
        acc = StreamingTrim(trim=0.1, ddof=1)
        acc.push_many(values)
        assert acc.finalize() == trimmed_stats(values, 0.1, ddof=1)

    def test_empty_raises_like_batch(self):
        with pytest.raises(ConfigurationError):
            StreamingTrim().finalize()

    def test_invalid_trim(self):
        with pytest.raises(ConfigurationError):
            StreamingTrim(trim=0.5)
        with pytest.raises(ConfigurationError):
            StreamingTrim(trim=-0.01)


class TestStreamingWindow:
    def test_routes_like_extract_window(self):
        times = np.arange(10.0)
        watts = np.arange(10.0) * 10.0
        pipeline = StreamingWindow(trim=0.0)
        pipeline.add_window(WindowSpec("a", 0.0, 5.0))
        pipeline.add_window(WindowSpec("b", 5.0, 10.0))
        pipeline.push_many(times, watts)
        results = pipeline.finalize()
        assert [r.spec.label for r in results] == ["a", "b"]
        assert results[0].stats.n_total == 5
        assert results[0].stats.mean == pytest.approx(20.0)
        assert results[1].stats.mean == pytest.approx(70.0)

    def test_edge_snapping_matches_batch(self):
        # A start-edge sample drifted a hair below the edge must still
        # land in the window; an end-edge one must stay out.
        times = np.array([5.0 - 1e-12, 6.0, 7.0, 10.0 - 1e-12])
        watts = np.array([1.0, 2.0, 3.0, 4.0])
        pipeline = StreamingWindow(trim=0.0)
        pipeline.add_window(WindowSpec("w", 5.0, 10.0))
        pipeline.push_many(times, watts)
        (result,) = pipeline.finalize()
        assert result.stats.n_total == 3
        assert result.stats.mean == pytest.approx(2.0)

    def test_eager_finalization_and_callback(self):
        pipeline = StreamingWindow(trim=0.0)
        pipeline.add_window(WindowSpec("a", 0.0, 3.0))
        pipeline.add_window(WindowSpec("b", 3.0, 6.0))
        pipeline.push_many([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        # The watermark has not passed the end yet.
        assert pipeline.results == []
        assert pipeline.n_open == 2
        pipeline.push(3.1, 2.0)
        assert [r.spec.label for r in pipeline.results] == ["a"]
        assert pipeline.n_open == 1
        pipeline.finalize()
        assert [r.spec.label for r in pipeline.results] == ["a", "b"]
        assert pipeline.n_open == 0

    def test_nan_timestamp_does_not_stall_the_watermark(self):
        pipeline = StreamingWindow(trim=0.0)
        pipeline.add_window(WindowSpec("a", 0.0, 2.0))
        pipeline.add_window(WindowSpec("b", 2.0, 4.0))
        pipeline.add_window(WindowSpec("c", 4.0, 6.0))
        pipeline.push_many([0.0, 1.0, np.nan, 2.0, 3.0], np.ones(5))
        assert [r.spec.label for r in pipeline.results] == ["a"]
        pipeline.push_many([4.0, np.nan, 7.0], [2.0, 9.0, 2.0])
        # The NaN sample is in no window and the later windows still
        # close as the watermark passes them.
        assert [r.spec.label for r in pipeline.results] == ["a", "b", "c"]
        assert [r.stats.n_total for r in pipeline.results] == [2, 2, 1]
        assert pipeline.late_samples == 0

    def test_late_samples_counted_not_fatal(self):
        pipeline = StreamingWindow(trim=0.0)
        pipeline.add_window(WindowSpec("a", 0.0, 2.0))
        pipeline.push_many([0.0, 1.0, 5.0], [1.0, 1.0, 1.0])
        assert pipeline.n_open == 0  # watermark closed the window
        pipeline.push(0.5, 9.0)  # arrives after its window finalised
        assert pipeline.late_samples == 1
        (result,) = pipeline.finalize()
        assert result.stats.n_total == 2

    def test_windows_must_start_in_order(self):
        pipeline = StreamingWindow()
        pipeline.add_window(WindowSpec("a", 10.0, 20.0))
        with pytest.raises(ConfigurationError):
            pipeline.add_window(WindowSpec("b", 5.0, 8.0))

    def test_empty_window_raises_on_finalize(self):
        pipeline = StreamingWindow()
        pipeline.add_window(WindowSpec("a", 0.0, 5.0))
        with pytest.raises(ConfigurationError):
            pipeline.finalize()

    def test_overlapping_windows_both_receive(self):
        pipeline = StreamingWindow(trim=0.0)
        pipeline.add_window(WindowSpec("a", 0.0, 4.0))
        pipeline.add_window(WindowSpec("b", 2.0, 6.0))
        pipeline.push_many(np.arange(6.0), np.ones(6))
        a, b = pipeline.finalize()
        assert a.stats.n_total == 4
        assert b.stats.n_total == 4

    def test_stats_by_label(self):
        pipeline = StreamingWindow(trim=0.0)
        pipeline.add_window(WindowSpec("a", 0.0, 2.0))
        pipeline.push_many([0.0, 1.0], [3.0, 5.0])
        (result,) = pipeline.finalize()
        assert result.spec.label == "a"
        assert result.stats.mean == pytest.approx(4.0)


class TestStreamingFeatures:
    def test_pairs_like_hpcc_inner_loop(self):
        rng = np.random.default_rng(3)
        watts = rng.uniform(100, 300, 47)  # 4 full intervals + partial
        pmu = [rng.uniform(0, 1, 6) for _ in range(5)]
        acc = StreamingFeatures(interval=10)
        acc.push_pmu_many(pmu)
        acc.push_power_many(watts)
        features, power = acc.finalize()
        assert features.shape == (5, 6)
        for k in range(5):
            window = watts[k * 10 : (k + 1) * 10]
            assert power[k] == float(window.mean())
            np.testing.assert_array_equal(features[k], pmu[k])

    def test_surplus_pmu_rows_skipped(self):
        acc = StreamingFeatures(interval=10)
        acc.push_pmu_many([np.ones(6), np.ones(6) * 2.0])
        acc.push_power_many(np.full(10, 5.0))  # one interval only
        features, power = acc.finalize()
        assert features.shape == (1, 6)
        assert power.tolist() == [5.0]

    def test_pmu_mean_matches_vstack(self):
        rows = [np.arange(6.0), np.arange(6.0) * 3.0]
        acc = StreamingFeatures()
        acc.push_pmu_many(rows)
        np.testing.assert_array_equal(
            acc.pmu_mean(), np.vstack(rows).mean(axis=0)
        )

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            StreamingFeatures().finalize()
        with pytest.raises(ConfigurationError):
            StreamingFeatures().pmu_mean()
        with pytest.raises(ConfigurationError):
            StreamingFeatures(interval=0)
