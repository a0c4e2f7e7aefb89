"""Differential suite: streaming metering is bit-identical to batch.

Every test here compares the stream accumulators' finalised numbers
against the batch functions, their reference, with ``==`` on raw
float64 values — no tolerances.  Seeds cover clean grids, repaired
traces and degenerate/fallback windows.  Whole campaigns are pinned by
SHA-256 over their measurements and ``merged.csv`` bytes; print the
current campaign digests with ``PYTHONPATH=src python
tests/metering/test_stream_differential.py``.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.regression import collect_npb_features
from repro.engine.experiment import Campaign
from repro.engine.simulator import PMU_INTERVAL_S, Simulator
from repro.hardware import XEON_E5462
from repro.metering.analysis import (
    DEFAULT_TRIM,
    extract_window,
    repair_trace,
    trimmed_stats,
)
from repro.metering.csvlog import read_power_csv
from repro.metering.stream import (
    StreamingFeatures,
    StreamingTrim,
    StreamingWindow,
    WindowSpec,
)
from repro.workloads.npb import NpbWorkload

SEEDS = [7, 42, 2015]


def _chunks(array, sizes):
    """Split an array into chunks of the (cycled) given sizes."""
    out = []
    i = 0
    k = 0
    while i < len(array):
        size = sizes[k % len(sizes)]
        out.append(array[i : i + size])
        i += size
        k += 1
    return out


class TestTrimDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("trim", [0.0, 0.1, DEFAULT_TRIM])
    def test_simulator_traces(self, e5462, seed, trim):
        run = Simulator(e5462, seed=seed).run(NpbWorkload("ep", "C", 4))
        acc = StreamingTrim(trim=trim)
        acc.push_many(run.measured_watts)
        assert acc.finalize() == trimmed_stats(run.measured_watts, trim)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_any_chunking(self, seed):
        rng = np.random.default_rng(seed)
        watts = rng.uniform(80, 400, 523)
        whole = StreamingTrim()
        whole.push_many(watts)
        chunked = StreamingTrim()
        for chunk in _chunks(watts, [1, 7, 64, 3]):
            chunked.push_many(chunk)
        batch = trimmed_stats(watts, DEFAULT_TRIM)
        assert whole.finalize() == batch
        assert chunked.finalize() == batch

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_degenerate_windows(self, n):
        # n=1 is the batch fallback (middle sample, flagged); tiny n
        # exercises the cut==0 edge.
        watts = np.linspace(100.0, 110.0, n)
        acc = StreamingTrim(DEFAULT_TRIM)
        acc.push_many(watts)
        batch = trimmed_stats(watts, DEFAULT_TRIM)
        streamed = acc.finalize()
        assert streamed == batch
        assert streamed.fallback == batch.fallback

    @pytest.mark.parametrize("seed", SEEDS)
    def test_repaired_traces(self, seed):
        # Repair is a whole-trace pass; what streaming must match is the
        # summary of the repaired samples.
        rng = np.random.default_rng(seed)
        times = np.arange(300.0)
        watts = 250.0 + 12.0 * rng.standard_normal(300)
        watts[50] = 4000.0  # glitch
        keep = np.ones(300, dtype=bool)
        keep[120:125] = False  # dropout
        repaired = repair_trace(times[keep], watts[keep], sample_hz=1.0)
        acc = StreamingTrim(DEFAULT_TRIM)
        acc.push_many(repaired.watts)
        assert acc.finalize() == trimmed_stats(repaired.watts, DEFAULT_TRIM)


class TestWindowDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_campaign_trace_windows(self, e5462, seed, tmp_path):
        campaign = Campaign(Simulator(e5462, seed=seed), gap_s=10.0)
        result = campaign.run(
            [NpbWorkload("ep", "C", 2), NpbWorkload("ft", "C", 4)],
            csv_dir=tmp_path,
        )
        times, watts = read_power_csv(tmp_path / "merged.csv")
        times = times - campaign.clock_offset_s

        pipeline = StreamingWindow(trim=campaign.trim)
        for run in result.runs:
            pipeline.add_window(
                WindowSpec(run.demand.program, run.t_start_s, run.t_end_s)
            )
        # Push in deliberately awkward chunks.
        for idx in _chunks(np.arange(times.size), [13, 1, 97]):
            pipeline.push_many(times[idx], watts[idx])

        for run, window in zip(result.runs, pipeline.finalize()):
            batch = trimmed_stats(
                extract_window(times, watts, run.t_start_s, run.t_end_s),
                campaign.trim,
            )
            assert window.stats == batch

    def test_short_window_fallback_matches(self):
        # A 1 s program window: batch falls back to the middle sample.
        times = np.arange(5.0)
        watts = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        pipeline = StreamingWindow(trim=DEFAULT_TRIM)
        pipeline.add_window(WindowSpec("tiny", 2.0, 3.0))
        pipeline.push_many(times, watts)
        (result,) = pipeline.finalize()
        batch = trimmed_stats(
            extract_window(times, watts, 2.0, 3.0), DEFAULT_TRIM
        )
        assert result.stats == batch
        assert result.stats.fallback


#: ``case id -> SHA-256`` over a campaign's measurements and the bytes
#: of its ``merged.csv``, generated while the campaign still had a
#: second (streamed) analysis path that matched the batch one.
CAMPAIGN_PINS = {
    "seed/7": (
        "ebdfff78ac171c2205a1658bbad32fab08658935f83bee5275576ba0c833c391"
    ),
    "seed/42": (
        "54bcdcef9c99a059cf0b75acfca558d6d190a322867e4293c865cc08ced60df2"
    ),
    "seed/2015": (
        "009459dafe40eb854429ae33585bb7ef8bfc2784c682c691f999c6d243d096b0"
    ),
    "clock_offset/11": (
        "cff39f819ff15c5ec42287d5ecfde60a401b685084c6fd536d52bfbbe38ec200"
    ),
    "ci/2015": (
        "2729b3b6a9be9e4c763fbfcdf9f816e73f44f72afc2c7945c31c32f6e2e5276e"
    ),
}

PIN_WORKLOADS = (
    NpbWorkload("ep", "C", 1),
    NpbWorkload("ft", "C", 2),
    NpbWorkload("ep", "C", 4),
)


def campaign_cases() -> dict:
    """``case id -> (seed, Campaign keyword arguments, workloads)``."""
    cases = {
        f"seed/{seed}": (seed, {}, PIN_WORKLOADS) for seed in SEEDS
    }
    cases["clock_offset/11"] = (
        11, {"clock_offset_s": 1.7}, (NpbWorkload("ep", "C", 4),)
    )
    cases["ci/2015"] = (
        2015, {}, tuple(NpbWorkload("ep", "C", n) for n in (1, 2, 4))
    )
    return cases


def campaign_digest(case, csv_dir) -> str:
    """SHA-256 over one case's raw measurement floats and merged CSV."""
    seed, kwargs, workloads = campaign_cases()[case]
    result = Campaign(Simulator(XEON_E5462, seed=seed), **kwargs).run(
        list(workloads), csv_dir=csv_dir
    )
    h = hashlib.sha256()
    for m in result.measurements:
        h.update(f"{m.label}\n".encode())
        fields = (m.gflops, m.average_watts, m.average_memory_mb, m.duration_s)
        h.update(np.asarray(fields, dtype="<f8").tobytes())
    h.update((Path(csv_dir) / "merged.csv").read_bytes())
    return h.hexdigest()


class TestCampaignPins:
    @pytest.mark.parametrize("case", sorted(campaign_cases()))
    def test_campaign_matches_pin(self, case, tmp_path):
        assert campaign_digest(case, tmp_path) == CAMPAIGN_PINS[case]


class TestFeatureDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_hpcc_pairing(self, e5462, seed):
        from repro.workloads.hpcc import HpccWorkload

        run = Simulator(e5462, seed=seed).run(HpccWorkload("hpl", 4))
        acc = StreamingFeatures(interval=int(PMU_INTERVAL_S))
        acc.push_pmu_many(run.pmu_samples)
        acc.push_power_many(run.measured_watts)
        features, power = acc.finalize()

        # The historical inner loop, materialised.
        rows = []
        means = []
        interval = int(PMU_INTERVAL_S)
        for k, pmu in enumerate(run.pmu_samples):
            window = run.measured_watts[k * interval : (k + 1) * interval]
            if window.size == 0:
                continue
            rows.append(pmu.as_vector())
            means.append(float(window.mean()))
        np.testing.assert_array_equal(features, np.vstack(rows))
        assert power.tolist() == means

    def test_npb_feature_rows(self, e5462):
        run = Simulator(e5462, seed=5).run(NpbWorkload("ep", "C", 4))
        acc = StreamingFeatures(interval=int(PMU_INTERVAL_S))
        acc.push_pmu_many(run.pmu_samples)
        np.testing.assert_array_equal(
            acc.pmu_mean(), run.pmu_matrix().mean(axis=0)
        )
        trim_acc = StreamingTrim(DEFAULT_TRIM)
        trim_acc.push_many(run.measured_watts)
        assert trim_acc.finalize().mean == run.average_power_watts()

    def test_collect_npb_features_self_consistent(self, e5462):
        # The collector now runs on the accumulators; its watts must
        # still equal each run's materialised trimmed power.
        simulator = Simulator(e5462, seed=1234)
        labels, features, watts = collect_npb_features(
            e5462, "B", simulator=simulator
        )
        check = Simulator(e5462, seed=1234)
        from repro.core.regression import verification_runs

        by_label = {w.label: w for w in verification_runs(e5462, "B")}
        for label, row, w in zip(labels, features, watts):
            run = check.run(by_label[label])
            np.testing.assert_array_equal(row, run.pmu_matrix().mean(axis=0))
            assert w == run.average_power_watts()


if __name__ == "__main__":
    for case in sorted(campaign_cases()):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{case}": "{campaign_digest(case, tmp)}",')
