"""Campaign pipeline: CSV merge, clock sync, window extraction."""

import numpy as np
import pytest

from repro.engine import Campaign, Simulator
from repro.errors import ConfigurationError
from repro.workloads.hpl import HplConfig, HplWorkload
from repro.workloads.npb import NpbWorkload


@pytest.fixture()
def small_campaign(sim_e5462):
    return Campaign(sim_e5462, gap_s=10.0)


def ep_series():
    return [NpbWorkload("ep", "C", n) for n in (1, 2, 4)]


class TestPipeline:
    def test_measurement_per_workload(self, small_campaign):
        result = small_campaign.run(ep_series())
        assert [m.label for m in result.measurements] == [
            "ep.C.1",
            "ep.C.2",
            "ep.C.4",
        ]

    def test_pipeline_matches_direct_run(self, e5462):
        """The CSV round trip must not distort the averages (beyond the
        2-decimal CSV quantisation)."""
        sim = Simulator(e5462, seed=3)
        direct = sim.run(NpbWorkload("ep", "C", 4)).average_power_watts()
        campaign = Campaign(Simulator(e5462, seed=3)).run(
            [NpbWorkload("ep", "C", 4)]
        )
        assert campaign.measurements[0].average_watts == pytest.approx(
            direct, abs=0.02
        )

    def test_clock_offset_corrected(self, e5462):
        """A large residual clock offset must not shift the windows."""
        small = Campaign(Simulator(e5462, seed=3), clock_offset_s=0.0).run(
            ep_series()
        )
        large = Campaign(Simulator(e5462, seed=3), clock_offset_s=5.0).run(
            ep_series()
        )
        for a, b in zip(small.measurements, large.measurements):
            assert a.average_watts == pytest.approx(b.average_watts, abs=0.05)

    def test_csv_files_kept_when_dir_given(self, small_campaign, tmp_path):
        result = small_campaign.run(ep_series(), csv_dir=tmp_path)
        assert result.merged_csv is not None
        assert result.merged_csv.exists()
        assert len(list(tmp_path.glob("segment_*.csv"))) == 3

    def test_power_ordering_ep_below_hpl(self, small_campaign):
        result = small_campaign.run(
            [NpbWorkload("ep", "C", 4), HplWorkload(HplConfig(4, 0.95))]
        )
        ep, hpl = result.measurements
        assert ep.average_watts < hpl.average_watts

    def test_ppw_and_energy_accessors(self, small_campaign):
        result = small_campaign.run([NpbWorkload("ep", "C", 4)])
        m = result.measurements[0]
        assert m.ppw == pytest.approx(m.gflops / m.average_watts)
        assert m.energy_kilojoules == pytest.approx(
            m.average_watts / 1000 * m.duration_s
        )

    def test_by_label(self, small_campaign):
        result = small_campaign.run(ep_series())
        assert result.by_label("ep.C.2").label == "ep.C.2"
        with pytest.raises(ConfigurationError):
            result.by_label("nope")

    def test_empty_campaign_rejected(self, small_campaign):
        with pytest.raises(ConfigurationError):
            small_campaign.run([])

    def test_negative_gap_rejected(self, sim_e5462):
        with pytest.raises(ConfigurationError):
            Campaign(sim_e5462, gap_s=-1.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("gap_s", float("nan")),
            ("gap_s", float("inf")),
            ("clock_offset_s", float("nan")),
            ("clock_offset_s", float("inf")),
            ("clock_offset_s", float("-inf")),
            ("trim", 0.5),
            ("trim", 0.6),
            ("trim", -0.1),
            ("trim", float("nan")),
        ],
    )
    def test_bad_parameter_rejected_before_any_run(
        self, sim_e5462, name, value
    ):
        with pytest.raises(ConfigurationError, match=name):
            Campaign(sim_e5462, **{name: value})


class TestRepairPath:
    """``Campaign(repair=True)``: validated analysis, same numbers."""

    def test_default_path_attaches_no_quality(self, small_campaign):
        assert small_campaign.run(ep_series()).quality is None

    def test_repair_matches_default_numbers(self, e5462):
        plain = Campaign(Simulator(e5462, seed=7), gap_s=10.0)
        repaired = Campaign(Simulator(e5462, seed=7), gap_s=10.0, repair=True)
        a = plain.run(ep_series())
        b = repaired.run(ep_series())
        # The repair stage detects and removes the same clock offset the
        # default path subtracts; its regrid may shift a window edge by
        # at most one sample, so the means agree to well under 0.1 %.
        for m_plain, m_rep in zip(a.measurements, b.measurements):
            assert m_rep.average_watts == pytest.approx(
                m_plain.average_watts, rel=1e-3
            )
        assert b.quality is not None
        assert "clock_skew_corrected" in b.quality.flags
        assert b.quality.clock_skew_s == pytest.approx(0.4, abs=0.05)

    def test_repair_keeps_csv_artifacts(self, e5462, tmp_path):
        campaign = Campaign(Simulator(e5462, seed=7), gap_s=10.0, repair=True)
        result = campaign.run(ep_series(), csv_dir=tmp_path)
        assert result.merged_csv is not None
        assert result.quality is not None
        assert not result.quality.quarantined
