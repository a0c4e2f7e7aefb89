"""Property-based tests (hypothesis) on the streaming metering pipeline.

The invariants pinned here are the ones the bit-identity contract rests
on: chunk boundaries can never change a finalised result, the trim
reproduces ``trimmed_stats`` exactly, window routing matches
``extract_window`` under any chunking, and it is insensitive to
reordering within the edge tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metering.analysis import extract_window, trimmed_stats
from repro.metering.stream import (
    StreamingTrim,
    StreamingWindow,
    WindowSpec,
)

watt_values = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
sample_lists = st.lists(watt_values, min_size=1, max_size=200)


def _split(values, cut_points):
    """Split a list at the given (possibly duplicated) cut points."""
    bounds = sorted({min(c, len(values)) for c in cut_points})
    out = []
    prev = 0
    for b in bounds:
        out.append(values[prev:b])
        prev = b
    out.append(values[prev:])
    return out


class TestChunkInvariance:
    @given(
        sample_lists,
        st.lists(st.integers(min_value=0, max_value=200), max_size=8),
        st.sampled_from([0.0, 0.1, 0.2, 0.49]),
    )
    def test_trim_identical_under_any_split(self, values, cuts, trim):
        whole = StreamingTrim(trim=trim)
        whole.push_many(np.asarray(values))
        split = StreamingTrim(trim=trim)
        for chunk in _split(values, cuts):
            split.push_many(np.asarray(chunk))
        assert whole.finalize() == split.finalize()


class TestBatchEquivalence:
    @given(sample_lists, st.sampled_from([0.0, 0.1, 0.2, 0.49]))
    def test_trim_matches_trimmed_stats_bit_exact(self, values, trim):
        array = np.asarray(values, dtype=float)
        acc = StreamingTrim(trim=trim)
        acc.push_many(array)
        assert acc.finalize() == trimmed_stats(array, trim)

    @given(
        st.lists(watt_values, min_size=4, max_size=120),
        st.sampled_from([0.0, 0.2]),
        st.lists(st.integers(min_value=0, max_value=120), max_size=8),
    )
    def test_window_matches_extract_window(self, values, trim, cuts):
        times = np.arange(float(len(values)))
        watts = np.asarray(values, dtype=float)
        mid = len(values) // 2
        specs = [
            WindowSpec("head", 0.0, float(mid) + 0.5),
            WindowSpec("tail", float(mid), float(len(values))),
        ]
        pipeline = StreamingWindow(trim=trim)
        for spec in specs:
            pipeline.add_window(spec)
        # Any split, including chunks that straddle a window end.
        for idx in _split(list(range(len(values))), cuts):
            pipeline.push_many(times[idx], watts[idx])
        for spec, result in zip(specs, pipeline.finalize()):
            batch = trimmed_stats(
                extract_window(times, watts, spec.start_s, spec.end_s), trim
            )
            assert result.stats == batch


class TestReorderTolerance:
    @given(
        st.lists(watt_values, min_size=6, max_size=80),
        st.data(),
    )
    @settings(max_examples=50)
    def test_adjacent_swaps_inside_window_do_not_change_result(
        self, values, data
    ):
        # Samples may arrive slightly out of order; as long as no
        # reordered sample crosses a window edge the finalised stats
        # cannot change, because membership is positional in time, not
        # in arrival order... except the trim, which is arrival-order
        # positional.  So swaps are only harmless when the swapped
        # samples stay inside the same window AND trim is 0.
        times = np.arange(float(len(values)))
        watts = np.asarray(values, dtype=float)
        end = float(len(values))
        i = data.draw(
            st.integers(min_value=0, max_value=len(values) - 2), label="i"
        )

        sorted_pipe = StreamingWindow(trim=0.0)
        sorted_pipe.add_window(WindowSpec("w", 0.0, end))
        sorted_pipe.push_many(times, watts)

        swapped = StreamingWindow(trim=0.0)
        swapped.add_window(WindowSpec("w", 0.0, end))
        order = list(range(len(values)))
        order[i], order[i + 1] = order[i + 1], order[i]
        swapped.push_many(times[order], watts[order])

        (a,) = sorted_pipe.finalize()
        (b,) = swapped.finalize()
        # Membership is exact under reordering; the mean's last bits may
        # differ because numpy's pairwise sum sees a permuted array.
        assert a.stats.n_total == b.stats.n_total
        assert a.stats.n_used == b.stats.n_used
        assert b.stats.mean == pytest.approx(a.stats.mean, rel=1e-12)
        assert b.spec.label == "w"
        assert swapped.late_samples == 0
