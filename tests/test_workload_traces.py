"""Unit tests for workload traces."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import (
    BurstyTrace,
    CompositeTrace,
    DiurnalTrace,
    FlatTrace,
    NoisyTrace,
    SampledTrace,
    ScaledTrace,
    SpikeTrace,
    StepTrace,
)
from repro.workload.traces import (
    DAY_S,
    PlateauTrace,
    SeededTrace,
    WeeklyTrace,
    trace_grid,
)


def sample_range(trace, horizon=DAY_S, step=300.0):
    return [trace.at(i * step) for i in range(int(horizon // step))]


class TestFlatTrace:
    def test_constant(self):
        t = FlatTrace(0.3)
        assert t.at(0) == 0.3
        assert t.at(1e6) == 0.3

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            FlatTrace(1.2)
        with pytest.raises(ValueError):
            FlatTrace(-0.1)

    def test_mean_and_peak(self):
        t = FlatTrace(0.4)
        assert t.mean(3600) == pytest.approx(0.4)
        assert t.peak(3600) == pytest.approx(0.4)


class TestStepTrace:
    def test_levels_change_at_breakpoints(self):
        t = StepTrace([(0.0, 0.1), (100.0, 0.9)])
        assert t.at(99.9) == 0.1
        assert t.at(100.0) == 0.9

    def test_implicit_zero_start(self):
        t = StepTrace([(50.0, 0.5)])
        assert t.at(0.0) == 0.0
        assert t.at(60.0) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StepTrace([])

    def test_level_bounds_validated(self):
        with pytest.raises(ValueError):
            StepTrace([(0.0, 1.5)])


class TestDiurnalTrace:
    def test_peak_at_peak_hour(self):
        t = DiurnalTrace(low=0.1, high=0.9, peak_hour=14.0)
        assert t.at(14 * 3600.0) == pytest.approx(0.9)

    def test_trough_opposite_peak(self):
        t = DiurnalTrace(low=0.1, high=0.9, peak_hour=14.0)
        assert t.at(2 * 3600.0) == pytest.approx(0.1)

    def test_bounded(self):
        t = DiurnalTrace(low=0.05, high=0.95)
        for v in sample_range(t):
            assert 0.05 <= v <= 0.95

    def test_periodicity(self):
        t = DiurnalTrace()
        assert t.at(1000.0) == pytest.approx(t.at(1000.0 + DAY_S))

    def test_sharpness_narrows_peak(self):
        gentle = DiurnalTrace(low=0.0, high=1.0, peak_hour=12.0, sharpness=1.0)
        sharp = DiurnalTrace(low=0.0, high=1.0, peak_hour=12.0, sharpness=4.0)
        off_peak = 8 * 3600.0
        assert sharp.at(off_peak) < gentle.at(off_peak)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalTrace(low=0.8, high=0.2)
        with pytest.raises(ValueError):
            DiurnalTrace(period_s=-1)


class TestSampledTrace:
    def test_step_lookup(self):
        t = SampledTrace([0.1, 0.5, 0.9], step_s=10.0)
        assert t.at(0.0) == 0.1
        assert t.at(15.0) == 0.5
        assert t.at(29.9) == 0.9

    def test_wraps_beyond_horizon(self):
        t = SampledTrace([0.1, 0.5], step_s=10.0)
        assert t.at(20.0) == 0.1
        assert t.at(35.0) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SampledTrace([], step_s=10.0)
        with pytest.raises(ValueError):
            SampledTrace([1.5], step_s=10.0)
        with pytest.raises(ValueError):
            SampledTrace([0.5], step_s=0.0)


class TestBurstyTrace:
    def test_deterministic_given_seed(self):
        a = BurstyTrace(seed=42)
        b = BurstyTrace(seed=42)
        assert sample_range(a) == sample_range(b)

    def test_different_seeds_differ(self):
        a = BurstyTrace(seed=1)
        b = BurstyTrace(seed=2)
        assert sample_range(a) != sample_range(b)

    def test_values_are_base_or_burst(self):
        t = BurstyTrace(seed=7, base=0.1, burst=0.8)
        for v in sample_range(t, horizon=2 * DAY_S):
            assert v in (pytest.approx(0.1), pytest.approx(0.8))

    def test_bursts_actually_occur(self):
        t = BurstyTrace(seed=3, base=0.1, burst=0.9, mean_gap_s=3600.0)
        values = sample_range(t, horizon=2 * DAY_S, step=60.0)
        assert any(v > 0.5 for v in values)
        assert any(v < 0.5 for v in values)

    def test_invalid_levels_rejected(self):
        with pytest.raises(ValueError):
            BurstyTrace(seed=0, base=0.9, burst=0.1)


class TestSpikeTrace:
    def test_mostly_base(self):
        t = SpikeTrace(seed=5, base=0.05, spikes_per_day=4.0)
        values = sample_range(t, horizon=2 * DAY_S, step=60.0)
        base_count = sum(1 for v in values if v == pytest.approx(0.05))
        assert base_count > 0.8 * len(values)

    def test_deterministic(self):
        assert sample_range(SpikeTrace(seed=9)) == sample_range(SpikeTrace(seed=9))


class TestNoisyTrace:
    def test_stays_in_bounds(self):
        t = NoisyTrace(FlatTrace(0.5), seed=11, sigma=0.3)
        for v in sample_range(t, horizon=2 * DAY_S):
            assert 0.0 <= v <= 1.0

    def test_tracks_inner_mean(self):
        t = NoisyTrace(FlatTrace(0.5), seed=11, sigma=0.05, horizon_s=DAY_S)
        assert t.mean(DAY_S) == pytest.approx(0.5, abs=0.02)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoisyTrace(FlatTrace(0.5), seed=0, sigma=-0.1)


class TestCompositeAndScaled:
    def test_weighted_sum(self):
        t = CompositeTrace([(0.5, FlatTrace(0.4)), (0.5, FlatTrace(0.8))])
        assert t.at(0.0) == pytest.approx(0.6)

    def test_clamped_to_one(self):
        t = CompositeTrace([(1.0, FlatTrace(0.8)), (1.0, FlatTrace(0.8))])
        assert t.at(0.0) == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CompositeTrace([(-0.5, FlatTrace(0.4))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeTrace([])

    def test_scaled(self):
        t = ScaledTrace(FlatTrace(0.4), 0.5)
        assert t.at(0.0) == pytest.approx(0.2)

    def test_scaled_clamps(self):
        t = ScaledTrace(FlatTrace(0.8), 2.0)
        assert t.at(0.0) == 1.0

    def test_scaled_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            ScaledTrace(FlatTrace(0.5), -1.0)


def bits(values):
    """Exact float64 bit patterns (``==`` would equate 0.0 and -0.0)."""
    return np.asarray(values, dtype=float).tobytes()


class TestTraceGridExactness:
    """The vectorized Diurnal/Flat branches equal scalar ``at`` bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        low=st.floats(0.0, 0.5),
        span=st.floats(0.0, 0.5),
        peak_hour=st.floats(0.0, 24.0),
        sharpness=st.one_of(st.just(1.0), st.floats(0.2, 4.0)),
        period_h=st.sampled_from([24.0, 24.0, 7.5, 168.0]),
        n=st.sampled_from([120, 1440, 10080]),
        step_s=st.sampled_from([60.0, 30.0, 300.0]),
    )
    def test_diurnal_grid_matches_scalar(
        self, low, span, peak_hour, sharpness, period_h, n, step_s
    ):
        trace = DiurnalTrace(
            low=low,
            high=low + span,
            period_s=period_h * 3600.0,
            peak_hour=peak_hour,
            sharpness=sharpness,
        )
        ticks = [i * step_s for i in range(n)]
        assert bits(trace_grid(trace, ticks)) == bits(
            [trace.at(t) for t in ticks]
        )

    @settings(max_examples=30, deadline=None)
    @given(level=st.floats(0.0, 1.0), n=st.sampled_from([1, 120, 10080]))
    def test_flat_grid_matches_scalar(self, level, n):
        trace = FlatTrace(level)
        ticks = [i * 60.0 for i in range(n)]
        assert bits(trace_grid(trace, ticks)) == bits(
            [trace.at(t) for t in ticks]
        )

    def test_noisy_samples_equal_scalar_construction(self):
        # NoisyTrace draws its base through trace_grid; the samples must
        # equal the per-sample ``inner.at`` construction it replaced.
        for inner in (
            DiurnalTrace(0.08, 0.7, peak_hour=11.3, sharpness=1.7),
            DiurnalTrace(0.1, 0.9),
            FlatTrace(0.35),
            WeeklyTrace(DiurnalTrace()),
        ):
            for horizon_s in (7200.0, DAY_S, 7 * DAY_S):
                trace = NoisyTrace(inner, 99, sigma=0.04, horizon_s=horizon_s)
                n = int(horizon_s // 60.0)
                rng = np.random.default_rng(99)
                base = np.array([inner.at(i * 60.0) for i in range(n)])
                expected = np.clip(
                    base + rng.normal(0.0, 0.04, size=n), 0.0, 1.0
                )
                assert bits(trace._samples) == bits(expected)


def _every_trace_class():
    shared = BurstyTrace(5, horizon_s=DAY_S)
    return [
        FlatTrace(0.3),
        StepTrace([(0.0, 0.2), (3600.0, 0.7)]),
        DiurnalTrace(sharpness=1.3),
        SampledTrace([0.1, 0.5, 0.9], step_s=600.0),
        shared,
        SpikeTrace(6, horizon_s=DAY_S),
        NoisyTrace(DiurnalTrace(peak_hour=9.0), 7, horizon_s=DAY_S),
        PlateauTrace(),
        WeeklyTrace(FlatTrace(0.6)),
        CompositeTrace([(0.3, shared), (0.7, FlatTrace(0.2))]),
        ScaledTrace(DiurnalTrace(), 1.4),
    ]


class TestPickling:
    @pytest.mark.parametrize(
        "trace", _every_trace_class(), ids=lambda t: type(t).__name__
    )
    def test_round_trip_keeps_at_bits(self, trace):
        clone = pickle.loads(pickle.dumps(trace))
        assert type(clone) is type(trace)
        instants = [i * 97.0 for i in range(2000)]
        assert bits([clone.at(t) for t in instants]) == bits(
            [trace.at(t) for t in instants]
        )

    def test_seeded_traces_pickle_as_recipes(self):
        for horizon_s in (DAY_S, 7 * DAY_S):
            for trace in (
                BurstyTrace(1, horizon_s=horizon_s),
                SpikeTrace(2, horizon_s=horizon_s),
                NoisyTrace(FlatTrace(0.4), 3, horizon_s=horizon_s),
            ):
                assert isinstance(trace, SeededTrace)
                # A recipe and a digest, not 1440-10080 samples.
                assert len(pickle.dumps(trace)) < 600

    def test_plain_sampled_trace_pickles_samples_once(self):
        trace = SampledTrace(np.linspace(0.0, 1.0, 5000))
        assert "_samples_list" not in trace.__getstate__()
        clone = pickle.loads(pickle.dumps(trace))
        assert clone._samples_list == trace._samples_list
        assert len(pickle.dumps(trace)) < 5000 * 8 + 1000

    def test_shared_component_stays_shared(self):
        shared = BurstyTrace(11, horizon_s=DAY_S)
        fleet = [
            CompositeTrace([(0.3, shared), (0.7, FlatTrace(0.1 * k))])
            for k in range(5)
        ]
        clone = pickle.loads(pickle.dumps(fleet))
        first = clone[0].parts[0][1]
        assert all(c.parts[0][1] is first for c in clone)

    def test_digest_is_cached_and_carried(self):
        trace = BurstyTrace(4, horizon_s=DAY_S)
        digest = trace.samples_digest()
        assert trace.samples_digest() is digest
        clone = pickle.loads(pickle.dumps(trace))
        assert clone._digest == digest

    def test_regeneration_mismatch_raises(self, monkeypatch):
        blob = pickle.dumps(BurstyTrace(8, horizon_s=DAY_S))
        real_init = BurstyTrace.__init__

        def drifted(self, seed, *args):
            real_init(self, seed + 1, *args)

        monkeypatch.setattr(BurstyTrace, "__init__", drifted)
        with pytest.raises(ValueError, match="does not match"):
            pickle.loads(blob)
