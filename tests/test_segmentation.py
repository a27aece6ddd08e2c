"""Burst-curve segmentation: oracles, crafted pulses, interval windowing, recentring."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdgest.segmentation import (
    MotionInterval,
    PbcConfig,
    bursts,
    cut_span,
    detect,
    pbc,
    recentre,
    segment_record,
    smooth,
    window,
)
from mdgest.simulate import GestureLabel, IQRecord, SimConfig, simulate_record
from mdgest.tfr import Spectrogram, StftConfig, spectrogram

FS = 12800.0


def moving_average_oracle(x, win):
    """Literal centered mean with the window truncated at the edges."""
    h = win // 2
    n = len(x)
    out = np.empty(n)
    for i in range(n):
        lo, hi = max(0, i - h), min(n, i + h + 1)
        out[i] = sum(x[lo:hi]) / (hi - lo)
    return out


def toy_spectrogram(power, freq_hz, col_step_s=0.01):
    power = np.asarray(power, float)
    time = np.arange(power.shape[1]) * col_step_s
    return Spectrogram(power=power, time_s=time, freq_hz=np.asarray(freq_hz, float))


class TestSmooth:
    @pytest.mark.parametrize("win", [1, 3, 5, 9, 31])
    def test_matches_truncated_mean_oracle(self, win):
        rng = np.random.default_rng(123)
        for n in (1, 2, 7, 50):
            x = rng.normal(size=n)
            np.testing.assert_allclose(
                smooth(x, win), moving_average_oracle(x, win), rtol=1e-12, atol=1e-12
            )

    def test_window_one_is_identity(self):
        x = np.array([3.0, 1.0, 4.0])
        out = smooth(x, 1)
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_constant_curve_unchanged(self):
        np.testing.assert_allclose(smooth(np.full(20, 2.5), 7), np.full(20, 2.5))

    @pytest.mark.parametrize("win", [0, -3, 2, 8])
    def test_rejects_bad_window(self, win):
        with pytest.raises(ValueError):
            smooth(np.ones(5), win)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            smooth(np.ones((3, 3)), 3)


class TestPbc:
    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        freq = np.linspace(-640, 640, 129)
        power = rng.random((129, 20))
        spec = toy_spectrogram(power, freq)
        cfg = PbcConfig()
        ref = np.zeros(20)
        for j in range(20):
            for i, f in enumerate(freq):
                if cfg.neg_lo_hz <= f <= cfg.neg_hi_hz or cfg.pos_lo_hz <= f <= cfg.pos_hi_hz:
                    ref[j] += power[i, j] ** 2
        np.testing.assert_allclose(pbc(spec, cfg), ref, rtol=1e-12)

    def test_zero_doppler_strip_excluded(self):
        freq = np.linspace(-640, 640, 129)
        power = np.zeros((129, 4))
        power[np.abs(freq) < 20, :] = 100.0
        assert np.all(pbc(toy_spectrogram(power, freq)) == 0.0)

    def test_band_edges_inclusive(self):
        freq = np.array([-500.0, -20.0, 0.0, 20.0, 500.0])
        power = np.ones((5, 3))
        np.testing.assert_allclose(pbc(toy_spectrogram(power, freq)), np.full(3, 4.0))

    def test_band_outside_axis_raises(self):
        spec = toy_spectrogram(np.ones((5, 3)), np.linspace(-100, 100, 5))
        with pytest.raises(ValueError, match="band"):
            pbc(spec)

    def test_squares_power(self):
        freq = np.array([-500.0, 0.0, 500.0])
        power = np.full((3, 2), 3.0)
        np.testing.assert_allclose(pbc(toy_spectrogram(power, freq)), np.full(2, 18.0))


class TestBursts:
    def test_intervals_are_detect_and_strongest_has_most_energy(self):
        freq = np.array([-500.0, -20.0, 0.0, 20.0, 500.0])
        power = np.zeros((5, 200))
        power[3, 20:40] = 1.0  # weaker burst
        power[3, 120:150] = 2.0  # stronger burst
        spec = toy_spectrogram(power, freq)
        intervals, best = bursts(spec)
        curve = smooth(pbc(spec), PbcConfig().smooth_len)
        assert intervals == detect(curve, spec.time_s)
        assert len(intervals) == 2
        assert best == intervals[1]

    def test_first_of_equal_bursts_is_strongest(self):
        freq = np.array([-500.0, -20.0, 0.0, 20.0, 500.0])
        power = np.zeros((5, 200))
        power[3, 20:40] = 1.0
        power[3, 120:140] = 1.0
        intervals, best = bursts(toy_spectrogram(power, freq))
        assert len(intervals) == 2 and best == intervals[0]

    def test_no_burst_gives_none(self):
        freq = np.array([-500.0, -20.0, 0.0, 20.0, 500.0])
        intervals, best = bursts(toy_spectrogram(np.ones((5, 30)), freq))
        assert intervals == [] and best is None

    def test_band_covers_both_sides(self):
        assert PbcConfig().band_hz == 500.0
        assert PbcConfig(neg_lo_hz=-620.0).band_hz == 620.0


class TestDetect:
    time = np.arange(40) * 0.01

    def square(self, lo, hi, n=40):
        s = np.zeros(n)
        s[lo:hi] = 1.0
        return s

    def test_square_pulse_edges(self):
        ivs = detect(self.square(10, 20), self.time)
        assert len(ivs) == 1
        assert ivs[0].start_s == pytest.approx(0.10)
        assert ivs[0].end_s == pytest.approx(0.20)

    def test_pulse_reaching_first_column(self):
        ivs = detect(self.square(0, 5), self.time)
        assert ivs[0].start_s == pytest.approx(0.0)

    def test_pulse_reaching_last_column_extends_one_step(self):
        ivs = detect(self.square(35, 40), self.time)
        assert ivs[-1].end_s == pytest.approx(0.40)

    def test_gap_below_merge_distance_merges(self):
        s = self.square(0, 10) + self.square(20, 30)
        ivs = detect(s, self.time, PbcConfig(merge_gap_s=0.11))
        assert len(ivs) == 1
        assert ivs[0].start_s == pytest.approx(0.0)
        assert ivs[0].end_s == pytest.approx(0.30)

    def test_gap_equal_to_merge_distance_stays_split(self):
        s = self.square(0, 10) + self.square(20, 30)
        ivs = detect(s, self.time, PbcConfig(merge_gap_s=0.10))
        assert len(ivs) == 2

    def test_threshold_is_floor_plus_alpha_range(self):
        # floor 0, peak 1, alpha 0.1: a column exactly at 0.1 counts as motion.
        s = np.zeros(40)
        s[5] = 1.0
        s[20] = 0.1
        s[30] = 0.0999
        ivs = detect(s, self.time, PbcConfig(alpha=0.1, merge_gap_s=0.01))
        assert [pytest.approx(iv.start_s) for iv in ivs] == [0.05, 0.20]

    def test_flat_curve_yields_nothing(self):
        assert detect(np.full(40, 3.3), self.time) == []

    def test_empty_curve_yields_nothing(self):
        assert detect(np.array([]), np.array([])) == []

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            detect(np.ones(5), np.ones(4))

    @pytest.mark.prop
    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_detection_invariant_to_curve_scale(self, scale):
        rng = np.random.default_rng(42)
        for _ in range(10):
            s = rng.random(60) ** 3
            t = np.arange(60) * 0.01
            assert detect(s * scale, t) == detect(s, t)


class TestConfigValidation:
    def test_band_order_enforced(self):
        with pytest.raises(ValueError):
            PbcConfig(neg_lo_hz=-10, neg_hi_hz=-20)
        with pytest.raises(ValueError):
            PbcConfig(pos_lo_hz=0.0)

    @pytest.mark.parametrize("win", [0, 4])
    def test_even_or_zero_smoothing_rejected(self, win):
        with pytest.raises(ValueError):
            PbcConfig(smooth_len=win)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2])
    def test_alpha_must_be_interior(self, alpha):
        with pytest.raises(ValueError):
            PbcConfig(alpha=alpha)

    def test_negative_merge_gap_rejected(self):
        with pytest.raises(ValueError):
            PbcConfig(merge_gap_s=-0.1)


class TestInterval:
    def test_properties(self):
        iv = MotionInterval(1.0, 2.5)
        assert iv.duration_s == pytest.approx(1.5)
        assert iv.mid_s == pytest.approx(1.75)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            MotionInterval(2.0, 2.0)


class TestOnRecords:
    @pytest.mark.parametrize("seed", [50, 51, 52])
    def test_push_pull_interval_matches_truth(self, seed):
        """Detected motion edges sit within 50 ms of the simulated truth."""
        rec = simulate_record(GestureLabel.PUSH_PULL, SimConfig(seed=seed, snr_db=10.0))
        ivs = segment_record(rec)
        assert len(ivs) == 1
        assert ivs[0].start_s == pytest.approx(rec.active_s[0], abs=0.05)
        assert ivs[0].end_s == pytest.approx(rec.active_s[1], abs=0.05)

    def test_each_gesture_yields_one_interval(self, six_records):
        for rec in six_records:
            ivs = segment_record(rec)
            assert len(ivs) == 1
            assert ivs[0].start_s < rec.active_s[1]
            assert ivs[0].end_s > rec.active_s[0]

    def test_pipeline_equals_manual_stages(self, six_records):
        rec = six_records[0]
        spec = spectrogram(rec, StftConfig())
        manual = detect(smooth(pbc(spec), 5), spec.time_s)
        assert segment_record(rec) == manual


class TestWindow:
    def make_record(self, seed=9):
        return simulate_record(GestureLabel.CROSS, SimConfig(seed=seed, snr_db=10.0))

    def test_recenters_on_midpoint(self):
        rec = self.make_record()
        iv = MotionInterval(1.0, 2.0)
        out = window(rec, iv, duration_s=5.0)
        n = len(rec.samples)
        start = int(round(iv.mid_s * FS - n / 2))
        np.testing.assert_array_equal(out.samples[-start:], rec.samples[: n + start])

    def test_zero_pads_past_the_ends(self):
        rec = self.make_record()
        out = window(rec, MotionInterval(0.05, 0.15), duration_s=5.0)
        n_pad = int(round(0.5 * FS - 0.1 * FS))
        assert np.all(out.samples[:n_pad] == 0)
        assert out.samples.dtype == rec.samples.dtype
        assert len(out.samples) == len(rec.samples)

    def test_active_span_shifts_with_the_cut(self):
        rec = self.make_record()
        iv = MotionInterval(1.9, 2.1)
        out = window(rec, iv, duration_s=5.0)
        shift = int(round(iv.mid_s * FS - len(rec.samples) / 2)) / FS
        assert out.active_s[0] == pytest.approx(rec.active_s[0] - shift, abs=1e-9)
        assert out.active_s[1] == pytest.approx(rec.active_s[1] - shift, abs=1e-9)

    def test_metadata_carries_over(self):
        rec = self.make_record()
        out = window(rec, MotionInterval(1.0, 2.0))
        assert out.label == rec.label
        assert out.record_id == rec.record_id
        assert out.sample_rate_hz == rec.sample_rate_hz

    def test_interval_outside_record_rejected(self):
        rec = self.make_record()
        with pytest.raises(ValueError):
            window(rec, MotionInterval(6.0, 7.0))

    def test_duration_controls_output_length(self):
        rec = self.make_record()
        out = window(rec, MotionInterval(2.0, 3.0), duration_s=2.0)
        assert len(out.samples) == int(2.0 * FS)


# The default STFT, and one whose window is not a multiple of its hop.
RECENTRE_CFGS = {"default": StftConfig(), "ragged": StftConfig(window_len=100, fft_size=128, hop=24)}


@pytest.mark.prop
class TestRecentre:
    """The recentred spectrogram has the bits of a full STFT of the cut."""

    @settings(max_examples=40, deadline=None)
    @given(
        cfg_name=st.sampled_from(sorted(RECENTRE_CFGS)),
        n_cols=st.integers(1, 40),
        extra=st.integers(0, 127),
        shift=st.integers(-25, 25),
        offset=st.sampled_from([0, 0, 1, 7, 64]),  # 0: the cut starts on the hop grid
        dtype=st.sampled_from([np.complex64, np.complex128]),
        band_hz=st.sampled_from([None, 640.0, 150.0]),
        seed=st.integers(0, 2**16),
    )
    @example("default", 30, 5, -7, 0, np.complex64, 640.0, 1)  # before the record, on the grid
    @example("default", 30, 5, 0, 0, np.complex64, 640.0, 2)  # at sample 0
    @example("default", 30, 5, 7, 0, np.complex128, 640.0, 3)  # inside, on the grid
    @example("default", 30, 5, -7, 64, np.complex64, None, 4)  # off the grid, both sides
    @example("default", 30, 5, 7, 64, np.complex128, 640.0, 5)
    @example("ragged", 25, 11, -6, 0, np.complex64, 150.0, 6)
    @example("ragged", 25, 11, 6, 0, np.complex128, None, 7)
    @example("ragged", 25, 11, 6, 7, np.complex64, None, 8)
    def test_equals_full_stft_of_the_cut(
        self, cfg_name, n_cols, extra, shift, offset, dtype, band_hz, seed
    ):
        cfg = RECENTRE_CFGS[cfg_name]
        n = cfg.window_len + cfg.hop * (n_cols - 1) + extra % cfg.hop
        start = shift * cfg.hop + offset % cfg.hop
        if not -n / 2 < start < n / 2:  # the cut's centre must lie inside the record
            start = start % cfg.hop - cfg.hop * (n // (4 * cfg.hop))
        rng = np.random.Generator(np.random.PCG64(seed))
        samples = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(dtype)
        rec = IQRecord(samples, FS, GestureLabel.CROSS)
        mid_s = (start + n / 2) / FS
        iv = MotionInterval(mid_s - 0.001, mid_s + 0.001)
        assert cut_span(rec, iv, rec.duration_s)[0] == start

        got = recentre(rec, spectrogram(rec, cfg, band_hz), iv, cfg, band_hz)
        want = spectrogram(window(rec, iv, rec.duration_s), cfg, band_hz)
        assert got.power.dtype == want.power.dtype
        assert got.power.shape == want.power.shape
        assert got.power.strides == want.power.strides
        assert got.power.tobytes() == want.power.tobytes()
        np.testing.assert_array_equal(got.time_s, want.time_s)
        np.testing.assert_array_equal(got.freq_hz, want.freq_hz)
