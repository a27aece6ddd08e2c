"""Envelope extraction: ridge recovery, gating, scale invariance, imaging."""

import numpy as np
import pytest

from mdgest.envelope import (
    EnvelopeConfig,
    EnvelopePair,
    _effective_band,
    envelope_image,
    extract,
    to_feature,
)
from mdgest.tfr import Spectrogram, StftConfig, spectrogram
from conftest import one_shot_spectrogram

FREQ = np.arange(-640.0, 641.0, 10.0)  # 129 rows, 10 Hz bins


def toy_spec(power, col_step_s=0.02, freq=FREQ):
    power = np.asarray(power, float)
    return Spectrogram(
        power=power,
        time_s=np.arange(power.shape[1]) * col_step_s,
        freq_hz=np.asarray(freq, float),
    )


def ridge_spec(ridge_hz, background=1e-3, strength=1.0, n_cols=None):
    """Uniform background with one strong cell per column at ``ridge_hz``."""
    ridge_hz = np.asarray(ridge_hz, float)
    n_cols = n_cols or len(ridge_hz)
    power = np.full((len(FREQ), n_cols), background)
    for j, fr in enumerate(ridge_hz):
        power[np.argmin(np.abs(FREQ - fr)), j] = strength
    return toy_spec(power)


class TestRidgeRecovery:
    def test_constant_positive_ridge(self):
        spec = ridge_spec(np.full(30, 200.0))
        env = extract(spec)
        np.testing.assert_allclose(env.upper_hz, 200.0)
        np.testing.assert_allclose(env.lower_hz, 0.0)

    def test_constant_negative_ridge(self):
        spec = ridge_spec(np.full(30, -300.0))
        env = extract(spec)
        np.testing.assert_allclose(env.lower_hz, -300.0)
        np.testing.assert_allclose(env.upper_hz, 0.0)

    def test_ramp_ridge_tracks_within_resampling(self):
        ridge = np.round(np.linspace(100.0, 400.0, 40) / 10.0) * 10.0
        spec = ridge_spec(ridge)
        env = extract(spec)
        expect = np.interp(env.time_s, spec.time_s, ridge)
        np.testing.assert_allclose(env.upper_hz, expect, atol=1e-9)

    def test_two_sided_ridges(self):
        # Hot columns flanked by background-only ones, like a gesture
        # sitting inside a longer analysis window.
        power = np.full((len(FREQ), 55), 1e-3)
        hot = slice(15, 40)
        power[np.argmin(np.abs(FREQ - 250.0)), hot] = 1.0
        power[np.argmin(np.abs(FREQ + 150.0)), hot] = 1.0
        env = extract(toy_spec(power))
        t_hot = (env.time_s >= 16 * 0.02) & (env.time_s <= 38 * 0.02)
        np.testing.assert_allclose(env.upper_hz[t_hot], 250.0)
        np.testing.assert_allclose(env.lower_hz[t_hot], -150.0)
        assert env.upper_hz[env.time_s < 14 * 0.02].max() == 0.0

    def test_outermost_cell_wins_within_a_column(self):
        # Two qualifying cells on the same side: the scan must stop at the
        # one farther from zero, not the stronger one.
        spec = ridge_spec(np.full(20, 180.0))
        for j in range(20):
            spec.power[np.argmin(np.abs(FREQ - 320.0)), j] = 0.9
        env = extract(spec)
        np.testing.assert_allclose(env.upper_hz, 320.0)


class TestGating:
    def test_constant_background_yields_silence(self):
        env = extract(toy_spec(np.full((len(FREQ), 30), 0.7)))
        np.testing.assert_array_equal(env.upper_hz, 0.0)
        np.testing.assert_array_equal(env.lower_hz, 0.0)

    def test_zero_spectrogram_yields_silence(self):
        env = extract(toy_spec(np.zeros((len(FREQ), 10))))
        np.testing.assert_array_equal(env.upper_hz, 0.0)
        np.testing.assert_array_equal(env.lower_hz, 0.0)
        assert len(env.time_s) == 100

    def test_quiet_columns_stay_at_zero(self):
        ridge = np.full(30, 220.0)
        spec = ridge_spec(ridge)
        spec.power[:, 20:] = 0.0  # motion stops two thirds in
        env = extract(spec)
        raw_t = spec.time_s
        quiet = env.time_s > raw_t[20]
        assert np.all(env.upper_hz[quiet] == 0.0)
        assert env.upper_hz[env.time_s < raw_t[18]].min() > 0.0


class TestSigmaControl:
    def column_pair_spec(self):
        # Five columns; two hot ones carry an inner 1.0 cell at +100 Hz and
        # a weaker 0.4 cell at +200 Hz.  The rest are exactly silent.
        power = np.zeros((len(FREQ), 5))
        for j in (3, 4):
            power[np.argmin(np.abs(FREQ - 100.0)), j] = 1.0
            power[np.argmin(np.abs(FREQ - 200.0)), j] = 0.4
        return toy_spec(power)

    def test_low_sigma_reaches_the_weak_outer_cell(self):
        env = extract(self.column_pair_spec(), EnvelopeConfig(sigma_upper=0.3))
        assert env.upper_hz.max() == pytest.approx(200.0)

    def test_high_sigma_stops_at_the_strong_inner_cell(self):
        env = extract(self.column_pair_spec(), EnvelopeConfig(sigma_upper=0.6))
        assert env.upper_hz.max() == pytest.approx(100.0)

    def test_auto_sigma_lands_on_peak_cell_edge(self):
        # Calibrated sigma puts the threshold at half the peak cell of the
        # strongest column, so the peak itself always qualifies.
        spec = ridge_spec(np.full(12, 260.0))
        env = extract(spec)
        assert env.upper_hz.max() == pytest.approx(260.0)


@pytest.mark.prop
class TestScaleInvariance:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    def test_envelope_unchanged_by_power_scale(self, alpha, six_records):
        spec = spectrogram(six_records[0], StftConfig())
        scaled = Spectrogram(spec.power * alpha, spec.time_s, spec.freq_hz)
        a, b = extract(spec), extract(scaled)
        np.testing.assert_allclose(b.upper_hz, a.upper_hz, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(b.lower_hz, a.lower_hz, rtol=1e-9, atol=1e-9)


class TestBandLimitedInput:
    """A band-limited spectrogram gives the envelope of its own rows."""

    @pytest.mark.parametrize("band_hz", [640.0, 500.0])
    def test_equal_to_full_spectrogram_cut_to_the_band(self, six_records, band_hz):
        for rec in six_records:
            band = spectrogram(rec, StftConfig(), band_hz)
            full = one_shot_spectrogram(rec, StftConfig())
            keep = np.isin(full.freq_hz, band.freq_hz)
            want = extract(Spectrogram(full.power[keep], full.time_s, full.freq_hz[keep]))
            got = extract(band)
            np.testing.assert_array_equal(got.upper_hz, want.upper_hz)
            np.testing.assert_array_equal(got.lower_hz, want.lower_hz)
            np.testing.assert_array_equal(got.time_s, want.time_s)

    def test_effective_band_certifies_or_raises(self):
        """The edge is the first row, from the inside out, whose running
        energy reaches the fraction; a band with no energy has edge 0."""
        energy = np.array([0.5, 0.25, 0.125, 0.0625], np.float32)
        absf = np.array([30.0, 40.0, 50.0, 60.0])
        # the threshold sits just below the running total at the third row
        frac = (0.875 - 400 * float(np.spacing(energy.sum()))) / 0.9375
        assert _effective_band(energy[:, None], absf, np.ones(4, bool), frac) == 50.0
        silent = np.zeros((4, 1), np.float32)
        assert _effective_band(silent, absf, np.ones(4, bool), frac) == 0.0


class TestPairAndFeature:
    def test_sign_bounds_enforced(self):
        t = np.zeros(3)
        with pytest.raises(ValueError):
            EnvelopePair(np.array([1.0, -0.1, 0.0]), np.zeros(3), t, 5.0)
        with pytest.raises(ValueError):
            EnvelopePair(np.zeros(3), np.array([0.0, 0.1, -1.0]), t, 5.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EnvelopePair(np.zeros(3), np.zeros(4), np.zeros(3), 5.0)

    def test_feature_is_upper_then_lower(self):
        env = EnvelopePair(
            np.array([10.0, 20.0]), np.array([-5.0, -7.0]), np.zeros(2), 5.0
        )
        np.testing.assert_array_equal(to_feature(env), [10.0, 20.0, -5.0, -7.0])


class TestEnvelopeImage:
    def test_pixels_land_on_nearest_rows(self):
        spec = toy_spec(np.ones((FREQ.size, 4)))
        env = EnvelopePair(
            upper_hz=np.full(4, 320.0),
            lower_hz=np.full(4, -640.0),
            time_s=spec.time_s,
            bin_hz=10.0,
        )
        img = envelope_image(spec, env, size=(5, 4))
        f_lo, f_hi = FREQ[0], FREQ[-1]
        r_up = int(round((320.0 - f_lo) / (f_hi - f_lo) * 4))
        r_low = int(round((-640.0 - f_lo) / (f_hi - f_lo) * 4))
        expect = np.zeros((5, 4))
        expect[r_up, :] = 1.0
        expect[r_low, :] = 1.0
        np.testing.assert_array_equal(img.pixels, expect)

    def test_coincident_traces_mark_one_pixel_per_column(self):
        spec = toy_spec(np.ones((FREQ.size, 3)))
        env = EnvelopePair(np.zeros(3), np.zeros(3), spec.time_s, 10.0)
        img = envelope_image(spec, env, size=(9, 3))
        assert img.pixels.sum() == 3.0

    def test_degenerate_time_axis_gives_blank(self):
        spec = toy_spec(np.ones((FREQ.size, 1)))
        env = EnvelopePair(np.zeros(2), np.zeros(2), np.zeros(2), 10.0)
        assert envelope_image(spec, env, size=(8, 8)).pixels.sum() == 0.0


class TestConfigValidation:
    @pytest.mark.parametrize("sigma", [0.0, 1.0, -0.5, 2.0])
    def test_sigma_bounds(self, sigma):
        with pytest.raises(ValueError):
            EnvelopeConfig(sigma_upper=sigma)
        with pytest.raises(ValueError):
            EnvelopeConfig(sigma_lower=sigma)

    def test_points_floor(self):
        with pytest.raises(ValueError):
            EnvelopeConfig(points_per_side=7)

    @pytest.mark.parametrize("frac", [0.0, 1.2])
    def test_band_fraction_bounds(self, frac):
        with pytest.raises(ValueError):
            EnvelopeConfig(band_energy_frac=frac)

    @pytest.mark.parametrize("pf", [0.0, 1.0])
    def test_peak_fraction_bounds(self, pf):
        with pytest.raises(ValueError):
            EnvelopeConfig(peak_fraction=pf)
