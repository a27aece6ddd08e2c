"""Envelope extraction: ridge recovery, gating, scale invariance, imaging."""

import numpy as np
import pytest

from mdgest.envelope import (
    EnvelopeConfig,
    EnvelopePair,
    IncompleteBand,
    _effective_band,
    envelope_image,
    extract,
    to_feature,
)
from mdgest.tfr import Spectrogram, StftConfig, spectrogram

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
    """A band-limited spectrogram gives the full one's envelope or says it cannot."""

    # At 500 Hz the band cuts into the signal, so fewer envelopes certify.
    @pytest.mark.parametrize("band_hz, min_certified", [(640.0, 5), (500.0, 1)])
    def test_equal_to_full_spectrogram_or_incomplete(self, six_records, band_hz, min_certified):
        certified = 0
        for rec in six_records:
            full = extract(spectrogram(rec, StftConfig()))
            band = spectrogram(rec, StftConfig(), band_hz, measure_outside=True)
            try:
                env = extract(band)
            except IncompleteBand:
                continue
            certified += 1
            np.testing.assert_array_equal(env.upper_hz, full.upper_hz)
            np.testing.assert_array_equal(env.lower_hz, full.lower_hz)
            np.testing.assert_array_equal(env.time_s, full.time_s)
        assert certified >= min_certified

    def test_unmeasured_rows_cannot_be_certified(self, six_records):
        band = spectrogram(six_records[0], StftConfig(), 640.0)
        with pytest.raises(IncompleteBand):
            extract(band)

    def test_peak_outside_the_band_is_incomplete(self):
        spec = ridge_spec(np.full(12, 260.0))
        spec.outside = (2.0 * spec.power.max(), np.zeros(3))
        with pytest.raises(IncompleteBand, match="peak"):
            extract(spec)

    def test_quiet_outside_rows_change_nothing(self):
        spec = ridge_spec(np.full(12, 260.0))
        want = extract(spec)
        spec.outside = (0.0, np.zeros(3))
        got = extract(spec)
        np.testing.assert_array_equal(got.upper_hz, want.upper_hz)

    def test_loud_outside_row_is_incomplete(self):
        spec = ridge_spec(np.full(12, 260.0))
        total = float((spec.power[np.abs(FREQ) >= 20] ** 2).sum())
        spec.outside = (0.0, np.array([0.0, 0.05 * total, 0.0]))
        with pytest.raises(IncompleteBand, match="move"):
            extract(spec)

    def test_effective_band_certifies_or_raises(self):
        """Rows left out of the band, given as energies, either leave the
        complete matrix's edge where the band put it or raise."""
        energy = np.array([0.5, 0.25, 0.125, 0.0625], np.float32)
        absf = np.array([30.0, 40.0, 50.0, 60.0])
        ulp = float(np.spacing(energy.sum()))
        gap = 400 * ulp  # the threshold sits this far below the third row's running total
        frac = (0.875 - gap) / 0.9375

        def band(outside):
            return _effective_band(energy[:, None], absf, np.ones(4, bool), frac, outside)

        def complete(outside):  # every row in the float32 running total
            cum = np.cumsum(np.concatenate([energy, outside.astype(np.float32)]))
            return absf[int(np.searchsorted(cum, frac * cum[-1]))]

        assert band(np.zeros(0)) == 50.0
        quiet = np.full(10_000, 0.4 * ulp)  # each under half a unit: they add nothing
        assert band(quiet) == complete(quiet) == 50.0
        with pytest.raises(IncompleteBand):  # could add up to twice its size
            band(np.array([0.75 * gap / frac]))
        with pytest.raises(IncompleteBand):  # each over half a unit
            band(np.full(300, ulp))
        silent = np.zeros((4, 1), np.float32)  # no in-band energy left in the band
        assert _effective_band(silent, absf, np.ones(4, bool), frac, np.zeros(2)) == 0.0
        with pytest.raises(IncompleteBand):
            _effective_band(silent, absf, np.ones(4, bool), frac, np.array([0.0, 1e-30]))

    @pytest.mark.prop
    def test_float32_total_grows_by_at_most_twice_its_significant_terms(self):
        """The bound extract relies on, at and across binade edges: terms
        under half a unit in the last place add nothing, the others at
        most twice their size."""
        rng = np.random.default_rng(11)
        for trial in range(400):
            total = np.float32(rng.choice([0.22, 0.49999997, 0.9999999, 1.0, 3e-5]))
            half_ulp = float(np.spacing(total)) / 2
            terms = (2 * half_ulp * rng.lognormal(-1.0, 2.0, size=rng.integers(1, 400)))
            terms = terms.astype(np.float32).astype(float)
            acc = np.cumsum(np.concatenate(([total], terms)), dtype=np.float32)[-1]
            assert acc - float(total) <= 2.0 * terms[terms >= half_ulp].sum()


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
