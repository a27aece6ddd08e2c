"""Simulator checks: Doppler physics, SNR calibration, dataset plumbing."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdgest import simulate as sim
from mdgest.simulate import (
    DOPPLER_BAND_HZ,
    MAX_RADIAL_SPEED_MS,
    MOTION_SPEED_MS,
    SPEED_MODES,
    Dataset,
    GestureLabel,
    IQRecord,
    ScattererTrack,
    SimConfig,
    active_interval,
    default_grid,
    generate_dataset,
    gesture_tracks,
    simulate_record,
    synthesize,
)

FS = 12800.0


def constant_velocity_track(v_ms, cfg, r0=3.0, amplitude=1.0):
    t = np.arange(cfg.n_samples) / cfg.sample_rate_hz
    return ScattererTrack(r0 + v_ms * t, amplitude, cfg.sample_rate_hz)


def raised_cosine_oracle(t, t0, dur):
    """The stroke ramp over every sample, clipped to [0, 1] before the cosine."""
    u = np.clip((t - t0) / dur, 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * u))


def gesture_tracks_oracle(label, cfg):
    """(ranges, amplitude) per track, one full-length ramp per track and stroke.

    The same draws as ``gesture_tracks``, with every ramp recomputed for
    every track over all samples and added to the whole range history.
    """
    label = GestureLabel(label)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0])))
    stretch = sim._SLOW_STRETCH if cfg.speed == "slow" else 1.0
    tempo = stretch * rng.uniform(0.93, 1.07)
    size = rng.uniform(0.92, 1.08)
    strokes = [
        (
            gap * tempo * rng.uniform(0.98, 1.02),
            dur * tempo * rng.uniform(0.98, 1.02),
            delta * size * rng.uniform(0.98, 1.02),
        )
        for gap, dur, delta in sim._HAND_STROKES[label]
    ]
    span = sum(g + d for g, d, _ in strokes)
    start_lo = sim._EDGE_MARGIN_S
    start_hi = max(cfg.duration_s - span - sim._EDGE_MARGIN_S, start_lo)
    start = np.clip(
        (cfg.duration_s - span) / 2 + rng.uniform(-sim._START_JITTER_S, sim._START_JITTER_S),
        start_lo,
        start_hi,
    )
    arm_gain = rng.uniform(0.93, 1.07, size=2)
    arm_shift = rng.uniform(-0.02, 0.02)

    t = np.arange(cfg.n_samples) / cfg.sample_rate_hz
    tracks = []
    for arm in range(2):
        mirrored = label in sim._MIRRORED
        sign = -1.0 if arm == 1 and mirrored else 1.0
        arm_weight = 1.0 if arm == 0 or mirrored else sim._OFF_ARM_WEIGHT
        arm_range = sim._REST_RANGE_M + (0.0 if arm == 0 else sim._OFF_ARM_RANGE_M)
        for scale, weight, offset in sim._ARM_SCATTERERS:
            r = np.full(cfg.n_samples, arm_range + offset)
            t0 = start + arm_shift
            for gap, dur, delta in strokes:
                t0 += gap
                r += sign * delta * scale * arm_gain[arm] * raised_cosine_oracle(t, t0, dur)
                t0 += dur
            tracks.append((r, weight * arm_weight * cfg.angle_gain))
    tracks.append((np.full(cfg.n_samples, sim._TORSO_RANGE_M), sim._TORSO_AMPLITUDE * cfg.angle_gain))
    return tracks


def active_interval_oracle(tracks, cfg):
    """The motion span from every track's full speed history."""
    hot = np.zeros(cfg.n_samples - 1, dtype=bool)
    for tr in tracks:
        hot |= np.abs(np.diff(tr.ranges_m) * tr.sample_rate_hz) >= MOTION_SPEED_MS
    idx = np.flatnonzero(hot)
    if idx.size == 0:
        return None
    return idx[0] / cfg.sample_rate_hz, (idx[-1] + 1) / cfg.sample_rate_hz


def synthesize_oracle(tracks, cfg):
    """(samples, active_s) with every return's exp taken over all samples."""
    n = cfg.n_samples
    signal = np.zeros(n, dtype=complex)
    k = 4.0 * np.pi / cfg.wavelength_m
    for tr in tracks:
        if tr.amplitude > 0:
            signal += tr.amplitude * np.exp(-1j * k * tr.ranges_m)
    active = active_interval_oracle(tracks, cfg)
    if active is None:
        sl = slice(0, n)
    else:
        sl = slice(int(active[0] * cfg.sample_rate_hz), int(active[1] * cfg.sample_rate_hz))
    p_signal = float(np.mean(np.abs(signal[sl]) ** 2))
    if p_signal == 0.0:
        variance = cfg.noise_floor
    elif np.isinf(cfg.snr_db):
        variance = 0.0
    else:
        variance = p_signal / 10.0 ** (cfg.snr_db / 10.0)
    if variance > 0.0:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 1])))
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        spec = np.fft.fft(w)
        spec[np.abs(np.fft.fftfreq(n, d=1.0 / cfg.sample_rate_hz)) > DOPPLER_BAND_HZ] = 0.0
        w = np.fft.ifft(spec)
        w *= np.sqrt(variance / np.mean(np.abs(w) ** 2))
        signal = signal + w
    return signal.astype(np.complex64), active


def assert_same_record(rec, oracle):
    samples, active = oracle
    assert rec.samples.dtype == samples.dtype
    assert np.array_equal(rec.samples, samples)
    assert rec.active_s == active
    if active is not None:
        assert [type(a) for a in rec.active_s] == [type(a) for a in active]


class TestSynthesisOracles:
    """Shared ramps and closed-form constant spans keep every bit."""

    @pytest.mark.prop
    @settings(max_examples=30, deadline=None)
    @given(
        label=st.sampled_from(list(GestureLabel)),
        angle=st.sampled_from(sorted({c.angle_deg for c in default_grid()})),
        speed=st.sampled_from(SPEED_MODES),
        seed=st.integers(0, 2**31 - 1),
        snr_db=st.sampled_from([10.0, 0.0, np.inf]),
    )
    @example(label=GestureLabel.CROSS_OPEN, angle=-20.0, speed="slow", seed=0, snr_db=10.0)
    @example(label=GestureLabel.ROLL, angle=20.0, speed="normal", seed=2**31 - 1, snr_db=np.inf)
    def test_records_equal_the_oracles(self, label, angle, speed, seed, snr_db):
        cfg = SimConfig(angle_deg=angle, speed=speed, seed=seed, snr_db=snr_db)
        tracks = gesture_tracks(label, cfg)
        expected = gesture_tracks_oracle(label, cfg)
        assert len(tracks) == len(expected)
        for tr, (ranges, amplitude) in zip(tracks, expected):
            assert np.array_equal(tr.ranges_m, ranges)
            assert tr.amplitude == amplitude
        assert_same_record(synthesize(tracks, cfg), synthesize_oracle(tracks, cfg))

    # A stroke whose closing sample t_i lies at or past fl(t0 + dur) while
    # fl((t_i - t0) / dur) is still just below 1.
    CLOSING = (0.5873150982241826, 0.3648724017758174)

    @pytest.mark.parametrize(
        "t0, dur", [CLOSING, (0.0, 0.25), (-0.1, 0.3), (0.7, 0.5), (1.5, 0.2), (0.31, 1e-5)]
    )
    def test_ramp_support_and_values(self, t0, dur):
        t = np.arange(12800) / FS
        lo, hi, ramp = sim._raised_cosine(t, t0, dur)
        u = (t - t0) / dur
        inside = np.flatnonzero((u > 0.0) & (u < 1.0))
        assert (lo, hi) == ((inside[0], inside[-1] + 1) if inside.size else (lo, lo))
        full = np.concatenate([np.zeros(lo), ramp, np.ones(t.size - hi)])
        assert np.array_equal(full, raised_cosine_oracle(t, t0, dur))

    def test_closing_sample_is_inside_the_support(self):
        t = np.arange(12800) / FS
        t0, dur = self.CLOSING
        lo, hi, _ = sim._raised_cosine(t, t0, dur)
        assert t[hi - 1] >= t0 + dur and (t[hi - 1] - t0) / dur < 1.0
        assert np.searchsorted(t, t0 + dur) == hi - 1

    STEP = 1e-4  # 1.28 m/s between samples at 12.8 kHz
    N = 12800

    @staticmethod
    def crafted(kind, n=N, step=STEP):
        r = np.full(n, 3.0)
        if kind == "moves at sample 0":
            r[0] -= step
        elif kind == "moves at the last sample":
            r[-1] += step
        elif kind == "moves at one sample":
            r[n // 3] += step
        elif kind == "unequal head and tail":
            r[n // 4 : n // 2] += np.linspace(0.0, 0.05, n // 2 - n // 4)
            r[n // 2 :] += 0.05
        return r

    MOVING = {
        "moves at sample 0": (1, 1),
        "moves at the last sample": (N - 1, N - 1),
        "moves at one sample": (N // 3, N // 3 + 1),
        "all constant": (N, N),
        "unequal head and tail": (N // 4 + 1, N // 2 - 1),
    }

    @pytest.mark.parametrize("kind", list(MOVING))
    @pytest.mark.parametrize("snr_db", [10.0, np.inf])
    def test_crafted_track(self, kind, snr_db):
        cfg = SimConfig(duration_s=1.0, snr_db=snr_db, seed=21)
        tr = ScattererTrack(self.crafted(kind), 0.9, FS)
        assert tuple(tr.moving) == self.MOVING[kind]
        assert_same_record(synthesize([tr], cfg), synthesize_oracle([tr], cfg))

    @pytest.mark.parametrize("snr_db", [10.0, np.inf])
    def test_crafted_tracks_together(self, snr_db):
        cfg = SimConfig(duration_s=1.0, snr_db=snr_db, seed=22)
        tracks = [ScattererTrack(self.crafted(kind), 0.2 + 0.1 * i, FS) for i, kind in enumerate(self.MOVING)]
        # a zero-amplitude return still moves, so it still bounds the active span
        silent = np.full(self.N, 3.2)
        silent[100:200] += np.linspace(0.0, 0.01, 100)
        silent[200:] += 0.01
        tracks.append(ScattererTrack(silent, 0.0, FS))
        rec = synthesize(tracks, cfg)
        assert rec.active_s[0] == 0.0
        assert_same_record(rec, synthesize_oracle(tracks, cfg))

    def test_zero_amplitude_track_alone(self):
        cfg = SimConfig(duration_s=1.0, seed=23)
        tr = ScattererTrack(self.crafted("unequal head and tail"), 0.0, FS)
        rec = synthesize([tr], cfg)
        assert rec.active_s is not None
        assert_same_record(rec, synthesize_oracle([tr], cfg))

    def test_track_holds_a_frozen_copy(self):
        r = self.crafted("unequal head and tail")
        tr = ScattererTrack(r, 1.0, FS)
        r[:] = 3.3
        assert tr.ranges_m[0] == 3.0 and tr.ranges_m[-1] == 3.05
        with pytest.raises(ValueError, match="read-only"):
            tr.ranges_m[0] = 3.3
        with pytest.raises(dataclasses.FrozenInstanceError):
            tr.ranges_m = r


class TestDopplerPhysics:
    """A moving scatterer must land on the textbook Doppler line."""

    @pytest.mark.parametrize("v_ms", [-2.4, -0.8, 0.5, 1.5])
    def test_single_tone_frequency(self, v_ms):
        cfg = SimConfig(duration_s=1.0, snr_db=np.inf)
        rec = synthesize([constant_velocity_track(v_ms, cfg)], cfg)
        spec = np.fft.fftshift(np.fft.fft(rec.samples))
        freqs = np.fft.fftshift(np.fft.fftfreq(cfg.n_samples, d=1.0 / FS))
        expected = -2.0 * v_ms / cfg.wavelength_m
        measured = freqs[np.argmax(np.abs(spec))]
        assert abs(measured - expected) <= 1.0 / cfg.duration_s  # one FFT bin

    def test_two_tone_amplitudes(self):
        cfg = SimConfig(duration_s=1.0, snr_db=np.inf)
        tracks = [
            constant_velocity_track(-1.2, cfg, r0=3.0, amplitude=1.0),
            constant_velocity_track(0.9, cfg, r0=2.5, amplitude=0.5),
        ]
        rec = synthesize(tracks, cfg)
        spec = np.abs(np.fft.fftshift(np.fft.fft(rec.samples)))
        freqs = np.fft.fftshift(np.fft.fftfreq(cfg.n_samples, d=1.0 / FS))
        f1 = -2.0 * -1.2 / cfg.wavelength_m
        f2 = -2.0 * 0.9 / cfg.wavelength_m
        a1 = spec[np.argmin(np.abs(freqs - f1))]
        a2 = spec[np.argmin(np.abs(freqs - f2))]
        assert a1 == pytest.approx(cfg.n_samples * 1.0, rel=1e-3)
        assert a2 == pytest.approx(cfg.n_samples * 0.5, rel=1e-3)

    def test_static_scene_is_dc_only(self):
        cfg = SimConfig(duration_s=1.0, snr_db=np.inf)
        tr = ScattererTrack(np.full(cfg.n_samples, 3.0), 1.0, FS)
        rec = synthesize([tr], cfg)
        spec = np.abs(np.fft.fft(rec.samples))
        assert spec[0] == pytest.approx(cfg.n_samples, rel=1e-9)
        assert spec[1:].max() < 1e-6 * spec[0]


class TestNoise:
    def test_snr_against_noiseless_twin(self):
        """Noise power over the active interval must match the configured
        SNR; the deterministic part is recovered from an inf-SNR twin."""
        for lab in (GestureLabel.PUSH_PULL, GestureLabel.STOP_SIGN):
            cfg = SimConfig(seed=77, snr_db=10.0)
            clean = simulate_record(lab, SimConfig(seed=77, snr_db=np.inf))
            noisy = simulate_record(lab, cfg)
            noise = noisy.samples.astype(complex) - clean.samples.astype(complex)
            lo, hi = (int(round(s * FS)) for s in noisy.active_s)
            p_sig = np.mean(np.abs(clean.samples[lo:hi]) ** 2)
            p_noise = np.mean(np.abs(noise) ** 2)
            snr_db = 10.0 * np.log10(p_sig / p_noise)
            assert snr_db == pytest.approx(10.0, abs=0.05)

    def test_noise_is_band_limited(self):
        cfg = SimConfig(seed=5, snr_db=0.0)
        clean = simulate_record(GestureLabel.CROSS, SimConfig(seed=5, snr_db=np.inf))
        noisy = simulate_record(GestureLabel.CROSS, cfg)
        noise = noisy.samples.astype(complex) - clean.samples.astype(complex)
        spec = np.fft.fft(noise)
        out_of_band = np.abs(np.fft.fftfreq(len(noise), d=1.0 / FS)) > DOPPLER_BAND_HZ
        in_power = np.sum(np.abs(spec[~out_of_band]) ** 2)
        out_power = np.sum(np.abs(spec[out_of_band]) ** 2)
        assert out_power < 1e-9 * in_power

    def test_kinematics_independent_of_snr(self):
        """Changing only the SNR must not disturb the motion draw."""
        a = gesture_tracks(GestureLabel.ROLL, SimConfig(seed=9, snr_db=0.0))
        b = gesture_tracks(GestureLabel.ROLL, SimConfig(seed=9, snr_db=30.0))
        assert len(a) == len(b)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.ranges_m, tb.ranges_m)

    def test_noise_reproducible(self):
        r1 = simulate_record(GestureLabel.CROSS, SimConfig(seed=3))
        r2 = simulate_record(GestureLabel.CROSS, SimConfig(seed=3))
        np.testing.assert_array_equal(r1.samples, r2.samples)
        r3 = simulate_record(GestureLabel.CROSS, SimConfig(seed=4))
        assert not np.array_equal(r1.samples, r3.samples)


@pytest.mark.prop
class TestKinematicEnvelope:
    """Sampled gestures must respect the speed cap and stay in band."""

    seeds = [11, 222, 3333]

    @pytest.mark.parametrize("label", list(GestureLabel))
    def test_speed_cap_and_positive_range(self, label):
        for seed in self.seeds:
            for speed in ("normal", "slow"):
                cfg = SimConfig(seed=seed, speed=speed)
                for tr in gesture_tracks(label, cfg):
                    v = np.abs(np.diff(tr.ranges_m)) * tr.sample_rate_hz
                    assert v.max() <= MAX_RADIAL_SPEED_MS
                    assert tr.ranges_m.min() > 0

    @pytest.mark.parametrize("label", list(GestureLabel))
    def test_template_stroke_envelope(self, label):
        """Template strokes span 0.25-0.45 m and peak at 1.0-2.5 m/s.

        A raised-cosine displacement of extent ``delta`` over ``dur`` peaks
        at ``pi * |delta| / (2 * dur)``; the trial-to-trial jitter perturbs
        these template values by well under the window margins.
        """
        from mdgest.simulate import _HAND_STROKES

        for _gap, dur, delta in _HAND_STROKES[label]:
            assert 0.25 <= abs(delta) <= 0.45
            peak = np.pi * abs(delta) / (2.0 * dur)
            assert 1.0 <= peak <= 2.5

    def test_angle_attenuates_amplitudes(self):
        on = gesture_tracks(GestureLabel.CROSS, SimConfig(seed=1, angle_deg=0.0))
        off = gesture_tracks(GestureLabel.CROSS, SimConfig(seed=1, angle_deg=20.0))
        for a, b in zip(on, off):
            assert b.amplitude < a.amplitude
            np.testing.assert_array_equal(a.ranges_m, b.ranges_m)


class TestActiveInterval:
    def test_crafted_steps(self):
        cfg = SimConfig(duration_s=1.0)
        n = cfg.n_samples
        r = np.full(n, 3.0)
        lo, hi = int(0.3 * n), int(0.6 * n)
        ramp = np.linspace(0.0, 0.1, hi - lo)
        r[lo:hi] += ramp
        r[hi:] += 0.1
        tracks = [ScattererTrack(r, 1.0, FS)]
        a0, a1 = active_interval(tracks, cfg)
        assert a0 == pytest.approx(0.3, abs=2.0 / FS)
        assert a1 == pytest.approx(0.6, abs=2.0 / FS)

    def test_static_scene_has_no_interval(self):
        cfg = SimConfig(duration_s=1.0)
        tracks = [ScattererTrack(np.full(cfg.n_samples, 3.0), 1.0, FS)]
        assert active_interval(tracks, cfg) is None

    def test_every_gesture_yields_an_interval(self):
        for lab in GestureLabel:
            rec = simulate_record(lab, SimConfig(seed=2))
            assert rec.active_s is not None
            a0, a1 = rec.active_s
            assert 0.0 <= a0 < a1 <= rec.duration_s


class TestValidation:
    def test_track_rejects_nonpositive_range(self):
        with pytest.raises(ValueError, match="positive"):
            ScattererTrack(np.array([1.0, -0.5, 1.0]), 1.0, FS)

    def test_track_rejects_excessive_speed(self):
        r = np.array([3.0, 3.0 + 2 * MAX_RADIAL_SPEED_MS / FS, 3.0])
        with pytest.raises(ValueError, match="speed"):
            ScattererTrack(r, 1.0, FS)

    def test_config_rejects_bad_speed_mode(self):
        with pytest.raises(ValueError, match="speed"):
            SimConfig(speed="fast")

    def test_config_rejects_undersampling(self):
        with pytest.raises(ValueError, match="under-samples"):
            SimConfig(sample_rate_hz=800.0)

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_config_rejects_snr_without_a_noise_level(self, snr_db):
        with pytest.raises(ValueError, match="SNR"):
            SimConfig(snr_db=snr_db)

    def test_positive_infinite_snr_means_no_noise(self):
        cfg = SimConfig(duration_s=1.0, snr_db=np.inf)
        rec = synthesize([constant_velocity_track(1.0, cfg)], cfg)
        # one unit-amplitude scatterer and nothing else
        np.testing.assert_allclose(np.abs(rec.samples), 1.0, rtol=1e-6)

    def test_label_letters_roundtrip(self):
        # Reports and CSVs name the classes a..f in label order.
        letters = "".join(lab.letter for lab in GestureLabel)
        assert letters == "abcdef"
        for lab in GestureLabel:
            assert GestureLabel(letters.index(lab.letter)) is lab

    def test_synthesize_rejects_length_mismatch(self):
        cfg = SimConfig(duration_s=1.0)
        bad = ScattererTrack(np.full(10, 3.0), 1.0, FS)
        with pytest.raises(ValueError, match="mismatch"):
            synthesize([bad], cfg)


class TestDataset:
    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 10
        assert {c.speed for c in grid} == {"normal", "slow"}
        assert {c.angle_deg for c in grid} == {-20.0, -10.0, 0.0, 10.0, 20.0}

    def test_generate_counts_and_ids(self):
        ds = generate_dataset(3)
        assert len(ds) == 18
        labels = ds.labels()
        for lab in GestureLabel:
            assert (labels == int(lab)).sum() == 3
        ids = [r.record_id for r in ds.records]
        assert len(set(ids)) == len(ids)
        assert ids[0] == "00000a"
        assert all(rid[-1] == r.label.letter for rid, r in zip(ids, ds.records))

    def test_generate_deterministic(self):
        a = generate_dataset(2, base_seed=42)
        b = generate_dataset(2, base_seed=42)
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.samples, rb.samples)
        c = generate_dataset(2, base_seed=43)
        assert not np.array_equal(a.records[0].samples, c.records[0].samples)

    def test_generated_records_are_rows_of_one_block(self):
        ds = generate_dataset(2, base_seed=5)
        base = ds.records[0].samples.base
        assert base is not None and base.shape == (len(ds), ds.records[0].samples.size)
        for rec in ds.records:
            assert rec.samples.base is base
            alone = simulate_record(rec.label, rec.config, record_id=rec.record_id)
            assert rec.samples.dtype == alone.samples.dtype
            np.testing.assert_array_equal(rec.samples, alone.samples)
            assert rec.active_s == alone.active_s

    def test_grid_cells_of_different_lengths_rejected(self):
        grid = [SimConfig(), SimConfig(duration_s=4.0)]
        with pytest.raises(ValueError, match="sample count"):
            generate_dataset(1, grid)

    def test_save_load_roundtrip(self, tmp_path):
        ds = generate_dataset(1)
        ds.save(tmp_path / "ds")
        back = Dataset.load(tmp_path / "ds")
        assert len(back) == len(ds)
        base = back.records[0].samples.base
        assert all(r.samples.base is base for r in back.records)
        for ra, rb in zip(ds.records, back.records):
            np.testing.assert_array_equal(ra.samples, rb.samples)
            assert ra.label == rb.label
            assert ra.record_id == rb.record_id
            assert ra.active_s == pytest.approx(rb.active_s)

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            Dataset.load(tmp_path / "nope")

    def test_load_missing_iq_file(self, tmp_path):
        ds = generate_dataset(1)
        out = ds.save(tmp_path / "ds")
        (out / ds.records[0].record_id).with_suffix(".iq").unlink()
        with pytest.raises(FileNotFoundError, match="missing IQ"):
            Dataset.load(out)

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda x: x[:-1], "63999 samples, expected 64000"),
            (lambda x: np.concatenate([x, x[:5]]), "64005 samples, expected 64000"),
            (lambda x: np.where(np.arange(len(x)) == 7, np.nan, x), "non-finite"),
            (lambda x: np.where(np.arange(len(x)) == 7, 1j * np.inf, x), "non-finite"),
        ],
        ids=["short", "long", "nan", "inf"],
    )
    def test_load_rejects_bad_records(self, tmp_path, twelve_records, corrupt, match):
        rec = twelve_records[0]
        out = Dataset(records=[rec]).save(tmp_path / "ds")
        path = out / f"{rec.record_id}.iq"
        corrupt(np.fromfile(path, dtype="<c8")).astype("<c8").tofile(path)
        with pytest.raises(ValueError, match=match):
            Dataset.load(out)

    def test_manifest_contents(self, tmp_path):
        ds = generate_dataset(1)
        out = ds.save(tmp_path / "ds")
        meta = json.loads((out / "meta.json").read_text())
        assert meta["version"] == 1
        assert meta["sample_rate_hz"] == FS
        entry = meta["records"][0]
        assert set(entry) >= {"id", "label", "angle", "speed", "snr", "seed", "file", "active"}

    def test_iq_file_is_interleaved_float32(self, tmp_path):
        rec = simulate_record(GestureLabel.CROSS, SimConfig(seed=1), record_id="x")
        ds = Dataset(records=[rec])
        out = ds.save(tmp_path / "ds")
        raw = np.fromfile(out / "x.iq", dtype="<f4")
        assert raw.size == 2 * len(rec.samples)
        np.testing.assert_array_equal(raw[0::2] + 1j * raw[1::2], rec.samples)


def test_record_duration_property():
    rec = IQRecord(samples=np.zeros(6400, dtype=np.complex64), sample_rate_hz=FS)
    assert rec.duration_s == pytest.approx(0.5)
