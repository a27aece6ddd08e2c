"""Simulator checks: Doppler physics, SNR calibration, dataset plumbing."""

import json

import numpy as np
import pytest

from mdgest.simulate import (
    DOPPLER_BAND_HZ,
    MAX_RADIAL_SPEED_MS,
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
                    v = np.abs(tr.radial_speed_ms)
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

    def test_label_letters_roundtrip(self):
        for lab in GestureLabel:
            assert GestureLabel.from_letter(lab.letter) is lab
        assert GestureLabel.from_letter("A") is GestureLabel.PUSH_PULL
        with pytest.raises(ValueError, match="unknown gesture letter"):
            GestureLabel.from_letter("z")

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

    def test_save_load_roundtrip(self, tmp_path):
        ds = generate_dataset(1)
        ds.save(tmp_path / "ds")
        back = Dataset.load(tmp_path / "ds")
        assert len(back) == len(ds)
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

    def test_by_class_partitions(self, twelve_records):
        ds = Dataset(records=list(twelve_records))
        by = ds.by_class()
        assert sum(len(v) for v in by.values()) == len(ds)
        for lab, recs in by.items():
            assert all(r.label == lab for r in recs)


def test_record_duration_property():
    rec = IQRecord(samples=np.zeros(6400, dtype=np.complex64), sample_rate_hz=FS)
    assert rec.duration_s == pytest.approx(0.5)
