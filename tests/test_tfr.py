"""Spectrogram tests: direct DFT oracle, tone localization, image mapping."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from mdgest.simulate import IQRecord
from mdgest.tfr import (
    _BLOCK_COLS,
    _CHUNK_COLS,
    _block_form,
    _block_power,
    _block_twiddles,
    GrayImage,
    Spectrogram,
    StftConfig,
    resize_bilinear,
    spectrogram,
    spectrogram_to_csv,
    stft_power,
    to_gray,
    vectorize,
    write_pgm,
)

FS = 12800.0


def reference_stft(x, cfg):
    """Column-by-column DFT loop, independent of the vectorized path."""
    n_cols = (len(x) - cfg.window_len) // cfg.hop + 1
    power = np.empty((cfg.fft_size, n_cols))
    for n in range(n_cols):
        frame = x[n * cfg.hop : n * cfg.hop + cfg.window_len]
        bins = np.zeros(cfg.fft_size, dtype=complex)
        for k in range(cfg.fft_size):
            bins[k] = np.sum(frame * np.exp(-2j * np.pi * k * np.arange(len(frame)) / cfg.fft_size))
        power[:, n] = np.fft.fftshift(np.abs(bins) ** 2)
    return power


class TestStftOracle:
    def test_matches_direct_dft(self):
        rng = np.random.Generator(np.random.PCG64(0))
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        cfg = StftConfig(window_len=16, fft_size=32, hop=8)
        spec = stft_power(x, FS, cfg)
        ref = reference_stft(x, cfg)
        np.testing.assert_allclose(spec.power, ref, rtol=1e-9, atol=1e-9)

    def test_column_count_and_timestamps(self):
        cfg = StftConfig(window_len=16, fft_size=16, hop=4)
        spec = stft_power(np.zeros(40, dtype=complex), FS, cfg)
        assert spec.n_cols == (40 - 16) // 4 + 1
        np.testing.assert_allclose(spec.time_s[0], (16 / 2) / FS)
        np.testing.assert_allclose(np.diff(spec.time_s), 4 / FS)

    def test_frequency_axis_ascending_and_centered(self):
        spec = stft_power(np.zeros(4096, dtype=complex), FS, StftConfig())
        assert spec.freq_hz[0] == -FS / 2
        assert np.all(np.diff(spec.freq_hz) > 0)
        assert spec.freq_res_hz == pytest.approx(FS / 4096)

    def test_parseval_per_column(self):
        """Zero-padded DFT energy is fft_size times the frame energy."""
        rng = np.random.Generator(np.random.PCG64(1))
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        cfg = StftConfig(window_len=2048, fft_size=4096, hop=1024)
        spec = stft_power(x, FS, cfg)
        for n in range(spec.n_cols):
            frame = x[n * cfg.hop : n * cfg.hop + cfg.window_len]
            expected = cfg.fft_size * np.sum(np.abs(frame) ** 2)
            assert spec.power[:, n].sum() == pytest.approx(expected, rel=1e-12)

    def test_rejects_short_input_and_bad_config(self):
        with pytest.raises(ValueError, match="shorter"):
            stft_power(np.zeros(10, dtype=complex), FS, StftConfig())
        with pytest.raises(ValueError, match="FFT size"):
            StftConfig(window_len=64, fft_size=32)


@pytest.mark.prop
class TestToneLocalization:
    """A pure tone must peak within one bin of its true frequency."""

    @pytest.mark.parametrize("f0", [-433.0, -50.0, 123.4, 480.0, 2000.0])
    def test_tone_peak_row(self, f0):
        t = np.arange(int(FS)) / FS
        rec = IQRecord(np.exp(2j * np.pi * f0 * t), FS)
        spec = spectrogram(rec)
        rows = spec.power.argmax(axis=0)
        peak_freqs = spec.freq_hz[rows]
        assert np.all(np.abs(peak_freqs - f0) <= spec.freq_res_hz)

    def test_chirp_follows_instantaneous_frequency(self):
        """Per column, the argmax tracks the chirp's center frequency."""
        rate = 200.0  # Hz per second
        t = np.arange(int(FS)) / FS
        phase = 2 * np.pi * (0.5 * rate * t**2 - 400.0 * t)
        spec = stft_power(np.exp(1j * phase), FS, StftConfig())
        inst = -400.0 + rate * spec.time_s
        peak = spec.freq_hz[spec.power.argmax(axis=0)]
        assert np.all(np.abs(peak - inst) <= 2 * spec.freq_res_hz)


def one_shot_power(x, fs, cfg):
    """Every column in one FFT call, fftshifted: the unblocked STFT."""
    n_cols = (len(x) - cfg.window_len) // cfg.hop + 1
    idx = cfg.hop * np.arange(n_cols)[:, None] + np.arange(cfg.window_len)[None, :]
    spec = scipy.fft.fft(x[idx], n=cfg.fft_size, axis=1)
    power = np.fft.fftshift(np.abs(spec) ** 2, axes=1).T
    return power, np.fft.fftshift(np.fft.fftfreq(cfg.fft_size, d=1.0 / fs))


# The hop-block path matches the exact STFT to float32 rounding: every
# band value lies within this share of its column's scale (the worst seen
# on random complex64 signals was 1.0e-6).  A column's scale is its band
# peak, or its frame energy where that is larger.  The frame energy is
# the mean power per bin (Parseval) and sets the size of any transform's
# rounding error; a one-row band can peak far below it, and there a
# single-precision FFT misses the exact value by more than 1e-5 of the
# peak too.
BLOCK_COLUMN_RTOL = 1e-5


def assert_block_close(power, x, cfg, keep):
    """Each column of ``power`` within ``BLOCK_COLUMN_RTOL`` of the scale
    of the same column of the float64 STFT of ``x``, rows ``keep``."""
    want = one_shot_power(x.astype(np.complex128), FS, cfg)[0][keep]
    frames = np.lib.stride_tricks.sliding_window_view(x.astype(np.complex128), cfg.window_len)
    energy = (np.abs(frames[:: cfg.hop]) ** 2).sum(axis=1)
    err = np.abs(power.astype(float) - want).max(axis=0)
    scale = np.maximum(want.max(axis=0), energy)
    assert np.all(err <= BLOCK_COLUMN_RTOL * scale), float((err / scale).max())


class TestBlockedBandStft:
    """Columns transformed in blocks or from hop blocks, rows kept in a band."""

    def signal(self, n, dtype=np.complex64, seed=3, scale=1.0):
        rng = np.random.Generator(np.random.PCG64(seed))
        if np.dtype(dtype).kind != "c":  # real input, integers in a few hundred
            return np.round(100.0 * rng.standard_normal(n)).astype(dtype)
        return (scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))).astype(dtype)

    # Real input takes scipy's real-input path, whose bits a complex copy
    # would not reproduce.
    @pytest.mark.parametrize(
        "n, dtype",
        [
            (2048 + 128 * (3 * _BLOCK_COLS + 5), np.complex64),  # not a multiple of the block
            (2048, np.complex64),  # exactly one window: one column
            (2048 + 128 * (_BLOCK_COLS + 1), np.complex128),
            (2048 + 128 * (_BLOCK_COLS + 1), np.float32),
            (2048 + 128 * (_BLOCK_COLS + 1), np.float64),
            (2048 + 128 * (_BLOCK_COLS + 1), np.int64),
        ],
        ids=["ragged", "one-window", "complex128", "float32", "float64", "int64"],
    )
    @pytest.mark.parametrize("band_hz", [None, 640.0, 500.0, 12.0])
    def test_equals_band_rows_of_one_shot_stft(self, n, dtype, band_hz):
        """The FFT path keeps the bits of the one-shot STFT; a band of
        complex samples takes the hop-block path, within its bound."""
        cfg = StftConfig()
        x = self.signal(n, dtype)
        full, freq = one_shot_power(x, FS, cfg)
        spec = stft_power(x, FS, cfg, band_hz)
        keep = np.ones(len(freq), bool) if band_hz is None else np.isin(freq, spec.freq_hz)
        assert _block_form(x, cfg, band_hz) == (band_hz is not None and np.dtype(dtype).kind == "c")
        assert spec.power.dtype == full.dtype
        assert spec.power.shape == (keep.sum(), full.shape[1])
        if _block_form(x, cfg, band_hz):
            assert_block_close(spec.power, x, cfg, keep)
        else:
            np.testing.assert_array_equal(spec.power, full[keep])
        np.testing.assert_array_equal(spec.freq_hz, freq[keep])
        # the same (rows x cols) orientation: a transposed (cols x rows) array
        assert spec.power.strides[0] < spec.power.strides[1] or spec.power.shape[1] == 1

    @pytest.mark.parametrize(
        "cfg, dtype, band_hz, block",
        [
            (StftConfig(), np.complex64, 640.0, True),
            (StftConfig(), np.complex128, 0.0, True),
            (StftConfig(window_len=128, fft_size=256, hop=128), np.complex64, 640.0, True),
            (StftConfig(), np.complex64, None, False),  # full band
            (StftConfig(), np.float32, 640.0, False),  # real samples
            (StftConfig(window_len=1536, hop=128), np.complex64, 640.0, False),  # 12 hops
            (StftConfig(window_len=100, fft_size=128, hop=24), np.complex64, 640.0, False),
        ],
    )
    def test_path_rule(self, cfg, dtype, band_hz, block):
        assert _block_form(np.zeros(4096, dtype), cfg, band_hz) == block

    @pytest.mark.prop
    @settings(max_examples=40, deadline=None)
    @given(
        cfg=st.sampled_from([StftConfig(), StftConfig(window_len=256, fft_size=1024, hop=32)]),
        n_cols=st.integers(1, 80),
        extra=st.integers(0, 127),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        band_hz=st.sampled_from([0.0, 12.0, 500.0, 640.0, 3000.0, 6400.0]),
        dtype=st.sampled_from([np.complex64, np.complex128]),
        seed=st.integers(0, 2**16),
    )
    def test_block_path_matches_one_shot_power(self, cfg, n_cols, extra, scale, band_hz, dtype, seed):
        n = cfg.window_len + cfg.hop * (n_cols - 1) + extra % cfg.hop
        x = self.signal(n, dtype, seed, scale)
        assert _block_form(x, cfg, band_hz)
        full, freq = one_shot_power(x, FS, cfg)
        spec = stft_power(x, FS, cfg, band_hz)
        keep = np.isin(freq, spec.freq_hz)
        assert spec.power.dtype == full.dtype
        assert spec.power.shape == (keep.sum(), n_cols)
        assert_block_close(spec.power, x, cfg, keep)
        np.testing.assert_array_equal(spec.freq_hz, freq[keep])

    def test_offset_view_gives_the_same_bytes(self):
        """Samples inside a larger buffer, at any alignment, give the bits
        of the same samples in an array of their own."""
        x = self.signal(2048 + 128 * 200 + 37)
        want = stft_power(x, FS, StftConfig(), 640.0).power.tobytes()
        for offset in (1, 3, 8, 129):
            buf = np.zeros(len(x) + 2 * offset, x.dtype)
            view = buf[offset : offset + len(x)]
            view[:] = x
            assert stft_power(view, FS, StftConfig(), 640.0).power.tobytes() == want

    def test_blas_thread_count_does_not_change_bytes(self):
        """The block path's matrix product runs in BLAS; one and two
        OpenBLAS threads give the same power bytes."""
        script = (
            "import hashlib, numpy as np\n"
            "from mdgest.tfr import StftConfig, stft_power\n"
            "rng = np.random.Generator(np.random.PCG64(5))\n"
            "x = (rng.standard_normal(64000) + 1j * rng.standard_normal(64000)).astype(np.complex64)\n"
            "print(hashlib.sha256(stft_power(x, 12800.0, StftConfig(), 640.0).power.tobytes()).hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]

    @pytest.mark.parametrize("band_hz", [640.0, 500.0, 3.0, 0.0])
    def test_band_is_the_fewest_rows_covering_it(self, band_hz):
        spec = stft_power(self.signal(4096), FS, StftConfig(), band_hz)
        df = FS / StftConfig().fft_size
        assert spec.freq_hz[0] <= -band_hz and spec.freq_hz[-1] >= band_hz
        assert spec.freq_hz[0] > -band_hz - df and spec.freq_hz[-1] < band_hz + df
        assert np.all(np.diff(spec.freq_hz) > 0)
        with pytest.raises(ValueError, match="non-negative"):
            stft_power(self.signal(4096), FS, StftConfig(), -1.0)


def whole_block_power(x, cfg, lo, hi, n_cols):
    """The hop-block power as one whole-array product and combine, a new
    array per level: the arithmetic the chunked path must keep."""
    dft, steps = _block_twiddles(cfg, lo, hi, x.dtype)
    n_blocks = n_cols + cfg.window_len // cfg.hop - 1
    acc = x[: n_blocks * cfg.hop].reshape(n_blocks, cfg.hop) @ dft
    for s, twiddle in steps:
        acc = acc[:-s] + acc[s:] * twiddle
    power = acc.real**2
    power += acc.imag**2
    return power


class TestBlockChunks:
    """The chunked hop-block path has the bytes of the whole-array one."""

    LO, HI = 1843, 2253  # the default 640 Hz band of a 4096-bin STFT

    def signal(self, n_cols, dtype, seed, extra=0):
        cfg = StftConfig()
        n = cfg.window_len + cfg.hop * (n_cols - 1) + extra
        rng = np.random.Generator(np.random.PCG64(seed))
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize(
        "n_cols, extra",
        [
            (1, 0),
            (_CHUNK_COLS - 1, 0),
            (_CHUNK_COLS, 0),
            (_CHUNK_COLS + 1, 0),
            (2 * _CHUNK_COLS + 5, 0),
            (2 * _CHUNK_COLS + 5, 77),  # a ragged tail of samples no frame reaches
        ],
    )
    def test_chunks_keep_the_whole_array_bytes(self, n_cols, extra, dtype):
        cfg = StftConfig()
        x = self.signal(n_cols, dtype, seed=n_cols + extra, extra=extra)
        want = whole_block_power(x, cfg, self.LO, self.HI, n_cols)
        out = np.empty_like(want)
        _block_power(x, cfg, self.LO, self.HI, out)
        assert out.tobytes() == want.tobytes()
        spec = stft_power(x, FS, cfg, 640.0)
        assert spec.freq_hz.size == self.HI - self.LO + 1
        assert spec.power.T.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_writes_only_its_slice_of_a_larger_array(self, dtype):
        """As recentring writes a partial transform into its columns."""
        cfg = StftConfig()
        n_cols = _CHUNK_COLS + 9
        x = self.signal(n_cols, dtype, seed=11)
        want = whole_block_power(x, cfg, self.LO, self.HI, n_cols)
        big = np.full((n_cols + 40, want.shape[1]), -1.0, want.dtype)
        _block_power(x, cfg, self.LO, self.HI, big[17 : 17 + n_cols])
        assert big[17 : 17 + n_cols].tobytes() == want.tobytes()
        assert np.all(big[:17] == -1.0) and np.all(big[17 + n_cols :] == -1.0)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_working_memory_below_the_whole_product(self, dtype):
        """One default band STFT of a 5 s record holds less working memory
        than the whole (blocks x rows) complex product would."""
        cfg = StftConfig()
        x = self.signal(1, dtype, seed=2, extra=64_000 - cfg.window_len)
        stft_power(x, FS, cfg, 640.0)  # the twiddles are cached after this
        tracemalloc.start()
        try:
            spec = stft_power(x, FS, cfg, 640.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_blocks = spec.n_cols + cfg.window_len // cfg.hop - 1
        product = n_blocks * spec.freq_hz.size * np.dtype(dtype).itemsize
        assert peak - spec.power.nbytes < product, (peak, spec.power.nbytes, product)


class TestCropBand:
    def test_crop_keeps_band(self):
        spec = stft_power(np.zeros(4096, dtype=complex), FS, StftConfig())
        cut = spec.crop_band(640.0)
        assert np.abs(cut.freq_hz).max() <= 640.0
        assert cut.power.shape[0] == len(cut.freq_hz)
        assert cut.n_cols == spec.n_cols

    def test_crop_everything_raises(self):
        spec = Spectrogram(np.ones((3, 2)), np.arange(2.0), np.array([100.0, 200.0, 300.0]))
        with pytest.raises(ValueError, match="every frequency row"):
            spec.crop_band(10.0)


class TestGrayImage:
    def test_peak_maps_to_one_and_clip_to_zero(self):
        power = np.array([[1.0, 1e-6], [1e-12, 0.0]])
        spec = Spectrogram(power, np.array([0.0, 1.0]), np.array([-1.0, 1.0]))
        img = to_gray(spec, size=(2, 2), dyn_range_db=50.0)
        assert img.pixels[0, 0] == pytest.approx(1.0)
        assert img.pixels[0, 1] == pytest.approx(1.0 - 60.0 / 50.0 + 10.0 / 50.0)  # -60 dB clipped to -50
        assert img.pixels[1, 0] == pytest.approx(0.0)  # -120 dB, clipped
        assert img.pixels[1, 1] == pytest.approx(0.0)  # log of zero, clipped

    def test_zero_spectrogram_is_black(self):
        spec = Spectrogram(np.zeros((4, 5)), np.arange(5.0), np.linspace(-1, 1, 4))
        img = to_gray(spec, size=(3, 3))
        assert np.all(img.pixels == 0.0)

    def test_constant_spectrogram_is_white(self):
        spec = Spectrogram(np.full((4, 5), 2.5), np.arange(5.0), np.linspace(-1, 1, 4))
        img = to_gray(spec, size=(4, 4))
        np.testing.assert_allclose(img.pixels, 1.0)

    def test_pixels_bounded(self):
        rng = np.random.Generator(np.random.PCG64(7))
        spec = Spectrogram(rng.random((30, 40)), np.arange(40.0), np.linspace(-1, 1, 30))
        img = to_gray(spec, size=(10, 12), dyn_range_db=25.0)
        assert img.size == (10, 12)
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0

    def test_rejects_nonpositive_dyn_range(self):
        spec = Spectrogram(np.ones((2, 2)), np.arange(2.0), np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="dynamic range"):
            to_gray(spec, dyn_range_db=0.0)


class TestResize:
    def test_identity_when_same_size(self):
        a = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(resize_bilinear(a, (3, 4)), a)

    def test_corner_alignment(self):
        a = np.arange(20.0).reshape(4, 5)
        out = resize_bilinear(a, (7, 9))
        assert out[0, 0] == a[0, 0]
        assert out[-1, -1] == a[-1, -1]
        assert out[0, -1] == a[0, -1]

    def test_constant_preserved(self):
        out = resize_bilinear(np.full((3, 3), 4.2), (10, 2))
        np.testing.assert_allclose(out, 4.2)

    def test_linear_ramp_exact(self):
        """Bilinear resampling reproduces an affine surface exactly."""
        r = np.linspace(0, 1, 6)[:, None]
        c = np.linspace(0, 2, 5)[None, :]
        out = resize_bilinear(r + c, (11, 9))
        rr = np.linspace(0, 1, 11)[:, None]
        cc = np.linspace(0, 2, 9)[None, :]
        np.testing.assert_allclose(out, rr + cc, atol=1e-12)

    def test_single_row_repeats(self):
        out = resize_bilinear(np.array([[1.0, 2.0]]), (3, 2))
        np.testing.assert_array_equal(out, np.tile([1.0, 2.0], (3, 1)))


class TestSerialization:
    def test_vectorize_row_major(self):
        img = GrayImage(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(vectorize(img), [1.0, 2.0, 3.0, 4.0])
        v = vectorize(img)
        v[0] = -1.0
        assert img.pixels[0, 0] == 1.0  # a copy, not a view

    def test_write_pgm_layout(self, tmp_path):
        img = GrayImage(np.array([[0.0, 0.5], [1.0, 0.25]]))
        path = tmp_path / "x.pgm"
        write_pgm(img, path)
        raw = path.read_bytes()
        header = b"P5\n2 2\n255\n"
        assert raw.startswith(header)
        data = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(2, 2)
        # top row of the file is the last (highest-frequency) matrix row
        np.testing.assert_array_equal(data, [[255, 64], [0, 128]])

    def test_csv_headers(self, tmp_path):
        spec = Spectrogram(np.ones((2, 3)), np.array([0.0, 0.1, 0.2]), np.array([-10.0, 10.0]))
        path = tmp_path / "m.csv"
        spectrogram_to_csv(spec, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("time_s,")
        assert lines[1].startswith("freq_hz,")
        assert len(lines) == 2 + 2
