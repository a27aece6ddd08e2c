"""Spectrograms and gray-scale image conversion.

Short-time Fourier transform with a rectangular window, zero-padded
FFT (``scipy.fft.fft``, in single precision for complex64 samples), and
power output, optionally limited to the rows that cover a band
[-B, +B].  Rows ascend in frequency from -fs/2 (or about -B) toward
+fs/2 (or about +B); column n covers samples
[n*hop, n*hop + window_len) and is stamped with the window-center time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .simulate import IQRecord

# Columns per FFT call: a (64, 4096) complex64 block is 2 MB, allocated
# once per call and reused by every block.
_BLOCK_COLS = 64


@dataclass(frozen=True)
class StftConfig:
    window_len: int = 2048
    fft_size: int = 4096
    hop: int = 128

    def __post_init__(self):
        if self.window_len < 1 or self.hop < 1:
            raise ValueError("window length and hop must be positive")
        if self.fft_size < self.window_len:
            raise ValueError("FFT size must be at least the window length")


@dataclass
class Spectrogram:
    """Power matrix with frequency rows (ascending) and time columns."""

    power: np.ndarray
    time_s: np.ndarray
    freq_hz: np.ndarray

    @property
    def n_cols(self) -> int:
        return self.power.shape[1]

    @property
    def freq_res_hz(self) -> float:
        return float(self.freq_hz[1] - self.freq_hz[0])

    def crop_band(self, f_abs_max_hz: float) -> "Spectrogram":
        """Restrict to rows with |f| <= f_abs_max_hz."""
        keep = np.abs(self.freq_hz) <= f_abs_max_hz
        if not keep.any():
            raise ValueError("crop removes every frequency row")
        return Spectrogram(self.power[keep], self.time_s, self.freq_hz[keep])


def stft_power(
    x: np.ndarray,
    sample_rate_hz: float,
    cfg: StftConfig = StftConfig(),
    band_hz: float | None = None,
) -> Spectrogram:
    """Power spectrogram of ``x``, every row or only a band of them.

    With ``band_hz`` the rows are the fewest that cover
    [-band_hz, +band_hz]: every row with |f| <= band_hz, plus the next
    row out on a side where band_hz falls between two bins.  Columns
    are transformed ``_BLOCK_COLS`` at a time and only the kept bins are
    stored, so no full-size spectrum exists at once.  The power matrix
    is the transpose of a (columns x rows) array, and each value has the
    same bits with or without a band.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("expected a 1-D sample array")
    if len(x) < cfg.window_len:
        raise ValueError("segment shorter than the analysis window")
    freq = np.fft.fftshift(np.fft.fftfreq(cfg.fft_size, d=1.0 / sample_rate_hz))
    bins = np.fft.fftshift(np.arange(cfg.fft_size))  # FFT bin of each ascending row
    if band_hz is not None:
        if band_hz < 0:
            raise ValueError("band must be non-negative")
        lo = max(int(np.searchsorted(freq, -band_hz, side="right")) - 1, 0)
        hi = min(int(np.searchsorted(freq, band_hz, side="left")), len(freq) - 1)
        freq, bins = freq[lo : hi + 1], bins[lo : hi + 1]
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.window_len)[:: cfg.hop]
    n_cols = len(frames)
    # One zero-tailed block buffer for every FFT call, in the dtype that
    # scipy.fft would convert ``x`` to: a complex buffer for real input
    # would take the c2c path, not r2c, and change the bits.
    dtype = np.result_type(x.dtype, np.float32) if x.dtype.kind in "fc" else np.float64
    buf = np.empty((min(n_cols, _BLOCK_COLS), cfg.fft_size), dtype=dtype)
    power = None
    for c0 in range(0, n_cols, _BLOCK_COLS):
        block = buf[: min(_BLOCK_COLS, n_cols - c0)]
        block[:, : cfg.window_len] = frames[c0 : c0 + len(block)]
        block[:, cfg.window_len :] = 0  # a complex block is transformed in place
        spec = scipy.fft.fft(block, axis=1, overwrite_x=True)
        mag = np.abs(spec[:, bins])
        if power is None:
            power = np.empty((n_cols, len(bins)), dtype=mag.dtype)
        np.square(mag, out=power[c0 : c0 + len(mag)])
    time = (cfg.hop * np.arange(n_cols) + cfg.window_len / 2.0) / sample_rate_hz
    return Spectrogram(power.T, time, freq)


def spectrogram(
    record: IQRecord,
    cfg: StftConfig = StftConfig(),
    band_hz: float | None = None,
) -> Spectrogram:
    return stft_power(record.samples, record.sample_rate_hz, cfg, band_hz)


@dataclass
class GrayImage:
    """Pixels in [0, 1]; rows follow the source frequency axis."""

    pixels: np.ndarray

    @property
    def size(self) -> tuple[int, int]:
        return self.pixels.shape


def _resample_axis(a: np.ndarray, n_out: int, axis: int) -> np.ndarray:
    n_in = a.shape[axis]
    if n_out < 1:
        raise ValueError("target size must be positive")
    if n_in == n_out:
        return a
    a = np.moveaxis(a, axis, 0)
    if n_in == 1:
        out = np.repeat(a, n_out, axis=0)
    else:
        pos = np.linspace(0.0, n_in - 1.0, n_out)
        i0 = np.floor(pos).astype(int)
        i1 = np.minimum(i0 + 1, n_in - 1)
        w = (pos - i0)[(...,) + (None,) * (a.ndim - 1)]
        out = a[i0] * (1.0 - w) + a[i1] * w
    return np.moveaxis(out, 0, axis)


def resize_bilinear(a: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Separable corner-aligned bilinear resample to (rows, cols)."""
    return _resample_axis(_resample_axis(np.asarray(a, float), size[0], 0), size[1], 1)


def to_gray(
    spec: Spectrogram,
    size: tuple[int, int] = (100, 100),
    dyn_range_db: float = 50.0,
) -> GrayImage:
    """Log-scale the power matrix into a [0, 1] image.

    Values are clipped to ``dyn_range_db`` below the peak before the
    affine map, so an all-zero spectrogram yields a zero image and a
    constant one saturates to all ones.
    """
    if dyn_range_db <= 0:
        raise ValueError("dynamic range must be positive")
    peak = spec.power.max() if spec.power.size else 0.0
    if peak <= 0.0:
        return GrayImage(np.zeros(size))
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(spec.power / peak)
    img = 1.0 + np.maximum(db, -dyn_range_db) / dyn_range_db
    return GrayImage(resize_bilinear(img, size))


def vectorize(img: GrayImage) -> np.ndarray:
    """Row-major pixel vector of length rows*cols."""
    return img.pixels.ravel(order="C").copy()


def write_pgm(img: GrayImage, path) -> None:
    """Binary 8-bit PGM; the top image row is the highest frequency."""
    pixels = np.flipud(np.clip(img.pixels, 0.0, 1.0))
    data = np.round(pixels * 255.0).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def spectrogram_to_csv(spec: Spectrogram, path) -> None:
    """Raw power matrix with time and frequency header rows."""
    with open(path, "w") as fh:
        fh.write("time_s," + ",".join(f"{t:.6f}" for t in spec.time_s) + "\n")
        fh.write("freq_hz," + ",".join(f"{f:.6f}" for f in spec.freq_hz) + "\n")
        for row in spec.power:
            fh.write(",".join(f"{v:.8e}" for v in row) + "\n")
