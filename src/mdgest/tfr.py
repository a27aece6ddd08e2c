"""Spectrograms and gray-scale image conversion.

Short-time Fourier transform with a rectangular window and power
output, optionally limited to the rows that cover a band [-B, +B].
Rows ascend in frequency from -fs/2 (or about -B) toward +fs/2 (or
about +B); column n covers samples [n*hop, n*hop + window_len) and is
stamped with the window-center time.  The columns come from a
zero-padded FFT (``scipy.fft.fft``, in single precision for complex64
samples), or, for a band of complex samples, from hop-block DFTs (see
``_block_form``).
"""

from __future__ import annotations

import functools
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


def _block_form(x: np.ndarray, cfg: StftConfig, band_hz: float | None) -> bool:
    """Whether ``stft_power`` takes the hop-block transform, not the FFT.

    It does for a band of complex64 or complex128 samples whose window is
    a power-of-two multiple of the hop.  Full-band output, real samples
    and other windows take the zero-padded FFT, whose bits the test
    oracles reproduce.
    """
    span = cfg.window_len // cfg.hop
    return (
        band_hz is not None
        and x.dtype in (np.complex64, np.complex128)
        and span * cfg.hop == cfg.window_len
        and span & (span - 1) == 0
    )


@functools.lru_cache(maxsize=16)
def _block_twiddles(cfg: StftConfig, lo: int, hi: int, dtype: np.dtype):
    """The (hop x bins) DFT matrix of one hop block and the combine's
    twiddle rows, for ascending rows lo..hi, cast to ``dtype``.

    Phases are reduced exactly, as integers k*m mod fft_size, and
    exponentiated in float64 before the cast.
    """
    n = cfg.fft_size
    k = np.fft.fftshift(np.arange(n))[lo : hi + 1]

    def unit(phase):
        out = np.exp(-2j * np.pi / n * (phase % n)).astype(dtype)
        out.setflags(write=False)
        return out

    dft = unit(np.arange(cfg.hop)[:, None] * k[None, :])
    steps = []
    s = 1
    while s < cfg.window_len // cfg.hop:
        steps.append((s, unit(k * (cfg.hop * s))))
        s *= 2
    return dft, tuple(steps)


def _block_power(x: np.ndarray, cfg: StftConfig, lo: int, hi: int, n_cols: int) -> np.ndarray:
    """(columns x rows) power of the band rows lo..hi, from hop blocks.

    A frame is window_len / hop consecutive hop blocks, so its DFT at bin
    k is the sum of their DFTs, block b turned by exp(-2 pi i k b hop / N)
    (the hop-shift identity).  One matrix product gives every block's
    band bins; a radix-2 combine, X[i] + X[i + s] * t**s for
    s = 1, 2, 4, ..., sums them into frames.  Every value depends only on
    its own frame's samples.
    """
    dft, steps = _block_twiddles(cfg, lo, hi, x.dtype)
    n_blocks = n_cols + cfg.window_len // cfg.hop - 1
    acc = x[: n_blocks * cfg.hop].reshape(n_blocks, cfg.hop) @ dft
    for s, twiddle in steps:
        acc = acc[:-s] + acc[s:] * twiddle
    power = acc.real**2
    power += acc.imag**2
    return power


def _fft_power(x: np.ndarray, cfg: StftConfig, bins: np.ndarray, n_cols: int) -> np.ndarray:
    """(columns x rows) power of the given FFT bins, ``_BLOCK_COLS``
    zero-padded frames per FFT call."""
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.window_len)[:: cfg.hop]
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
    return power


def stft_power(
    x: np.ndarray,
    sample_rate_hz: float,
    cfg: StftConfig = StftConfig(),
    band_hz: float | None = None,
) -> Spectrogram:
    """Power spectrogram of ``x``, every row or only a band of them.

    With ``band_hz`` the rows are the fewest that cover
    [-band_hz, +band_hz]: every row with |f| <= band_hz, plus the next
    row out on a side where band_hz falls between two bins.  Only the
    kept bins are computed or stored, so no full-size spectrum exists at
    once.  ``_block_form`` picks the transform: the FFT path gives each
    value the same bits with or without a band, the hop-block path
    matches it to float rounding.  The power matrix is the transpose of
    a (columns x rows) array.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("expected a 1-D sample array")
    if len(x) < cfg.window_len:
        raise ValueError("segment shorter than the analysis window")
    freq = np.fft.fftshift(np.fft.fftfreq(cfg.fft_size, d=1.0 / sample_rate_hz))
    lo, hi = 0, len(freq) - 1
    if band_hz is not None:
        if band_hz < 0:
            raise ValueError("band must be non-negative")
        lo = max(int(np.searchsorted(freq, -band_hz, side="right")) - 1, 0)
        hi = min(int(np.searchsorted(freq, band_hz, side="left")), len(freq) - 1)
    n_cols = (len(x) - cfg.window_len) // cfg.hop + 1
    if _block_form(x, cfg, band_hz):
        power = _block_power(x, cfg, lo, hi, n_cols)
    else:
        bins = np.fft.fftshift(np.arange(cfg.fft_size))[lo : hi + 1]  # FFT bin of each row
        power = _fft_power(x, cfg, bins, n_cols)
    time = (cfg.hop * np.arange(n_cols) + cfg.window_len / 2.0) / sample_rate_hz
    return Spectrogram(power.T, time, freq[lo : hi + 1])


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
