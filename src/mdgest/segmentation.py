"""Motion segmentation with the power burst curve.

The power burst curve sums squared spectrogram values over the Doppler
bands [-500, -20] and [+20, +500] Hz, column by column, skipping the
zero-Doppler strip where the static body return lives.  A smoothed
curve is thresholded a fraction above its floor to find motion bursts.
``harness.segment`` runs the stages on a record and recentres it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tfr
from .simulate import IQRecord
from .tfr import Spectrogram, StftConfig


@dataclass(frozen=True)
class PbcConfig:
    neg_lo_hz: float = -500.0
    neg_hi_hz: float = -20.0
    pos_lo_hz: float = 20.0
    pos_hi_hz: float = 500.0
    smooth_len: int = 5
    alpha: float = 0.1
    merge_gap_s: float = 0.40

    def __post_init__(self):
        if not (self.neg_lo_hz < self.neg_hi_hz < 0 < self.pos_lo_hz < self.pos_hi_hz):
            raise ValueError("bands must satisfy neg_lo < neg_hi < 0 < pos_lo < pos_hi")
        if self.smooth_len < 1 or self.smooth_len % 2 == 0:
            raise ValueError("smoothing window must be odd and positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.merge_gap_s < 0:
            raise ValueError("merge gap must be non-negative")

    @property
    def band_hz(self) -> float:
        """The |f| radius of the spectrogram rows the burst curve reads."""
        return max(-self.neg_lo_hz, self.pos_hi_hz)


@dataclass(frozen=True)
class MotionInterval:
    start_s: float
    end_s: float

    def __post_init__(self):
        if not self.start_s < self.end_s:
            raise ValueError("interval must have start < end")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def mid_s(self) -> float:
        return 0.5 * (self.start_s + self.end_s)


def pbc(spec: Spectrogram, cfg: PbcConfig = PbcConfig()) -> np.ndarray:
    f = spec.freq_hz
    if cfg.neg_lo_hz < f[0] or cfg.pos_hi_hz > f[-1]:
        raise ValueError("band/axis mismatch: analysis band outside frequency axis")
    neg = (f >= cfg.neg_lo_hz) & (f <= cfg.neg_hi_hz)
    pos = (f >= cfg.pos_lo_hz) & (f <= cfg.pos_hi_hz)
    p = spec.power
    return (p[neg] ** 2).sum(axis=0) + (p[pos] ** 2).sum(axis=0)


def smooth(x: np.ndarray, win: int) -> np.ndarray:
    """Centered moving average with truncated windows at the edges."""
    if win < 1 or win % 2 == 0:
        raise ValueError("smoothing window must be odd and positive")
    x = np.asarray(x, float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D curve")
    if win == 1 or x.size == 0:
        return x.copy()
    h = win // 2
    c = np.concatenate(([0.0], np.cumsum(x)))
    n = x.size
    hi = np.minimum(np.arange(n) + h + 1, n)
    lo = np.maximum(np.arange(n) - h, 0)
    return (c[hi] - c[lo]) / (hi - lo)


def detect(
    s_f: np.ndarray,
    time_s: np.ndarray,
    cfg: PbcConfig = PbcConfig(),
) -> list[MotionInterval]:
    """Threshold the smoothed curve and return merged motion intervals.

    Threshold is floor + alpha * (peak - floor); a run's onset is its
    first column, the offset the first column after it.  Runs closer
    than ``merge_gap_s`` are merged.  A flat curve yields no intervals.
    """
    s_f = np.asarray(s_f, float)
    time_s = np.asarray(time_s, float)
    if s_f.shape != time_s.shape:
        raise ValueError("curve and time axis lengths differ")
    if s_f.size == 0:
        return []
    lo, hi = float(s_f.min()), float(s_f.max())
    if hi == lo:
        return []
    thr = lo + cfg.alpha * (hi - lo)
    above = s_f >= thr
    edges = np.diff(above.astype(int))
    starts = list(np.flatnonzero(edges == 1) + 1)
    ends = list(np.flatnonzero(edges == -1) + 1)
    if above[0]:
        starts.insert(0, 0)
    if above[-1]:
        ends.append(s_f.size)
    step = float(time_s[1] - time_s[0]) if time_s.size > 1 else 1.0

    def col_time(i: int) -> float:
        return float(time_s[i]) if i < time_s.size else float(time_s[-1] + step)

    merged: list[list[float]] = []
    for s, e in zip(starts, ends):
        t0, t1 = col_time(s), col_time(e)
        if merged and t0 - merged[-1][1] < cfg.merge_gap_s:
            merged[-1][1] = t1
        else:
            merged.append([t0, t1])
    return [MotionInterval(a, b) for a, b in merged]


def bursts(
    spec: Spectrogram, cfg: PbcConfig = PbcConfig()
) -> tuple[list[MotionInterval], MotionInterval | None]:
    """Burst curve -> smoothing -> detection on one spectrogram.

    Returns the detected intervals and the one holding the most smoothed
    burst energy (the first of equals), or None when there is none.
    """
    curve = smooth(pbc(spec, cfg), cfg.smooth_len)
    intervals = detect(curve, spec.time_s, cfg)
    best, best_sum = None, -1.0
    for iv in intervals:
        sel = (spec.time_s >= iv.start_s) & (spec.time_s < iv.end_s)
        s = float(curve[sel].sum())
        if s > best_sum:
            best, best_sum = iv, s
    return intervals, best


def cut_span(record: IQRecord, interval: MotionInterval, duration_s: float) -> tuple[int, int]:
    """First record sample and sample count of the slice ``window`` cuts."""
    if interval.end_s <= 0 or interval.start_s >= len(record.samples) / record.sample_rate_hz:
        raise ValueError("interval lies outside the record")
    n_out = int(round(duration_s * record.sample_rate_hz))
    return int(round(interval.mid_s * record.sample_rate_hz - n_out / 2)), n_out


def window(record: IQRecord, interval: MotionInterval, duration_s: float = 5.0) -> IQRecord:
    """Cut a fixed-length slice centered on the interval midpoint.

    The slice is zero-padded where it reaches past either end of the
    record; label and provenance carry over, and any ground-truth active
    span is shifted into the new time base.
    """
    start, n_out = cut_span(record, interval, duration_s)
    out = _padded(record.samples, start, start + n_out)
    active = None
    if record.active_s is not None:
        shift = start / record.sample_rate_hz
        a0 = max(record.active_s[0] - shift, 0.0)
        a1 = min(record.active_s[1] - shift, duration_s)
        if a0 < a1:
            active = (a0, a1)
    return IQRecord(
        samples=out,
        sample_rate_hz=record.sample_rate_hz,
        label=record.label,
        config=record.config,
        active_s=active,
        record_id=record.record_id,
    )


def _padded(samples: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """samples[lo:hi] for any lo < hi, zero where it lies past either end."""
    out = np.zeros(hi - lo, dtype=samples.dtype)
    src_lo, src_hi = max(lo, 0), min(hi, len(samples))
    if src_lo < src_hi:
        out[src_lo - lo : src_hi - lo] = samples[src_lo:src_hi]
    return out


def recentre(
    record: IQRecord,
    spec: Spectrogram,
    interval: MotionInterval,
    cfg: StftConfig = StftConfig(),
    band_hz: float | None = None,
) -> Spectrogram:
    """The spectrogram of ``window`` over the record's own duration.

    ``spec`` must be ``spectrogram(record, cfg, band_hz)``.  Cut frame j
    begins at record sample start + j * hop.  When start = k * hop, a
    frame inside the record is record column j + k and is copied (the
    hop-shift identity of the short-time transform).  The other frames
    that touch the record, one run on the side the cut pads, are
    transformed straight into their columns; a frame wholly in the zero
    padding has zero power.  The result has the bits of
    ``spectrogram(cut, cfg, band_hz)``.
    """
    n_samples = len(record.samples)
    start, _ = cut_span(record, interval, record.duration_s)
    n, hop, w = spec.n_cols, cfg.hop, cfg.window_len
    first = start + hop * np.arange(n)  # each cut frame's first record sample
    copied = (first >= 0) & (first + w <= n_samples) & (start % hop == 0)
    cols = np.zeros_like(spec.power.T)  # (columns x rows), as stft_power lays it out
    a, b = _run(copied)
    cols[a:b] = spec.power.T[a + start // hop : b + start // hop]
    a, b = _run((first + w > 0) & (first < n_samples) & ~copied)
    if a < b:
        x = _padded(record.samples, first[a], first[b - 1] + w)
        tfr._band_power(x, record.sample_rate_hz, cfg, band_hz, out=cols[a:b])
    return Spectrogram(cols.T, spec.time_s, spec.freq_hz)


def _run(mask: np.ndarray) -> tuple[int, int]:
    """Bounds of the indices from the first to the last true entry."""
    idx = np.flatnonzero(mask)
    return (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)
