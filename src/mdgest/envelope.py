"""Micro-Doppler signature envelopes.

The signature of a gesture is the pair of curves tracing the outermost
significant Doppler frequency per time column: the upper envelope on
the positive half of the spectrum, the lower envelope on the negative
half.  Per column, the extraction scans each half from the outside of
the motion's effective band inward toward the 20 Hz exclusion strip
and stops at the first cell whose power reaches an energy-proportional
threshold.  Columns whose in-band energy does not rise above the noise
floor contribute zero.

Everything here works on a unit-peak-normalized copy of the power
matrix, which makes extraction invariant to overall signal scale.  The
band share, the gate, the threshold's calibration and the trace length
are the module constants below, fixed by the method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tfr import Spectrogram


POINTS_PER_SIDE = 100  # the resampled length of each trace
BAND_ENERGY_FRAC = 0.99  # the in-band energy share the effective band holds
F_MIN_HZ = 20.0  # the half-width of the exclusion strip around 0 Hz
GATE_FACTOR = 3.0  # the noise-floor multiple a column's energy must reach
PEAK_FRACTION = 0.5  # the calibrated threshold's share of the peak cell
FALLBACK_SIGMA = 0.005  # the sigma of a side with no ungated column


@dataclass
class EnvelopePair:
    """Resampled envelope traces in Hz on a shared time grid."""

    upper_hz: np.ndarray
    lower_hz: np.ndarray
    time_s: np.ndarray
    bin_hz: float

    def __post_init__(self):
        if not (len(self.upper_hz) == len(self.lower_hz) == len(self.time_s)):
            raise ValueError("envelope traces and time grid must share a length")
        if np.any(self.upper_hz < 0) or np.any(self.lower_hz > 0):
            raise ValueError("upper trace must be >= 0 and lower trace <= 0")


def _effective_band(sq: np.ndarray, absf: np.ndarray, in_band: np.ndarray, frac: float) -> float:
    """Smallest symmetric |f| radius containing ``frac`` of the in-band
    squared-power energy of the rows present; 0.0 when there is none."""
    rows = np.flatnonzero(in_band)
    energy = sq[rows].sum(axis=1)
    order = np.argsort(absf[rows], kind="stable")
    cum = np.cumsum(energy[order])
    total = cum[-1]
    if total <= 0.0:
        return 0.0
    k = int(np.searchsorted(cum, frac * total))
    return float(absf[rows][order][min(k, len(rows) - 1)])


def _scan_side(
    s_norm: np.ndarray,
    rows: np.ndarray,
    freqs: np.ndarray,
    energy: np.ndarray,
    gate: np.ndarray,
    sigma: float,
) -> np.ndarray:
    """First frequency (outermost first) whose cell meets the threshold."""
    n_cols = s_norm.shape[1]
    out = np.zeros(n_cols)
    if rows.size == 0:
        return out
    order = np.argsort(np.abs(freqs))[::-1]  # outer edge first
    sub = s_norm[rows[order]]
    thr = sigma * energy
    hit = sub >= thr[None, :]
    found = hit.any(axis=0)
    first = hit.argmax(axis=0)
    ok = found & gate
    out[ok] = freqs[order][first[ok]]
    return out


def extract(spec: Spectrogram) -> EnvelopePair:
    """Extract the upper/lower envelope pair from a power spectrogram.

    Steps: normalize to unit peak; find the effective band as the
    smallest symmetric frequency range holding ``BAND_ENERGY_FRAC`` of
    the squared-power energy outside the 20 Hz exclusion strip; gate
    columns against the noise floor (the smaller of the two sides'
    median in-band energies, times ``GATE_FACTOR``); then scan each
    ungated column from the band edge inward for the first cell at or
    above sigma times the column energy.  Each side's sigma is
    calibrated on its strongest column, so the scan there lands on the
    outer edge of the peak cell.  Traces are linearly resampled to
    ``POINTS_PER_SIDE`` samples.

    Only the rows ``spec`` holds count: a band-limited spectrogram
    (``tfr.stft_power`` with a band) gives the envelope of that band.
    """
    peak = spec.power.max() if spec.power.size else 0.0
    n_pts = POINTS_PER_SIDE
    if spec.n_cols >= 2:
        grid = np.linspace(spec.time_s[0], spec.time_s[-1], n_pts)
    else:
        grid = np.zeros(n_pts)
    bin_hz = spec.freq_res_hz if len(spec.freq_hz) > 1 else 1.0
    if peak <= 0.0:
        return EnvelopePair(np.zeros(n_pts), np.zeros(n_pts), grid, bin_hz)

    s = spec.power / peak
    sq = s**2
    f = spec.freq_hz
    absf = np.abs(f)
    in_band = absf >= F_MIN_HZ
    f_edge = _effective_band(sq, absf, in_band, BAND_ENERGY_FRAC)
    if f_edge < F_MIN_HZ:
        return EnvelopePair(np.zeros(n_pts), np.zeros(n_pts), grid, bin_hz)

    upper_rows = np.flatnonzero((f >= F_MIN_HZ) & (f <= f_edge))
    lower_rows = np.flatnonzero((f <= -F_MIN_HZ) & (f >= -f_edge))
    e_upper = sq[upper_rows].sum(axis=0) if upper_rows.size else np.zeros(spec.n_cols)
    e_lower = sq[lower_rows].sum(axis=0) if lower_rows.size else np.zeros(spec.n_cols)

    # Noise floor: the quieter side's median column energy.  Taking the
    # minimum keeps a side fully occupied by signal (no quiet columns at
    # all) from gating itself away.
    floor = min(float(np.median(e_upper)), float(np.median(e_lower)))
    gate_u = (e_upper > 0) & (e_upper >= GATE_FACTOR * floor)
    gate_l = (e_lower > 0) & (e_lower >= GATE_FACTOR * floor)

    def side_sigma(rows, energy, gate):
        if rows.size == 0 or not gate.any():
            return FALLBACK_SIGMA
        sub = s[np.ix_(rows, np.flatnonzero(gate))]
        r, c = np.unravel_index(np.argmax(sub), sub.shape)
        col = np.flatnonzero(gate)[c]
        if energy[col] <= 0:
            return FALLBACK_SIGMA
        return PEAK_FRACTION * float(sub[r, c]) / float(energy[col])

    sig_u = side_sigma(upper_rows, e_upper, gate_u)
    sig_l = side_sigma(lower_rows, e_lower, gate_l)

    raw_u = _scan_side(s, upper_rows, f[upper_rows], e_upper, gate_u, sig_u)
    raw_l = _scan_side(s, lower_rows, f[lower_rows], e_lower, gate_l, sig_l)

    if spec.n_cols >= 2:
        up = np.interp(grid, spec.time_s, raw_u)
        low = np.interp(grid, spec.time_s, raw_l)
    else:
        up = np.full(n_pts, raw_u[0] if raw_u.size else 0.0)
        low = np.full(n_pts, raw_l[0] if raw_l.size else 0.0)
    return EnvelopePair(up, np.minimum(low, 0.0), grid, bin_hz)


def to_feature(env: EnvelopePair) -> np.ndarray:
    """Stack upper then lower trace into one vector of length 2 * N."""
    return np.concatenate([env.upper_hz, env.lower_hz])


def envelope_image(
    spec: Spectrogram,
    env: EnvelopePair,
    size: tuple[int, int] = (100, 100),
) -> np.ndarray:
    """Binary (rows, cols) image with the envelope pair burned in.

    Per image column the pixel nearest (time, upper) and the pixel
    nearest (time, lower) are set to 1; rows map linearly onto the
    spectrogram's frequency axis, as in ``to_gray``.
    """
    rows, cols = size
    pixels = np.zeros((rows, cols))
    f_lo, f_hi = float(spec.freq_hz[0]), float(spec.freq_hz[-1])
    if f_hi == f_lo or env.time_s[-1] == env.time_s[0]:
        return pixels
    t = np.linspace(env.time_s[0], env.time_s[-1], cols)
    for trace in (env.upper_hz, env.lower_hz):
        vals = np.interp(t, env.time_s, trace)
        r = np.round((vals - f_lo) / (f_hi - f_lo) * (rows - 1)).astype(int)
        pixels[np.clip(r, 0, rows - 1), np.arange(cols)] = 1.0
    return pixels
