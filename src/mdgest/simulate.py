"""Synthetic continuous-wave radar returns for six arm gestures.

A gesture is modelled as a handful of point scatterers (hand and
forearm per arm, plus a static torso return) whose radial ranges follow
piecewise raised-cosine strokes.  The complex baseband return is

    s(t) = sum_i a_i * exp(-j * 4*pi * r_i(t) / wavelength) + n(t)

so a scatterer approaching the radar (decreasing range) produces a
positive Doppler shift of 2*v/wavelength.  Peak radial speeds are kept
at or below 3 m/s, which bounds every Doppler component to +-500 Hz at
the 25 GHz carrier; n(t) is Gaussian noise confined to that receiver
band and calibrated against the scatterer signal power over the active
part of the gesture.

The six gesture classes and their Doppler sign signatures:

    a  PUSH_PULL   push toward the radar, then pull back (+ then -)
    b  CROSS_OPEN  cross and uncross twice (+,- then +,-)
    c  CROSS       single cross and return (+ then -)
    d  ROLL        arms roll in opposition (simultaneous + and -)
    e  STOP_SIGN   arm sweeps away only (- only)
    f  PUSH_OPEN   brisk push, then a gentler opening spread (+ then -)
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT_MS = 3.0e8
MAX_RADIAL_SPEED_MS = 3.0
DOPPLER_BAND_HZ = 500.0
MIN_DOPPLER_HZ = 20.0

# Speeds below this count as rest when locating the motion interval.
MOTION_SPEED_MS = 1e-3

# Sub-stream tags so every consumer of randomness hangs off one base seed.
STREAM_SIMULATE = 0
STREAM_SPLIT = 1
STREAM_SVM = 2
STREAM_KMEANS = 3


class GestureLabel(IntEnum):
    """Stable integer codes for the six gesture classes."""

    PUSH_PULL = 0
    CROSS_OPEN = 1
    CROSS = 2
    ROLL = 3
    STOP_SIGN = 4
    PUSH_OPEN = 5

    @property
    def letter(self) -> str:
        return "abcdef"[self.value]


SPEED_MODES = ("normal", "slow")


@dataclass(frozen=True)
class SimConfig:
    """Parameters for one synthesized gesture segment.

    ``snr_db`` is the ratio of deterministic scatterer power to noise
    power measured over the active part of the motion; ``math.inf``
    disables noise, and NaN or ``-math.inf`` are rejected.
    ``noise_floor`` is the noise variance used when the tracks carry no
    signal at all (zero amplitudes).
    """

    carrier_hz: float = 25.0e9
    sample_rate_hz: float = 12800.0
    duration_s: float = 5.0
    angle_deg: float = 0.0
    speed: str = "normal"
    snr_db: float = 10.0
    noise_floor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.carrier_hz <= 0 or self.sample_rate_hz <= 0 or self.duration_s <= 0:
            raise ValueError("carrier, sample rate and duration must be positive")
        if self.speed not in SPEED_MODES:
            raise ValueError(f"speed must be one of {SPEED_MODES}, got {self.speed!r}")
        if np.isnan(self.snr_db):
            raise ValueError("SNR must be a number of dB or inf, not NaN")
        if self.snr_db == -np.inf:
            raise ValueError("SNR must be a number of dB or +inf, not -inf")
        if self.sample_rate_hz < 2 * DOPPLER_BAND_HZ:
            raise ValueError("sample rate under-samples the Doppler band")
        n = self.duration_s * self.sample_rate_hz
        if abs(n - round(n)) > 1e-9:
            raise ValueError("duration must span a whole number of samples")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_MS / self.carrier_hz

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))

    @property
    def angle_gain(self) -> float:
        # Antenna beam roll-off: 1.5 dB amplitude drop per 10 degrees off axis.
        return 10.0 ** (-0.15 * abs(self.angle_deg) / 10.0)


def _true_span(mask: np.ndarray) -> tuple[int, int] | None:
    """[first, last + 1) of the True entries of a 1-D mask, or None."""
    i0 = mask.argmax()
    if not mask[i0]:
        return None
    return i0, mask.size - mask[::-1].argmax()


@dataclass(frozen=True)
class ScattererTrack:
    """Radial range history of one point scatterer.

    One pass over the steps of the ranges checks the speed cap and finds
    where the track moves.  ``moving`` is the span [lo, hi) of samples
    outside which the range equals its first value (before) or its last
    (after), (n, n) for a constant track.  ``active`` is the span [i0, i1)
    of steps whose speed reaches ``MOTION_SPEED_MS``, or None.  The track
    keeps a read-only copy of the ranges, so neither span can go stale.
    """

    ranges_m: np.ndarray
    amplitude: float
    sample_rate_hz: float
    moving: tuple[int, int] = field(init=False, repr=False)
    active: tuple[int, int] | None = field(init=False, repr=False)

    def __post_init__(self):
        r = np.array(self.ranges_m, dtype=float)
        if r.ndim != 1 or r.size < 2:
            raise ValueError("track needs a 1-D range history")
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if np.any(r <= 0):
            raise ValueError("range must stay positive")
        r.flags.writeable = False
        step = np.diff(r)
        changed = _true_span(step != 0)
        moving, active = (r.size, r.size), None
        if changed is not None:
            lo, hi = changed
            v = np.abs(step[lo:hi]) * self.sample_rate_hz
            if v.max() > MAX_RADIAL_SPEED_MS * (1 + 1e-9):
                raise ValueError(
                    f"radial speed {v.max():.3f} m/s exceeds {MAX_RADIAL_SPEED_MS} m/s"
                )
            hot = _true_span(v >= MOTION_SPEED_MS)
            if hot is not None:
                active = (lo + hot[0], lo + hot[1])
            moving = (lo + 1, hi)
        object.__setattr__(self, "ranges_m", r)
        object.__setattr__(self, "moving", moving)
        object.__setattr__(self, "active", active)


@dataclass
class IQRecord:
    """Complex baseband segment plus generation provenance."""

    samples: np.ndarray
    sample_rate_hz: float
    label: GestureLabel | None = None
    config: SimConfig | None = None
    active_s: tuple[float, float] | None = None
    record_id: str = ""

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


# Hand stroke tables: (lead-in gap s, stroke duration s, radial move m).
# Negative displacement moves toward the radar and reads as positive
# Doppler.  Durations and gaps stretch in slow mode; each record draws
# one tempo scale (+-7%) and one size scale (+-8%) shared by all of its
# strokes, plus a small independent wobble per stroke, so the timing and
# extent ratios that tell the classes apart survive the jitter.
_HAND_STROKES = {
    GestureLabel.PUSH_PULL: ((0.00, 0.48, -0.40), (0.00, 0.48, +0.40)),
    GestureLabel.CROSS_OPEN: (
        (0.00, 0.46, -0.30),
        (0.00, 0.46, +0.30),
        (0.00, 0.46, -0.30),
        (0.00, 0.46, +0.30),
    ),
    GestureLabel.CROSS: ((0.00, 0.48, -0.315), (0.00, 0.48, +0.315)),
    GestureLabel.ROLL: ((0.00, 0.45, -0.29), (0.00, 0.45, +0.29), (0.00, 0.45, -0.29)),
    GestureLabel.STOP_SIGN: ((0.00, 0.45, +0.385),),
    GestureLabel.PUSH_OPEN: ((0.00, 0.38, -0.42), (0.00, 0.50, +0.42)),
}

# Classes whose left arm mirrors the right-arm strokes in sign.
_MIRRORED = frozenset({GestureLabel.ROLL})

# (displacement scale, reflectivity weight, rest offset m) per arm scatterer.
_ARM_SCATTERERS = ((1.0, 1.0, -0.15), (0.55, 0.7, 0.0))

# Reflectivity of the off arm relative to the dominant one.  When both
# arms trace the same velocity profile their echoes share Doppler bins
# and can cancel; a weak off arm keeps the residual well above the
# detection threshold.  Mirrored gestures put the arms on opposite
# Doppler sides, so both reflect at full strength there.
_OFF_ARM_WEIGHT = 0.3
_OFF_ARM_RANGE_M = 0.03
_REST_RANGE_M = 3.0
_TORSO_RANGE_M = 3.15
_TORSO_AMPLITUDE = 0.8

_SLOW_STRETCH = 1.2
_START_JITTER_S = 0.3
_EDGE_MARGIN_S = 0.1


def _raised_cosine(t: np.ndarray, t0: float, dur: float) -> tuple[int, int, np.ndarray]:
    """Smooth 0 -> 1 ramp over [t0, t0 + dur], flat outside.

    Returns ``(lo, hi, ramp)``: the ramp's values on its open support
    ``t[lo:hi]``, where 0 < (t - t0) / dur < 1.  Clipped to [0, 1], the
    ramp is exactly 0.0 before ``lo`` and exactly 1.0 from ``hi`` on.
    """
    u = (t - t0) / dur
    lo, hi = np.searchsorted(u, 0.0, side="right"), np.searchsorted(u, 1.0, side="left")
    return lo, hi, 0.5 * (1.0 - np.cos(np.pi * u[lo:hi]))


def gesture_tracks(label: GestureLabel, cfg: SimConfig) -> list[ScattererTrack]:
    """Build the scatterer range histories for one gesture record.

    Returns hand and forearm tracks for both arms plus the static torso
    return.  All stochastic choices (stroke jitter, start placement,
    arm asymmetry) come from the kinematics sub-stream of ``cfg.seed``.
    """
    label = GestureLabel(label)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0])))
    stretch = _SLOW_STRETCH if cfg.speed == "slow" else 1.0

    tempo = stretch * rng.uniform(0.93, 1.07)
    size = rng.uniform(0.92, 1.08)
    strokes = []
    for gap, dur, delta in _HAND_STROKES[label]:
        strokes.append(
            (
                gap * tempo * rng.uniform(0.98, 1.02),
                dur * tempo * rng.uniform(0.98, 1.02),
                delta * size * rng.uniform(0.98, 1.02),
            )
        )
    span = sum(g + d for g, d, _ in strokes)
    start_lo = _EDGE_MARGIN_S
    start_hi = max(cfg.duration_s - span - _EDGE_MARGIN_S, start_lo)
    start = np.clip(
        (cfg.duration_s - span) / 2 + rng.uniform(-_START_JITTER_S, _START_JITTER_S),
        start_lo,
        start_hi,
    )
    arm_gain = rng.uniform(0.93, 1.07, size=2)
    arm_shift = rng.uniform(-0.02, 0.02)

    # Every arm track shares the stroke onsets, so each stroke's ramp is
    # computed once.  A track adds nothing before the ramp's support and
    # the stroke's full extent after it.
    t = np.arange(cfg.n_samples) / cfg.sample_rate_hz
    ramps = []
    t0 = start + arm_shift
    for gap, dur, _ in strokes:
        t0 += gap
        ramps.append(_raised_cosine(t, t0, dur))
        t0 += dur
    tracks = []
    for arm in range(2):
        mirrored = label in _MIRRORED
        sign = -1.0 if arm == 1 and mirrored else 1.0
        arm_weight = 1.0 if arm == 0 or mirrored else _OFF_ARM_WEIGHT
        arm_range = _REST_RANGE_M + (0.0 if arm == 0 else _OFF_ARM_RANGE_M)
        for scale, weight, offset in _ARM_SCATTERERS:
            r = np.full(cfg.n_samples, arm_range + offset)
            for (_, _, delta), (lo, hi, ramp) in zip(strokes, ramps):
                extent = sign * delta * scale * arm_gain[arm]
                r[lo:hi] += extent * ramp
                r[hi:] += extent
            tracks.append(
                ScattererTrack(r, weight * arm_weight * cfg.angle_gain, cfg.sample_rate_hz)
            )
    torso = np.full(cfg.n_samples, _TORSO_RANGE_M)
    tracks.append(ScattererTrack(torso, _TORSO_AMPLITUDE * cfg.angle_gain, cfg.sample_rate_hz))
    return tracks


def active_interval(
    tracks: list[ScattererTrack], cfg: SimConfig
) -> tuple[float, float] | None:
    """Span during which any scatterer is in motion.

    The bounds are the first and last instants where some track's radial
    speed is non-negligible, i.e. the support of the gesture strokes.
    """
    if any(len(tr.ranges_m) != cfg.n_samples for tr in tracks):
        raise ValueError("track/segment length mismatch")
    spans = [tr.active for tr in tracks if tr.active is not None]
    if not spans:
        return None
    fs = cfg.sample_rate_hz
    return min(i0 for i0, _ in spans) / fs, max(i1 for _, i1 in spans) / fs


def synthesize(
    tracks: list[ScattererTrack],
    cfg: SimConfig,
    label: GestureLabel | None = None,
    record_id: str = "",
) -> IQRecord:
    """Sum the scatterer returns and add band-limited noise at the
    configured SNR.

    The noise draw comes from its own sub-stream of ``cfg.seed``, so the
    kinematics of a record do not change when only the SNR does.
    """
    active = active_interval(tracks, cfg)
    n = cfg.n_samples
    signal = np.zeros(n, dtype=complex)
    k = 4.0 * np.pi / cfg.wavelength_m
    for tr in tracks:
        if tr.amplitude > 0:
            # Constant before and after its moving span, a return takes
            # one value over each of those.
            lo, hi = tr.moving
            head, tail = tr.amplitude * np.exp(-1j * k * tr.ranges_m[[0, -1]])
            signal[:lo] += head
            signal[lo:hi] += tr.amplitude * np.exp(-1j * k * tr.ranges_m[lo:hi])
            signal[hi:] += tail

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

    return IQRecord(
        samples=signal.astype(np.complex64),
        sample_rate_hz=cfg.sample_rate_hz,
        label=label,
        config=cfg,
        active_s=active,
        record_id=record_id,
    )


def simulate_record(label: GestureLabel, cfg: SimConfig, record_id: str = "") -> IQRecord:
    """Convenience: tracks plus synthesis for one labelled record."""
    return synthesize(gesture_tracks(label, cfg), cfg, label=label, record_id=record_id)


def default_grid(snr_db: float = 10.0, seed: int = 0) -> list[SimConfig]:
    """Aspect angles 0/+-10/+-20 degrees crossed with both speeds."""
    return [
        SimConfig(angle_deg=a, speed=s, snr_db=snr_db, seed=seed)
        for a in (-20.0, -10.0, 0.0, 10.0, 20.0)
        for s in SPEED_MODES
    ]


def _sample_block(n_records: int, n_samples: int) -> np.ndarray:
    """One (records, samples) complex64 array whose rows hold the records.

    Long-lived per-record arrays interleave on the heap with the
    temporaries of synthesis or reading, and the holes those leave stay
    resident; one block, allocated up front, leaves none.
    """
    return np.empty((n_records, n_samples), dtype="<c8")


@dataclass
class Dataset:
    """A labelled collection of IQ records with a serializable manifest."""

    records: list[IQRecord] = field(default_factory=list)
    sample_rate_hz: float = 12800.0
    duration_s: float = 5.0

    def __len__(self) -> int:
        return len(self.records)

    def labels(self) -> np.ndarray:
        return np.array([int(r.label) for r in self.records])

    def manifest(self) -> dict:
        entries = []
        for r in self.records:
            cfg = r.config
            entries.append(
                {
                    "id": r.record_id,
                    "label": int(r.label),
                    "angle": cfg.angle_deg,
                    "speed": cfg.speed,
                    "snr": cfg.snr_db,
                    "seed": cfg.seed,
                    "file": f"{r.record_id}.iq",
                    "active": list(r.active_s) if r.active_s else None,
                }
            )
        return {
            "version": 1,
            "sample_rate_hz": self.sample_rate_hz,
            "duration_s": self.duration_s,
            "records": entries,
        }

    def save(self, directory: str | Path) -> Path:
        """Write ``meta.json`` plus one ``.iq`` file per record.

        The .iq format is headerless interleaved little-endian float32
        I,Q pairs, which is exactly the memory layout of complex64.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for r in self.records:
            r.samples.astype("<c8").tofile(directory / f"{r.record_id}.iq")
        (directory / "meta.json").write_text(json.dumps(self.manifest(), indent=2))
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "Dataset":
        """Read a dataset written by ``save``.

        Raises ``ValueError`` for a manifest that is not an object whose
        ``records`` is a list of objects, and for a record whose sample
        count differs from the manifest's duration times sample rate, or
        that holds a non-finite sample.
        """
        directory = Path(directory)
        meta_path = directory / "meta.json"
        if not meta_path.exists():
            raise FileNotFoundError(f"no manifest at {meta_path}")
        meta = json.loads(meta_path.read_text())
        if not isinstance(meta, dict):
            raise ValueError(f"{meta_path} does not hold a JSON object")
        if not (
            isinstance(meta.get("records"), list)
            and all(isinstance(entry, dict) for entry in meta["records"])
        ):
            raise ValueError(f"{meta_path}: records must be a list of objects")
        fs = meta.get("sample_rate_hz", 12800.0)
        dur = meta.get("duration_s", 5.0)
        ds = cls(records=[], sample_rate_hz=fs, duration_s=dur)
        block = None
        for i, entry in enumerate(meta["records"]):
            path = directory / entry["file"]
            if not path.exists():
                raise FileNotFoundError(f"missing IQ file: {path}")
            cfg = SimConfig(
                sample_rate_hz=fs,
                duration_s=dur,
                angle_deg=entry["angle"],
                speed=entry["speed"],
                snr_db=entry["snr"],
                seed=entry["seed"],
            )
            if block is None:
                block = _sample_block(len(meta["records"]), cfg.n_samples)
            samples = block[i]
            n_bytes = path.stat().st_size
            if n_bytes != samples.nbytes:
                raise ValueError(
                    f"{path} holds {n_bytes / samples.itemsize:.10g} samples, expected {cfg.n_samples}"
                )
            with open(path, "rb") as fh:
                fh.readinto(samples)
            if not np.isfinite(samples).all():
                raise ValueError(f"{path} holds non-finite samples")
            active = entry.get("active")
            ds.records.append(
                IQRecord(
                    samples=samples,
                    sample_rate_hz=fs,
                    label=GestureLabel(entry["label"]),
                    config=cfg,
                    active_s=tuple(active) if active else None,
                    record_id=entry["id"],
                )
            )
        return ds


def generate_dataset(
    per_class: int,
    cfg_grid: list[SimConfig] | None = None,
    base_seed: int = 0,
) -> Dataset:
    """Generate ``per_class`` records per gesture, spread evenly over the
    configuration grid.

    Each record gets its own seed derived from ``base_seed`` through the
    simulate sub-stream, so regeneration is bit-identical and any record
    can be rebuilt from its manifest entry alone.  The records' samples
    are rows of one block (see ``_sample_block``).
    """
    if per_class < 1:
        raise ValueError("per_class must be at least 1")
    grid = cfg_grid if cfg_grid is not None else default_grid()
    if not grid:
        raise ValueError("configuration grid is empty")

    ref = grid[0]
    if any(c.n_samples != ref.n_samples for c in grid):
        raise ValueError("configuration grid cells differ in sample count")
    ds = Dataset(records=[], sample_rate_hz=ref.sample_rate_hz, duration_s=ref.duration_s)
    block = _sample_block(per_class * len(GestureLabel), ref.n_samples)
    # Each record's own sample array is released only after the next record
    # is made.  It is allocated last, above the synthesis temporaries;
    # released at once, it would leave them all on top of the heap, which
    # malloc then hands back to the system, and every record would fault
    # them in again (2.2x the page faults, 1 s more system time a 120-record
    # corpus on a 2-core VM).
    held = None
    counter = 0
    for label in GestureLabel:
        cell_counts = [per_class // len(grid)] * len(grid)
        for i in range(per_class % len(grid)):
            cell_counts[i] += 1
        for cell, count in enumerate(cell_counts):
            for rep in range(count):
                ss = np.random.SeedSequence(
                    [base_seed, STREAM_SIMULATE, int(label), cell, rep]
                )
                seed = int(ss.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFF)
                cfg = dataclasses.replace(grid[cell], seed=seed)
                rec_id = f"{counter:05d}{label.letter}"
                rec = simulate_record(label, cfg, record_id=rec_id)
                block[counter] = rec.samples
                held, rec.samples = rec.samples, block[counter]
                ds.records.append(rec)
                counter += 1
    return ds
