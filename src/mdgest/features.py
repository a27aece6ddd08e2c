"""Comparison features: the empirical triple and sparse peak trajectories.

The empirical features are the event length, the ratio of extreme
positive to extreme negative envelope frequency, and the occupied
bandwidth.  The trajectory feature greedily collects the strongest
spectrogram cells (with a suppression neighborhood, in the spirit of a
matching pursuit over time-frequency atoms) and summarizes a class by
K-means centroids over the pooled normalized points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import EnvelopePair
from .segmentation import MotionInterval
from .tfr import Spectrogram

TRAJECTORY_POINTS = 10
TIME_NORM_S = 5.0
FREQ_NORM_HZ = 500.0
KMEANS_RESTARTS = 50
KMEANS_ITERS = 300
KMEANS_TOL = 1e-6
# Restarts per batched Lloyd pass: at ~800 pooled points (the acceptance
# corpus) the (restarts, k, points) buffers of all 50 restarts outgrow the
# cache; blocks of 10-50 measured within 10 % of each other there, and
# smaller blocks pay more per-iteration overhead at ~140 points.
_RESTART_BLOCK = 25


@dataclass
class EmpiricalFeatures:
    event_length_s: float
    extreme_ratio: float
    bandwidth_hz: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.event_length_s, self.extreme_ratio, self.bandwidth_hz])


def empirical(interval: MotionInterval, env: EnvelopePair) -> EmpiricalFeatures:
    """Event length, positive/negative extreme ratio, and bandwidth.

    The extremes are taken over envelope samples inside the interval.
    When the negative extreme is exactly zero the ratio divides by one
    frequency bin instead, keeping it finite.
    """
    sel = (env.time_s >= interval.start_s) & (env.time_s <= interval.end_s)
    if not sel.any():
        sel = np.ones(len(env.time_s), dtype=bool)
    f_pos = float(env.upper_hz[sel].max())
    f_neg = float(env.lower_hz[sel].min())
    denom = abs(f_neg) if f_neg != 0.0 else abs(f_neg) + env.bin_hz
    return EmpiricalFeatures(
        event_length_s=interval.duration_s,
        extreme_ratio=abs(f_pos) / denom,
        bandwidth_hz=abs(f_pos) + abs(f_neg),
    )


@dataclass
class Trajectory:
    """(time, frequency, intensity) rows sorted by descending intensity."""

    points: np.ndarray
    padded: bool = False

    def __post_init__(self):
        self.points = np.asarray(self.points, float)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("trajectory needs rows of (time, freq, intensity)")

    @property
    def tf(self) -> np.ndarray:
        return self.points[:, :2]

    def normalized_tf(self) -> np.ndarray:
        """Points scaled to the unit square: t / 5 s, f / 500 Hz."""
        out = self.points[:, :2].copy()
        out[:, 0] /= TIME_NORM_S
        out[:, 1] /= FREQ_NORM_HZ
        return out


def trajectory(
    spec: Spectrogram,
    n_points: int = TRAJECTORY_POINTS,
    band_hz: tuple[float, float] | None = (20.0, 500.0),
    suppress: tuple[int, int] = (5, 3),
) -> Trajectory:
    """Greedy bright-point extraction with neighborhood suppression.

    Repeatedly takes the brightest remaining cell and zeroes the
    surrounding +-suppress[0] frequency rows by +-suppress[1] columns.
    ``band_hz`` restricts the search to the Doppler analysis band (pass
    ``None`` to search the whole plane).  If the matrix runs out of
    nonzero cells the result is padded with (0, 0, 0) rows and flagged.

    Rows outside the band are zero throughout the search, so it runs on
    the contiguous span of rows that covers the band; that span keeps
    the row-major scan order, hence the same picks and the same ties.
    """
    if n_points < 1:
        raise ValueError("need at least one trajectory point")
    r0 = 0
    if band_hz is not None:
        lo, hi = band_hz
        keep = (np.abs(spec.freq_hz) >= lo) & (np.abs(spec.freq_hz) <= hi)
        rows = np.flatnonzero(keep)
        # an empty band keeps one zeroed row, so the search finds nothing
        r0, r1 = (rows[0], rows[-1] + 1) if rows.size else (0, 1)
        work = spec.power[r0:r1].copy()
        work[~keep[r0:r1]] = 0.0
    else:
        work = spec.power.copy()
    df, dt = suppress
    pts = []
    for _ in range(n_points):
        k = int(np.argmax(work))
        r, c = divmod(k, work.shape[1])
        v = work[r, c]
        if v <= 0.0:
            break
        pts.append((spec.time_s[c], spec.freq_hz[r0 + r], float(v)))
        work[max(r - df, 0) : r + df + 1, max(c - dt, 0) : c + dt + 1] = 0.0
    padded = len(pts) < n_points
    while len(pts) < n_points:
        pts.append((0.0, 0.0, 0.0))
    pts = np.array(pts)
    order = np.argsort(-pts[:, 2], kind="stable")
    return Trajectory(pts[order], padded=padded)


def _nearest(xt: np.ndarray, centers: np.ndarray, d: np.ndarray, e: np.ndarray):
    """Nearest centre of every point and its distance, for a stack of restarts.

    ``xt`` holds the points as (2, points), ``centers`` is (restarts, k, 2),
    and ``d`` and ``e`` are (restarts, k, points) scratch buffers.  The
    distances are ``sqrt(dx0**2 + dx1**2)`` in float64, ``cdist``'s
    arithmetic, and the lowest index wins a tie as in ``argmin``, so for
    finite points the picks equal ``cdist(x, c).argmin(axis=1)``.
    """
    np.subtract(xt[0], centers[:, :, 0, None], out=d)
    d *= d
    np.subtract(xt[1], centers[:, :, 1, None], out=e)
    e *= e
    d += e
    np.sqrt(d, out=d)
    dmin = d.min(axis=1)
    assign = np.full(dmin.shape, d.shape[1] - 1)
    for j in range(d.shape[1] - 2, -1, -1):
        assign[d[:, j] == dmin] = j
    return assign, dmin


def _lloyd(x: np.ndarray, starts: np.ndarray):
    """Lloyd's iterations for a stack of K-means restarts at once.

    ``starts`` is (restarts, k, 2).  A restart stops after the iteration
    whose largest centre shift is <= KMEANS_TOL, with its centres already
    updated, as a run on its own would.  Means are ``bincount`` sums over
    the points in order divided by the counts, which equals
    ``members.mean(axis=0)`` bit for bit; an empty cluster is revived at
    the point worst served in that iteration.  Returns the final centres,
    assignments and inertias (sums of squared distances).
    """
    centers = starts.copy()
    n_r, k, _ = centers.shape
    n = len(x)
    xt = np.ascontiguousarray(x.T)
    # one copy of the points per restart: the bincount weights of the first
    # a restarts are the first a * n columns
    tiled = np.tile(xt, n_r)
    # allocated once, so the distance passes run in cache, not fresh pages
    d, e = np.empty((n_r, k, n)), np.empty((n_r, k, n))
    active = np.arange(n_r)
    for _ in range(KMEANS_ITERS):
        a = len(active)
        c = centers[active]
        assign, dmin = _nearest(xt, c, d[:a], e[:a])
        flat = (assign + k * np.arange(a)[:, None]).ravel()
        counts = np.bincount(flat, minlength=a * k).reshape(a, k, 1)
        sums = np.stack(
            [np.bincount(flat, weights=tiled[dim, : a * n], minlength=a * k) for dim in (0, 1)],
            axis=1,
        ).reshape(a, k, 2)
        new = np.divide(sums, counts, out=np.empty_like(sums), where=counts > 0)
        empty = counts[..., 0] == 0
        if empty.any():
            worst = x[dmin.argmax(axis=1)]
            new = np.where(empty[..., None], worst[:, None, :], new)
        shift = np.abs(new - c).max(axis=(1, 2))
        centers[active] = new
        active = active[~(shift <= KMEANS_TOL)]
        if not active.size:
            break
    assign, dmin = _nearest(xt, centers, d, e)
    return centers, assign, (dmin * dmin).sum(axis=1)


def _restarts(x: np.ndarray, starts: np.ndarray):
    """(centres, assignment, inertia) of each restart in order, run in blocks."""
    for lo in range(0, len(starts), _RESTART_BLOCK):
        yield from zip(*_lloyd(x, starts[lo : lo + _RESTART_BLOCK]))


def central_trajectory(
    trajectories: list[Trajectory],
    n_points: int = TRAJECTORY_POINTS,
    seed: int = 0,
) -> Trajectory:
    """K-means summary of a set of trajectories.

    All (t, f) points are pooled in normalized units and clustered with
    K = ``n_points`` (Lloyd iterations, best of KMEANS_RESTARTS seeded
    starts).  Centroids are returned in physical units with the mean
    member intensity attached.

    Each start draws K distinct points of the pooled set, or K pooled
    points with replacement when fewer than K are distinct.  The draws
    never depend on Lloyd results, so all are taken up front in restart
    order; the earliest restart with the least inertia (by more than
    1e-15) wins.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    pooled = np.vstack([t.normalized_tf() for t in trajectories])
    weights = np.concatenate([t.points[:, 2] for t in trajectories])
    if len(pooled) < n_points:
        raise ValueError("fewer pooled points than clusters")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    uniq = np.unique(pooled, axis=0)
    src, replace = (uniq, False) if len(uniq) >= n_points else (pooled, True)
    starts = np.stack(
        [
            src[rng.choice(len(src), size=n_points, replace=replace)]
            for _ in range(KMEANS_RESTARTS)
        ]
    )
    best = None
    for centers, assign, inertia in _restarts(pooled, starts):
        if best is None or inertia < best[2] - 1e-15:
            best = (centers, assign, inertia)
        if best[2] == 0.0:
            break
    centers, assign, _ = best
    rows = []
    for j in range(n_points):
        members = assign == j
        amp = float(weights[members].mean()) if members.any() else 0.0
        rows.append((centers[j, 0] * TIME_NORM_S, centers[j, 1] * FREQ_NORM_HZ, amp))
    rows = np.array(rows)
    return Trajectory(rows[np.argsort(-rows[:, 2], kind="stable")])
