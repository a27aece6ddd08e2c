"""Output checks for the benchmark's workloads.

Each check compares what the program returned with an independent
computation, or with a property the method must have, never with a
stored copy.  A check returns a list of failure messages; an empty list
means it passed.  None of them needs a corpus, so each can be shown to
fail on a small corrupted input (see tests/).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

# Spectrogram grid of the default StftConfig at 12.8 kHz: 4096-point
# FFT bins and 128-sample hops.
FREQ_STEP_HZ = 12800.0 / 4096
TIME_STEP_S = 128 / 12800.0
# A nearest neighbour found in float32 may differ from the float64 one
# only where the two best distances lie within this much of each other
# (points are normalised to O(1) coordinates).
MHD_TIE_TOL = 16 * float(np.finfo(np.float32).eps)


def row_sums(name, counts, class_sizes, trials, train_fraction) -> list[str]:
    """Each pooled row holds every test sample of its class once per trial."""
    counts = np.asarray(counts)
    want = [trials * (n - math.floor(train_fraction * n)) for n in class_sizes]
    got = counts.sum(axis=1).tolist()
    if got != want:
        return [f"{name}: confusion row sums {got}, expected {want}"]
    return []


def finite(name, vectors) -> list[str]:
    bad = int(np.size(vectors) - np.isfinite(vectors).sum())
    return [f"{name}: {bad} non-finite feature values"] if bad else []


def envelope_signs(vectors, band_hz=500.0) -> list[str]:
    """Upper half in [0, band], lower half in [-band, 0]."""
    v = np.asarray(vectors)
    n = v.shape[1] // 2
    up, low = v[:, :n], v[:, n:]
    errs = []
    if (up < 0).any() or (up > band_hz).any():
        errs.append(f"envelope: upper trace outside [0, {band_hz}] Hz in {int(((up < 0) | (up > band_hz)).any(axis=1).sum())} rows")
    if (low > 0).any() or (low < -band_hz).any():
        errs.append(f"envelope: lower trace outside [-{band_hz}, 0] Hz in {int(((low > 0) | (low < -band_hz)).any(axis=1).sum())} rows")
    return errs


def nn_l1_counts(vectors, labels, splits) -> np.ndarray:
    """Pooled confusion of a plain L1 1-NN over the given (train, test) splits.

    Ties go to the lowest train index.  Rows and columns follow the
    sorted class values.
    """
    x = np.asarray(vectors, float)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    pos = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=int)
    for tr, te in splits:
        for i in te:
            d = np.abs(x[tr] - x[i]).sum(axis=1)
            counts[pos[labels[i]], pos[labels[tr[int(np.argmin(d))]]]] += 1
    return counts


def equal_counts(name, got, want) -> list[str]:
    if not np.array_equal(np.asarray(got), np.asarray(want)):
        return [f"{name}: pooled confusion differs from the oracle's in {int((np.asarray(got) != np.asarray(want)).sum())} cells"]
    return []


def envelope_points(vectors, f_scale_hz=500.0) -> np.ndarray:
    """Stacked envelope vectors as point sets (n/N, e(n)/scale), 2N points each."""
    v = np.asarray(vectors, float)
    n = v.shape[1] // 2
    t = np.tile(np.arange(n) / n, 2)
    return np.stack([np.broadcast_to(t, v.shape), v / f_scale_hz], axis=2)


def mhd64(a, b) -> float:
    """Modified Hausdorff distance in float64 over every pair of points.

    The square root is taken after the minimum, which it does not change.
    """
    d2 = cdist(a, b, "sqeuclidean")
    return max(np.sqrt(d2.min(axis=1)).mean(), np.sqrt(d2.min(axis=0)).mean())


def mhd_trial(pointsets, labels, tr, te, reported_acc) -> list[str]:
    """One trial of MHD 1-NN in float64, brute force, against the report.

    A test sample whose two best train distances tie within
    ``MHD_TIE_TOL`` may go either way; the reported accuracy must lie
    within those samples' share of the brute-force one.
    """
    labels = np.asarray(labels)
    sets = np.asarray(pointsets, float)
    right = ambiguous = 0
    for i in te:
        d = np.array([mhd64(sets[i], sets[j]) for j in tr])
        best = int(np.argmin(d))
        right += labels[tr[best]] == labels[i]
        second = np.partition(d, 1)[1] if len(d) > 1 else np.inf
        ambiguous += second - d[best] <= MHD_TIE_TOL
    acc = 100.0 * right / len(te)
    slack = 100.0 * ambiguous / len(te)
    if abs(acc - reported_acc) > slack + 1e-9:
        return [f"mhd: trial accuracy {reported_acc:.4f}% vs float64 brute force {acc:.4f}% ({ambiguous} near-ties)"]
    return []


def trajectories(trajs, n_points, band_hz=(20.0, 500.0), suppress=(5, 3)) -> list[str]:
    """Unpadded trajectories: in band, descending intensity, suppression kept."""
    lo, hi = band_hz
    errs = []
    for k, t in enumerate(trajs):
        if t.padded:
            continue
        p = np.asarray(t.points)
        f = np.abs(p[:, 1])
        if len(p) != n_points:
            errs.append(f"trajectory {k}: {len(p)} points, expected {n_points}")
        if ((f < lo) | (f > hi)).any():
            errs.append(f"trajectory {k}: a point outside {lo} <= |f| <= {hi} Hz")
        if (np.diff(p[:, 2]) > 0).any():
            errs.append(f"trajectory {k}: points not sorted by descending intensity")
        rows = np.rint(p[:, 1] / FREQ_STEP_HZ)
        cols = np.rint(p[:, 0] / TIME_STEP_S)
        near = (np.abs(rows[:, None] - rows[None, :]) <= suppress[0]) & (
            np.abs(cols[:, None] - cols[None, :]) <= suppress[1]
        )
        if np.triu(near, 1).any():
            errs.append(f"trajectory {k}: two points inside one suppression window")
    return errs[:10]


def similarity(values, duplicate_score) -> list[str]:
    """Unit diagonal, symmetric, off-diagonal < 1; a duplicated class scores 1."""
    v = np.asarray(values)
    errs = []
    if np.abs(np.diag(v) - 1.0).max() > 1e-9:
        errs.append("similarity: diagonal is not 1")
    if not np.array_equal(v, v.T):
        errs.append("similarity: table is not symmetric")
    if v[~np.eye(len(v), dtype=bool)].max() >= 1.0:
        errs.append("similarity: an off-diagonal entry reaches 1")
    if abs(duplicate_score - 1.0) > 1e-9:
        errs.append(f"similarity: duplicated class scores {duplicate_score!r}, not 1")
    return errs


def pca_trial(vectors, labels, tr, te, dim, reported_acc) -> list[str]:
    """PCA (numpy SVD of the centred train split) + L1 1-NN, one trial."""
    x = np.asarray(vectors, float)
    labels = np.asarray(labels)
    mean = x[tr].mean(axis=0)
    _, _, vt = np.linalg.svd(x[tr] - mean, full_matrices=False)
    basis = vt[:dim].T
    ztr, zte = (x[tr] - mean) @ basis, (x[te] - mean) @ basis
    pred = [labels[tr][int(np.argmin(np.abs(ztr - z).sum(axis=1)))] for z in zte]
    acc = 100.0 * float(np.mean(np.asarray(pred) == labels[te]))
    if abs(acc - reported_acc) > 1e-9:
        return [f"pca: trial accuracy {reported_acc:.4f}% vs numpy SVD + L1 1-NN {acc:.4f}%"]
    return []


def rows_equal(name, a, b) -> list[str]:
    """Bit-for-bit equality of two feature tables' rows."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return [f"{name}: tables of {a.shape} {a.dtype} and {b.shape} {b.dtype}"]
    bad = sum(ra.tobytes() != rb.tobytes() for ra, rb in zip(a, b))
    return [f"{name}: {bad} rows differ between jobs=1 and jobs>1"] if bad else []


def above_chance(name, accuracy, n_classes, margin) -> list[str]:
    floor = 100.0 / n_classes + margin
    if not accuracy >= floor:
        return [f"{name}: accuracy {accuracy:.2f}% below chance + {margin} = {floor:.2f}%"]
    return []


def at_least(name, accuracy, floor) -> list[str]:
    return [] if accuracy >= floor else [f"{name}: accuracy {accuracy:.2f}% below {floor}%"]
