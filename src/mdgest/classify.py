"""Distances and a linear SVM.

Envelope vectors can be compared four ways: L1, L2, a closed-form 1-D
earth mover's distance on the vectors re-read as distributions, and the
modified Hausdorff distance on the vectors re-read as planar point
sets.  ``pairwise_distances`` is the one kernel for all four; a
nearest-neighbor prediction is the label of each row's ``argmin``.
The SVM is six one-vs-rest linear hinge-loss machines trained with
seeded epoch-wise subgradient descent; independent training sets (one
per protocol trial) train together in one lockstep loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.spatial.distance import cdist

from .simulate import STREAM_SVM


class DistanceKind(Enum):
    L1 = "l1"
    L2 = "l2"
    EMD = "emd"
    MHD = "mhd"

    @classmethod
    def parse(cls, name) -> "DistanceKind":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            raise ValueError(f"unknown distance kind: {name!r}") from None


def _as_mass(v: np.ndarray) -> np.ndarray:
    """Shift to non-negative if needed and normalize to unit mass; a
    vector with no mass stands in for the uniform distribution."""
    v = np.asarray(v, float)
    lo = v.min()
    if lo < 0:
        v = v - lo
    s = v.sum()
    if s <= 0:
        return np.full(v.shape, 1.0 / v.size)
    return v / s


def envelope_to_points(vec: np.ndarray, f_scale_hz: float = 500.0) -> np.ndarray:
    """Re-read a stacked envelope vector as 2N points (n/N, e(n)/scale)."""
    vec = np.asarray(vec, float)
    if vec.ndim != 1 or vec.size % 2:
        raise ValueError("expected an even-length stacked envelope vector")
    n = vec.size // 2
    t = np.arange(n) / n
    pts = np.empty((2 * n, 2))
    pts[:n, 0] = t
    pts[n:, 0] = t
    pts[:, 1] = vec / f_scale_hz
    return pts


def dist(a, b, kind: DistanceKind | str) -> float:
    """One distance: ``pairwise_distances`` of two one-element collections."""
    kind = DistanceKind.parse(kind)
    if kind is DistanceKind.MHD:
        return float(pairwise_distances([a], [b], kind)[0, 0])
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("vector distances need two equal-length vectors")
    return float(pairwise_distances(a[None], b[None], kind)[0, 0])


def _mhd_matrix(a: np.ndarray, b: np.ndarray, chunk: int = 16) -> np.ndarray:
    """All-pairs modified Hausdorff for stacks of same-size point sets.

    Works on blocks of ``chunk`` sets of squared distances in single
    precision (buffers sized to stay in cache and reused for every row
    of the block), taking the square root only after the min reductions
    (the minimizer is the same either way).  Both directed means are
    taken over a contiguous row of nearest distances, so ``out[i, j]``
    and ``out[j, i]`` are computed by the same arithmetic.  When both
    sides are the same stack (``a is b``) only the blocks on or above
    the diagonal are computed and the lower triangle is filled by
    symmetry.  Matches a float64 pair loop to float32 resolution but
    runs orders of magnitude faster.
    """
    same = a is b
    na, p, dim = a.shape
    nb, q, _ = b.shape
    a32 = np.ascontiguousarray(a, dtype=np.float32)
    b32 = a32 if same else np.ascontiguousarray(b, dtype=np.float32)
    out = np.empty((na, nb))
    d2_buf = np.empty((p, chunk * q), dtype=np.float32)
    term_buf = np.empty_like(d2_buf)
    for j0 in range(0, nb, chunk):
        blk = b32[j0 : j0 + chunk]
        s = len(blk)
        cols = blk.reshape(s * q, dim).T.copy()
        d2, term = d2_buf[:, : s * q], term_buf[:, : s * q]
        for i in range(min(na, j0 + s) if same else na):
            np.square(np.subtract(a32[i, :, 0, None], cols[0], out=d2), out=d2)
            for k in range(1, dim):
                np.square(np.subtract(a32[i, :, k, None], cols[k], out=term), out=term)
                d2 += term
            by_set = d2.reshape(p, s, q)
            fwd = np.sqrt(by_set.min(axis=2).T, dtype=np.float64, order="C").mean(axis=1)
            bwd = np.sqrt(by_set.min(axis=0), dtype=np.float64).mean(axis=1)
            out[i, j0 : j0 + s] = np.maximum(fwd, bwd)
    if same:
        lower = np.tril_indices(na, -1)
        out[lower] = out.T[lower]
    return out


def pairwise_distances(xa, xb, kind: DistanceKind | str) -> np.ndarray:
    """Distance matrix between two collections.

    Vector kinds take 2-D arrays (rows are samples); MHD takes
    collections of point-set arrays, each side of one common shape.
    """
    kind = DistanceKind.parse(kind)
    if kind is DistanceKind.MHD:
        sa = np.stack(xa)
        sb = sa if xa is xb else np.stack(xb)
        if sa.ndim != 3 or sb.ndim != 3 or sa.shape[2] != sb.shape[2]:
            raise ValueError("point sets must be (points, dim) arrays sharing a dimension")
        return _mhd_matrix(sa, sb)
    xa = np.asarray(xa, float)
    xb = np.asarray(xb, float)
    if kind is DistanceKind.L1:
        return cdist(xa, xb, metric="cityblock")
    if kind is DistanceKind.L2:
        return cdist(xa, xb, metric="euclidean")
    ca = np.cumsum(np.stack([_as_mass(r) for r in xa]), axis=1)
    cb = np.cumsum(np.stack([_as_mass(r) for r in xb]), axis=1)
    return cdist(ca, cb, metric="cityblock")


@dataclass
class SvmModel:
    weights: np.ndarray  # (C, D)
    bias: np.ndarray  # (C,)
    mean: np.ndarray
    scale: np.ndarray
    classes: np.ndarray
    epoch_losses: np.ndarray = field(default_factory=lambda: np.zeros(0))
    majority: int | None = None  # set when training data was degenerate

    def decision(self, x: np.ndarray) -> np.ndarray:
        z = (np.atleast_2d(np.asarray(x, float)) - self.mean) / self.scale
        return z @ self.weights.T + self.bias


def _svm_objective(z, targets, w, b, lam) -> float:
    margins = 1.0 - targets * (z @ w.T + b).T
    hinge = np.maximum(margins, 0.0).mean(axis=1).sum()
    return 0.5 * lam * (w**2).sum() + hinge


def fit_svm_many(xs, ys, seeds, lam: float = 1e-4, epochs: int = 200) -> list[SvmModel]:
    """Train one-vs-rest linear hinge machines on several independent sets.

    For each set, features are standardized (constant dimensions keep
    unit scale).  Per-sample subgradient steps with 1/(lam*t) rates run
    in a shuffle order drawn from the set's own seeded stream; after
    each epoch the full objective is evaluated and the best iterate so
    far is kept, so the recorded loss curve is non-increasing and the
    returned machine is the best one seen.  A set whose rows are all
    identical gets a model that predicts its majority class.

    All other sets must share (M, D) and their number of classes; they
    train in lockstep: step s of every set runs as one batched update,
    with one gemv per set and masked updates of the violating machines
    only.  A set's arithmetic is the one-set loop's, so its model does
    not depend on which sets it was trained with.
    """
    if not len(xs) == len(ys) == len(seeds):
        raise ValueError("need one label vector and one seed per feature set")
    models: list[SvmModel | None] = [None] * len(xs)
    live = []
    for k, (x, y) in enumerate(zip(xs, ys)):
        x = np.asarray(x, float)
        y = np.asarray(y, int)
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("need (M, D) features with matching labels")
        classes = np.unique(y)
        mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale[scale == 0.0] = 1.0
        if np.all(np.all(x == x[0], axis=1)):
            counts = np.array([(y == c).sum() for c in classes])
            maj = int(classes[int(np.argmax(counts))])
            c, dim = len(classes), x.shape[1]
            models[k] = SvmModel(np.zeros((c, dim)), np.zeros(c), mean, scale, classes, majority=maj)
        else:
            targets = np.where(y[None, :] == classes[:, None], 1.0, -1.0)  # (C, M)
            live.append((k, (x - mean) / scale, targets, mean, scale, classes))
    if not live:
        return models
    if len({(z.shape, len(tg)) for _, z, tg, *_ in live}) > 1:
        raise ValueError("sets trained together must share (M, D) and their number of classes")

    z = np.stack([s[1] for s in live])  # (S, M, D)
    targets = np.stack([s[2] for s in live])  # (S, C, M)
    n, m, dim = z.shape
    rows = np.arange(n)[:, None]
    by_sample = targets.transpose(0, 2, 1)  # (S, M, C)
    w = np.zeros((n, targets.shape[1], dim))
    b = np.zeros((n, targets.shape[1]))
    rngs = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence([seeds[k], STREAM_SVM])))
        for k, *_ in live
    ]
    best_w, best_b = w.copy(), b.copy()
    best_obj = [_svm_objective(z[j], targets[j], w[j], b[j], lam) for j in range(n)]
    losses = np.empty((n, epochs))
    t = 0
    for e in range(epochs):
        order = np.stack([rng.permutation(m) for rng in rngs])  # (S, M)
        # Step-major copies, so step s reads one contiguous (S, D) / (S, C) row.
        zs = z[rows, order].transpose(1, 0, 2).copy()
        ts = by_sample[rows, order].transpose(1, 0, 2).copy()
        for s in range(m):
            t += 1
            eta = 1.0 / (lam * t)
            zi, ti = zs[s], ts[s]
            viol = ti * (np.matmul(w, zi[:, :, None])[:, :, 0] + b) < 1.0
            w *= 1.0 - eta * lam
            sv, cv = viol.nonzero()
            if len(sv):
                step = (eta / m) * ti[sv, cv]
                w[sv, cv] += step[:, None] * zi[sv]
                b[sv, cv] += step
        for j in range(n):
            obj = _svm_objective(z[j], targets[j], w[j], b[j], lam)
            if obj < best_obj[j]:
                best_obj[j] = obj
                best_w[j], best_b[j] = w[j], b[j]
            losses[j, e] = best_obj[j]
    for j, (k, _, _, mean, scale, classes) in enumerate(live):
        models[k] = SvmModel(best_w[j], best_b[j], mean, scale, classes, epoch_losses=losses[j])
    return models


def svm_predict(model: SvmModel, x: np.ndarray) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(x, float))
    if model.majority is not None:
        return np.full(len(xs), model.majority)
    return model.classes[model.decision(xs).argmax(axis=1)]
