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


# An envelope vector of 2N values (upper then lower trace, in Hz) is
# read as 2N planar points (n/N, e(n)/ENVELOPE_SCALE_HZ), n < N.
ENVELOPE_SCALE_HZ = 500.0


def _nearest_sq(pts, cols, q, d2_buf, term_buf):
    """Nearest float32 squared distances between ``pts`` (p, dim) and a
    block of sets of ``q`` points each, laid out set by set as ``cols``
    (dim, s * q).

    Returns each point's nearest in each set, (p, s), and each set
    point's nearest in ``pts``, (s, q).  The squared distances fill
    slices of the reused buffers, sized to stay in cache.
    """
    p, dim = pts.shape
    d2, term = d2_buf[:p, : cols.shape[1]], term_buf[:p, : cols.shape[1]]
    np.square(np.subtract(pts[:, 0, None], cols[0], out=d2), out=d2)
    for k in range(1, dim):
        np.square(np.subtract(pts[:, k, None], cols[k], out=term), out=term)
        d2 += term
    by_set = d2.reshape(p, -1, q)
    return by_set.min(axis=2), by_set.min(axis=0)


def _mean_nearest(sq: np.ndarray) -> np.ndarray:
    """Each row's mean nearest distance, from its squared distances."""
    return np.sqrt(sq, dtype=np.float64, order="C").mean(axis=1)


def _mhd_matrix(a: np.ndarray, b: np.ndarray, chunk: int = 16) -> np.ndarray:
    """All-pairs modified Hausdorff for stacks of same-size point sets.

    Works on blocks of ``chunk`` sets of squared distances in single
    precision, taking the square root only after the min reductions (the
    minimizer is the same either way).  Both directed means are taken
    over a contiguous row of nearest distances, so ``out[i, j]`` and
    ``out[j, i]`` are computed by the same arithmetic.  Matches a
    float64 pair loop to float32 resolution but runs orders of magnitude
    faster.
    """
    na, p, dim = a.shape
    nb, q, _ = b.shape
    a32 = np.ascontiguousarray(a, dtype=np.float32)
    b32 = np.ascontiguousarray(b, dtype=np.float32)
    out = np.empty((na, nb))
    d2_buf = np.empty((p, chunk * q), dtype=np.float32)
    term_buf = np.empty_like(d2_buf)
    for j0 in range(0, nb, chunk):
        blk = b32[j0 : j0 + chunk]
        s = len(blk)
        cols = blk.reshape(s * q, dim).T.copy()
        for i in range(na):
            fwd, bwd = _nearest_sq(a32[i], cols, q, d2_buf, term_buf)
            out[i, j0 : j0 + s] = np.maximum(_mean_nearest(fwd.T), _mean_nearest(bwd))
    return out


@dataclass
class _EnvelopeSets:
    """A stack of envelope vectors as point sets, split at the axis.

    Gated columns give envelope values of exactly 0: points on the time
    axis.  Per set and per point slot (upper then lower, 2N in all):
    ``axis`` marks points with y == 0, ``ysq`` holds y², ``order`` lists
    the off-axis slots first, in point order, and ``pts`` holds the
    ``count`` off-axis points in that order, padded with y = +inf.
    ``a`` is the nearest squared distance from the axis point (x_c, 0)
    of the slot's column c to the whole set, and ``z`` the same to the
    set's axis points alone (+inf without any).  All in float32.
    """

    axis: np.ndarray
    ysq: np.ndarray
    count: np.ndarray
    order: np.ndarray
    pts: np.ndarray
    a: np.ndarray
    z: np.ndarray

    @classmethod
    def of(cls, v: np.ndarray, d2_buf, term_buf, chunk: int) -> "_EnvelopeSets":
        m, n2 = v.shape
        n = n2 // 2
        x = (np.arange(n) / n).astype(np.float32)
        xs = np.concatenate([x, x])
        y = (v / ENVELOPE_SCALE_HZ).astype(np.float32)
        axis = y == 0
        count = n2 - axis.sum(axis=1)
        order = np.argsort(axis, axis=1, kind="stable")
        pts = np.empty((m, n2, 2), dtype=np.float32)
        pts[:, :, 0] = xs[order]
        pts[:, :, 1] = np.take_along_axis(y, order, axis=1)
        pts[np.arange(n2) >= count[:, None], 1] = np.inf
        # Both per-column minima come from the same blocked kernel, with
        # the axis points (x_c, 0) as the one point set on the left; for z
        # the off-axis points move to y = +inf.
        grid = np.stack([x, np.zeros_like(x)], axis=1)
        a, z = np.empty((m, n2), np.float32), np.empty((m, n2), np.float32)
        for j0 in range(0, m, chunk):
            ys = y[j0 : j0 + chunk]
            for y_set, dst in ((ys, a), (np.where(axis[j0 : j0 + chunk], ys, np.inf), z)):
                cols = np.stack([np.tile(xs, len(ys)), y_set.ravel()])
                near = _nearest_sq(grid, cols, n2, d2_buf, term_buf)[0].T
                dst[j0 : j0 + len(ys)] = np.tile(near, 2)
        return cls(axis, np.square(y), count, order, pts, a, z)


def _envelope_mhd_matrix(va: np.ndarray, vb: np.ndarray, same: bool, chunk: int = 16) -> np.ndarray:
    """All-pairs modified Hausdorff of stacked envelope vectors, read as
    point sets.

    Equal bit for bit to ``_mhd_matrix`` of the point sets, but compares
    only off-axis points pairwise.  A candidate's squared distance is
    fl(fl(dx²) + fl(dy²)); against an axis point dy² is exactly the other
    point's y², and rounding is monotone, so the nearest of a set's axis
    points to any point of column c is fl(z[c] + y²).  An axis point's
    nearest in a set is ``a`` of its column, which is per set, not per
    pair.  The off-axis × off-axis minima come from ``_nearest_sq`` over
    blocks of sets sorted by off-axis count; each pair's 2N minima per
    direction are then put back in point order, so the float64 means
    are those of ``_mhd_matrix``.  With ``same`` (``va`` is ``vb``) only
    one pair of each two is computed and the other mirrored.  The two
    buffers hold ``chunk`` whole sets' squared distances, as in
    ``_mhd_matrix``; a block takes as many sets as fit.
    """
    n2 = va.shape[1]
    d2_buf = np.empty((n2, chunk * n2), dtype=np.float32)
    term_buf = np.empty_like(d2_buf)
    sa = _EnvelopeSets.of(va, d2_buf, term_buf, chunk)
    sb = sa if same else _EnvelopeSets.of(vb, d2_buf, term_buf, chunk)
    perm = np.argsort(sb.count, kind="stable")
    counts = sb.count[perm]
    out = np.empty((len(va), len(vb)))
    bwd = np.empty((len(vb), n2 + 1), dtype=np.float32)  # a spare slot for the pads
    j1 = 0
    while j1 < len(vb):
        # As many sets as fill the buffers, padded to the block's largest count.
        j0, j1 = j1, j1 + 1
        while j1 < len(vb) and (j1 + 1 - j0) * max(counts[j1], 1) <= chunk * n2:
            j1 += 1
        js = perm[j0:j1]
        s = len(js)
        k = int(counts[j1 - 1])
        cols = sb.pts[js, :k].reshape(s * k, 2).T.copy()
        live = np.arange(k) < sb.count[js, None]
        pos = (np.where(live, sb.order[js, :k], n2) + (n2 + 1) * np.arange(s)[:, None]).ravel()
        a_b, z_b, axis_b, ysq_b = sb.a[js], sb.z[js], sb.axis[js], sb.ysq[js]
        g = bwd[:s]
        flat = g.reshape(-1)
        for i in perm[:j1] if same else range(len(va)):
            fwd = z_b + sa.ysq[i]
            np.copyto(fwd, a_b, where=sa.axis[i])
            np.add(sa.z[i], ysq_b, out=g[:, :n2])
            np.copyto(g[:, :n2], sa.a[i], where=axis_b)
            ki = sa.count[i]
            if ki and k:
                f_sq, b_sq = _nearest_sq(sa.pts[i, :ki], cols, k, d2_buf, term_buf)
                off = sa.order[i, :ki]
                fwd[:, off] = np.minimum(fwd[:, off], f_sq.T)
                flat[pos] = np.minimum(flat[pos], b_sq.ravel())
            d = np.maximum(_mean_nearest(fwd), _mean_nearest(g[:, :n2]))
            out[i, js] = d
            if same:
                out[js, i] = d
    return out


def pairwise_distances(xa, xb, kind: DistanceKind | str) -> np.ndarray:
    """Distance matrix between two collections.

    Vector kinds take 2-D arrays (rows are samples).  MHD takes either
    two collections of point-set arrays, each side of one common shape,
    or two 2-D stacks of envelope vectors of one even length, read as
    point sets; passing the same stack twice computes each pair once.
    """
    kind = DistanceKind.parse(kind)
    if kind is DistanceKind.MHD:
        sa = np.stack(xa)
        sb = sa if xa is xb else np.stack(xb)
        if sa.ndim == 2 == sb.ndim:
            if sa.shape[1] != sb.shape[1] or sa.shape[1] % 2 or not sa.shape[1]:
                raise ValueError("envelope vectors must share one even, non-zero length")
            return _envelope_mhd_matrix(
                np.asarray(sa, float), np.asarray(sb, float), same=xa is xb
            )
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
