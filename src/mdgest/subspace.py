"""PCA bases, class subspaces, and principal-angle similarity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .simulate import GestureLabel


def _as_matrix(samples) -> np.ndarray:
    if isinstance(samples, np.ndarray) and samples.ndim == 2:
        x = np.asarray(samples, float)
    else:
        x = np.vstack([np.asarray(s, float) for s in samples])
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("expected a non-empty (samples x dims) matrix")
    return x


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    # deterministic orientation: largest-|entry| coordinate made positive
    for j in range(basis.shape[1]):
        i = int(np.argmax(np.abs(basis[:, j])))
        if basis[i, j] < 0:
            basis[:, j] = -basis[:, j]
    return basis


def _check_dim(d: int, m: int, q: int) -> None:
    if not 1 <= d <= min(m, q):
        raise ValueError(f"d={d} out of range for {m} samples of dim {q}")


def _orient(ztr: np.ndarray, zte: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # deterministic orientation: each component's largest-|entry| train
    # coefficient made positive, the test coefficients flipped with it
    top = ztr[np.abs(ztr).argmax(axis=0), np.arange(ztr.shape[1])]
    flip = np.where(top < 0, -1.0, 1.0)
    return ztr * flip, zte * flip


# Eigenvalues of a centred Gram matrix below this share of the largest
# are taken as zero: eigh resolves them only to about m * eps * lam_max.
# A pca_dim equal to the train count, or a duplicated train row, makes
# such components.
_NULL_RTOL = 1e-12


@dataclass
class PcaModel:
    mean: np.ndarray
    basis: np.ndarray  # (dims, d), orthonormal columns
    singular_values: np.ndarray


def fit_pca(samples, d: int) -> PcaModel:
    """Top-d principal directions of mean-centered samples (rows)."""
    x = _as_matrix(samples)
    m, q = x.shape
    _check_dim(d, m, q)
    mean = x.mean(axis=0)
    u, s, _ = np.linalg.svd((x - mean).T, full_matrices=False)
    return PcaModel(mean=mean, basis=_fix_signs(u[:, :d].copy()), singular_values=s)


def gram(samples) -> np.ndarray:
    """Gram matrix (n x n, float64) of the rows about their common mean.

    The rows' common shift cancels in ``gram_pca``; removing it here
    keeps the entries small where the rows share a large mean.
    """
    x = np.array(samples, dtype=float)
    x -= x.mean(axis=0)
    return x @ x.T


def gram_pca(g: np.ndarray, dims: int, train, test, d: int) -> tuple[np.ndarray, np.ndarray]:
    """PCA coefficients of train and test rows, from their Gram matrix.

    ``g`` is ``gram`` of every row of a (rows x ``dims``) table; the
    principal directions are those ``fit_pca`` finds for the train
    rows, and the coefficients project the centred rows onto them.  No
    ``dims``-long row is touched: train coefficients are V sqrt(L) for
    the eigenpairs (L, V) of the train-centred train block, test
    coefficients the train-centred cross block times V / sqrt(L).  This
    is the method of snapshots: an eigh of the m x m train block stands
    in for a thin SVD of the (m x dims) train rows.
    A component with an eigenvalue below ``_NULL_RTOL`` times the
    largest has no direction to project on and gets coefficient 0 on
    both sides.  Each component is oriented so that its
    largest-magnitude train coefficient is positive.
    """
    train, test = np.asarray(train), np.asarray(test)
    _check_dim(d, len(train), dims)
    g_tt = g[np.ix_(train, train)]
    r = g_tt.mean(axis=1)
    r_bar = r.mean()
    lam, v = np.linalg.eigh(g_tt - r[:, None] - r[None, :] + r_bar)
    lam, v = lam[::-1][:d], v[:, ::-1][:, :d]
    keep = lam > _NULL_RTOL * lam[0]
    root = np.sqrt(np.where(keep, lam, 1.0))
    g_et = g[np.ix_(test, train)]
    g_et = g_et - g_et.mean(axis=1, keepdims=True) - r[None, :] + r_bar
    return _orient(v * np.where(keep, root, 0.0), (g_et @ v) * np.where(keep, 1.0 / root, 0.0))


@dataclass
class ClassSubspace:
    basis: np.ndarray  # (dims, d), orthonormal columns


def class_subspace(samples, d: int) -> ClassSubspace:
    """Orthonormal span of the raw (uncentered) samples, top-d."""
    x = _as_matrix(samples)
    m, q = x.shape
    _check_dim(d, m, q)
    u, _, _ = np.linalg.svd(x.T, full_matrices=False)
    return ClassSubspace(basis=_fix_signs(u[:, :d].copy()))


def canonical_correlations(a: ClassSubspace, b: ClassSubspace) -> np.ndarray:
    """Cosines of the principal angles, descending, clipped to [0, 1]."""
    if a.basis.shape[0] != b.basis.shape[0]:
        raise ValueError("subspaces live in different ambient dimensions")
    s = np.linalg.svd(a.basis.T @ b.basis, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def similarity(a: ClassSubspace, b: ClassSubspace) -> float:
    """Largest canonical correlation between two subspaces."""
    return float(canonical_correlations(a, b)[0])


@dataclass
class SimilarityMatrix:
    values: np.ndarray
    labels: tuple[GestureLabel, ...]

    def to_csv(self, path) -> None:
        letters = [lab.letter for lab in self.labels]
        with open(path, "w") as fh:
            fh.write("," + ",".join(letters) + "\n")
            for letter, row in zip(letters, self.values):
                fh.write(letter + "," + ",".join(f"{v:.6f}" for v in row) + "\n")


def similarity_table(
    samples_by_class: Mapping[GestureLabel, Sequence],
    d: int = 10,
) -> SimilarityMatrix:
    """Pairwise largest canonical correlation between class subspaces.

    Unit diagonal by construction; each class needs at least ``d``
    samples.  Off-diagonal entries are computed once and mirrored.
    """
    labels = tuple(sorted(samples_by_class, key=int))
    if not labels:
        raise ValueError("no classes given")
    bases = {}
    for lab in labels:
        x = _as_matrix(samples_by_class[lab])
        if x.shape[0] < d:
            raise ValueError(f"class {GestureLabel(lab).letter} has fewer than d={d} samples")
        bases[lab] = class_subspace(x, d)
    n = len(labels)
    vals = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            vals[i, j] = vals[j, i] = similarity(bases[labels[i]], bases[labels[j]])
    return SimilarityMatrix(values=vals, labels=labels)
