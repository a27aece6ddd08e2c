"""PCA and principal-angle subspace comparison against linear-algebra oracles."""

import numpy as np
import pytest

from mdgest.simulate import GestureLabel
from mdgest.subspace import (
    ClassSubspace,
    PcaModel,
    canonical_correlations,
    class_subspace,
    fit_pca,
    gram,
    gram_pca,
    similarity,
    similarity_table,
)


def random_subspace(rng, ambient, d):
    q, _ = np.linalg.qr(rng.normal(size=(ambient, d)))
    return ClassSubspace(basis=q[:, :d])


def eigen_oracle(a, b):
    """Principal-angle cosines via the eigenvalues of (A'B)(A'B)'."""
    m = a.basis.T @ b.basis
    lam = np.linalg.eigvalsh(m @ m.T)
    lam = np.clip(lam, 0.0, 1.0)
    return np.sqrt(lam[::-1])


def image_like(rng, m, q=2500, rank=40):
    """Non-negative float32 rows with a fast-decaying spectrum, like
    vectorised spectrogram images: the top singular values span several
    decades and the rows share a large mean."""
    scales = np.logspace(0, -3, rank)
    x = 0.3 + (rng.normal(size=(m, rank)) * scales) @ rng.random((rank, q)) / rank
    x += 1e-6 * rng.normal(size=(m, q))
    return np.clip(x, 0.0, None).astype(np.float32)


def svd_oracle(x, d):
    """Mean, top-d basis and singular values from the thin SVD of the
    centred rows: the reference both PCA routes must reproduce."""
    x = np.asarray(x, float)
    mean = x.mean(axis=0)
    u, s, _ = np.linalg.svd((x - mean).T, full_matrices=False)
    return PcaModel(mean=mean, basis=u[:, :d], singular_values=s[:d])


def span_cosines(a, b):
    """Cosines of the principal angles between two column spans."""
    return np.linalg.svd(a.T @ b, compute_uv=False)


def signs(got, want):
    """Per column, the sign that turns ``got`` towards ``want``."""
    return np.where((got * want).sum(axis=0) < 0, -1.0, 1.0)


# Tolerances, set from float64 round-off: the Gram route squares the
# spread of the singular values, so a component k resolves to about
# eps * s_max^2 / s_k^2 relative, and the 30 components tested here span
# about two decades of singular value.  fit_pca and class_subspace take
# a thin SVD and meet them with a wide margin.
SPAN_TOL = 1e-9
COEF_RTOL = 1e-9


class TestPcaOracle:
    @pytest.mark.parametrize("data", ["random", "image-like"])
    def test_matches_thin_svd(self, data):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(60, 500)) if data == "random" else image_like(rng, 84)
        d = 30
        got, want = fit_pca(x, d), svd_oracle(x, d)
        np.testing.assert_allclose(got.basis.T @ got.basis, np.eye(d), atol=1e-12)
        np.testing.assert_allclose(span_cosines(got.basis, want.basis), 1.0, atol=SPAN_TOL)
        np.testing.assert_allclose(got.mean, want.mean, rtol=0, atol=1e-15)
        s = want.singular_values
        np.testing.assert_allclose(got.singular_values[:d], s, rtol=0, atol=1e-12 * s[0])
        z_got = (x - got.mean) @ got.basis
        z_want = (x - want.mean) @ want.basis
        scale = np.abs(z_want).max()
        np.testing.assert_allclose(z_got * signs(z_got, z_want), z_want, rtol=0, atol=COEF_RTOL * scale)

    def test_more_samples_than_dims(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(300, 40)) @ np.diag(np.linspace(4.0, 0.5, 40))
        got, want = fit_pca(x, 40), svd_oracle(x, 40)
        np.testing.assert_allclose(got.basis.T @ got.basis, np.eye(40), atol=1e-12)
        np.testing.assert_allclose(span_cosines(got.basis, want.basis), 1.0, atol=SPAN_TOL)

    @pytest.mark.parametrize("case", ["d-equals-m", "duplicated-rows"])
    def test_degenerate_components_stay_finite(self, case):
        # Centred rank below d: m rows have rank m - 1 after centring, and
        # a duplicated row removes one more.  The null columns are an
        # arbitrary orthonormal completion, as the thin SVD's are.
        rng = np.random.default_rng(22)
        x = image_like(rng, 12).astype(float)
        if case == "duplicated-rows":
            x[5] = x[4]
        rank = 11 if case == "d-equals-m" else 10
        got, want = fit_pca(x, 12), svd_oracle(x, 12)
        assert np.isfinite(got.basis).all() and np.isfinite(got.singular_values).all()
        np.testing.assert_allclose(got.basis.T @ got.basis, np.eye(12), atol=1e-12)
        np.testing.assert_allclose(
            span_cosines(got.basis[:, :rank], want.basis[:, :rank]), 1.0, atol=SPAN_TOL
        )
        z_got = ((x - got.mean) @ got.basis)[:, :rank]
        z_want = ((x - want.mean) @ want.basis)[:, :rank]
        np.testing.assert_allclose(
            z_got * signs(z_got, z_want), z_want, rtol=0, atol=COEF_RTOL * np.abs(z_want).max()
        )


def svd_coefficients(x_train, x_test, d):
    """The thin-SVD route to ``gram_pca``'s coefficients: ``fit_pca`` of
    the train rows and its projection, with components whose eigenvalue is
    below 1e-12 of the largest zeroed and each component turned so that
    its largest-magnitude train coefficient is positive."""
    model = fit_pca(x_train, d)
    lam = model.singular_values[:d] ** 2
    keep = lam > 1e-12 * lam[0]
    ztr = (x_train - model.mean) @ model.basis * keep
    zte = (x_test - model.mean) @ model.basis * keep
    top = ztr[np.abs(ztr).argmax(axis=0), np.arange(ztr.shape[1])]
    flip = np.where(top < 0, -1.0, 1.0)
    return ztr * flip, zte * flip


def coefficients(route, x, tr, te, d):
    """Train and test PCA coefficients by ``gram_pca`` or by the SVD route."""
    if route == "gram":
        return gram_pca(gram(x), x.shape[1], tr, te, d)
    return svd_coefficients(x[tr], x[te], d)


ROUTES = ["gram", "svd"]


class TestPcaCoefficients:
    """``gram_pca`` (method of snapshots) and the thin SVD of the train
    rows (``fit_pca`` and its projection) must both equal the projection
    onto the oracle's basis, up to one orientation they share."""

    def split(self, m, seed=23):
        perm = np.random.default_rng(seed).permutation(m)
        return np.sort(perm[: 7 * m // 10]), np.sort(perm[7 * m // 10 :])

    def oracle(self, x, tr, te, d):
        model = svd_oracle(x[tr], d)
        return (x[tr] - model.mean) @ model.basis, (x[te] - model.mean) @ model.basis

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("shape", [(84, 2500), (300, 200)], ids=["m<q", "m>q"])
    def test_matches_fit_and_project(self, shape, route):
        rng = np.random.default_rng(24)
        x = image_like(rng, *shape, rank=min(40, shape[1]))
        tr, te = self.split(shape[0])
        ztr, zte = coefficients(route, x, tr, te, 30)
        otr, ote = self.oracle(x, tr, te, 30)
        scale = np.abs(otr).max()
        flip = signs(ztr, otr)
        np.testing.assert_allclose(ztr * flip, otr, rtol=0, atol=COEF_RTOL * scale)
        np.testing.assert_allclose(zte * flip, ote, rtol=0, atol=COEF_RTOL * scale)

    @pytest.mark.parametrize("shape", [(84, 2500), (300, 200)], ids=["m<q", "m>q"])
    def test_routes_agree_with_signs(self, shape):
        # Both shapes take the Gram route in the predictor; a
        # sign-sensitive metric (nn-emd) must see the SVD route's signs.
        rng = np.random.default_rng(30)
        x = image_like(rng, *shape, rank=min(40, shape[1]))
        tr, te = self.split(shape[0])
        a = coefficients("gram", x, tr, te, 30)
        b = coefficients("svd", x, tr, te, 30)
        scale = np.abs(a[0]).max()
        for u, v in zip(a, b):
            np.testing.assert_allclose(u, v, rtol=0, atol=COEF_RTOL * scale)

    def test_common_shift_of_the_rows_cancels(self):
        # Each trial centres on its own train mean, never the table's.
        rng = np.random.default_rng(25)
        x = rng.normal(size=(40, 60))
        tr, te = self.split(40)
        a = gram_pca(gram(x), 60, tr, te, 5)
        b = gram_pca(x @ x.T, 60, tr, te, 5)
        for u, v in zip(a, b):
            np.testing.assert_allclose(u, v, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("route", ROUTES)
    def test_orientation_is_fixed_on_train_coefficients(self, route):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(40, 60))
        tr, te = self.split(40)
        ztr, _ = coefficients(route, x, tr, te, 5)
        for j in range(5):
            assert ztr[np.argmax(np.abs(ztr[:, j])), j] > 0

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("scale", [1e-7, 1e3])
    @pytest.mark.parametrize("case", ["d-equals-m", "duplicated-rows"])
    def test_null_components_get_zero_coefficients(self, case, scale, route):
        # The threshold is relative: at either scale the null components
        # are found, and no real one is taken for null.
        rng = np.random.default_rng(27)
        x = image_like(rng, 20).astype(float) * scale
        tr, te = np.arange(12), np.arange(12, 20)
        if case == "duplicated-rows":
            x[5] = x[4]
        rank = 11 if case == "d-equals-m" else 10
        ztr, zte = coefficients(route, x, tr, te, 12)
        assert np.isfinite(ztr).all() and np.isfinite(zte).all()
        assert not ztr[:, rank:].any() and not zte[:, rank:].any()
        otr, ote = self.oracle(x, tr, te, rank)
        atol = COEF_RTOL * np.abs(otr).max()
        flip = signs(ztr[:, :rank], otr)
        np.testing.assert_allclose(ztr[:, :rank] * flip, otr, rtol=0, atol=atol)
        np.testing.assert_allclose(zte[:, :rank] * flip, ote, rtol=0, atol=atol)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("d", [0, 13, 61])
    def test_rank_bounds_enforced(self, d, route):
        x = np.random.default_rng(28).normal(size=(20, 60))
        with pytest.raises(ValueError, match="out of range"):
            coefficients(route, x, np.arange(12), np.arange(12, 20), d)


class TestPca:
    def test_basis_orthonormal(self):
        rng = np.random.default_rng(0)
        model = fit_pca(rng.normal(size=(20, 12)), d=5)
        gram = model.basis.T @ model.basis
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-12)

    @pytest.mark.prop
    def test_full_rank_projection_preserves_distances(self):
        # With d equal to the centered rank, projection is an isometry on
        # the data: pairwise distances survive exactly.
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 30))
        model = fit_pca(x, d=11)
        z = (x - model.mean) @ model.basis
        for i in range(12):
            for j in range(i + 1, 12):
                orig = np.linalg.norm(x[i] - x[j])
                proj = np.linalg.norm(z[i] - z[j])
                assert proj == pytest.approx(orig, abs=1e-9)

    def test_beats_random_bases_at_reconstruction(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 25)) @ np.diag(np.linspace(3, 0.1, 25))
        d = 6
        model = fit_pca(x, d)
        xc = x - model.mean

        def resid(basis):
            return np.linalg.norm(xc - (xc @ basis) @ basis.T) ** 2

        best = resid(model.basis)
        for _ in range(10):
            assert best <= resid(random_subspace(rng, 25, d).basis) + 1e-9

    def test_sign_convention_and_determinism(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(15, 10))
        a = fit_pca(x, d=3)
        b = fit_pca(x, d=3)
        np.testing.assert_array_equal(a.basis, b.basis)
        for j in range(3):
            i = np.argmax(np.abs(a.basis[:, j]))
            assert a.basis[i, j] > 0

    @pytest.mark.parametrize("d", [0, 8, 100])
    def test_rank_bounds_enforced(self, d):
        with pytest.raises(ValueError):
            fit_pca(np.ones((8, 7)), d)


class TestClassSubspace:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(6)
        sub = class_subspace(rng.normal(size=(10, 20)), d=4)
        np.testing.assert_allclose(sub.basis.T @ sub.basis, np.eye(4), atol=1e-12)

    def test_uncentered_span(self):
        # Samples along one ray span a single direction; centering would
        # collapse it, so the fit must work on the raw rows.
        v = np.array([3.0, 4.0, 0.0, 0.0])
        x = np.outer([1.0, 2.0, 5.0], v)
        sub = class_subspace(x, d=1)
        np.testing.assert_allclose(sub.basis[:, 0], v / 5.0, atol=1e-12)

    @pytest.mark.parametrize("data", ["random", "image-like"])
    def test_matches_thin_svd_span(self, data):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(30, 400)) if data == "random" else image_like(rng, 120)
        d = 10
        got = class_subspace(x, d)
        u, _, _ = np.linalg.svd(np.asarray(x, float).T, full_matrices=False)
        np.testing.assert_allclose(got.basis.T @ got.basis, np.eye(d), atol=1e-12)
        np.testing.assert_allclose(span_cosines(got.basis, u[:, :d]), 1.0, atol=SPAN_TOL)


class TestCanonicalCorrelations:
    def test_matches_eigen_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_subspace(rng, 40, 5)
            b = random_subspace(rng, 40, 5)
            got = canonical_correlations(a, b)
            np.testing.assert_allclose(got, eigen_oracle(a, b), atol=1e-8)
            assert np.all(np.diff(got) <= 1e-12)  # descending
            assert np.all((got >= 0.0) & (got <= 1.0))

    @pytest.mark.prop
    def test_invariant_to_basis_rotation(self):
        # Correlations describe the subspaces, not the particular bases:
        # any orthogonal remix of basis columns leaves them unchanged.
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = random_subspace(rng, 30, 4)
            b = random_subspace(rng, 30, 4)
            qa, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            qb, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            base = canonical_correlations(a, b)
            mixed = canonical_correlations(
                ClassSubspace(a.basis @ qa), ClassSubspace(b.basis @ qb)
            )
            np.testing.assert_allclose(mixed, base, atol=1e-9)

    def test_identical_subspaces_score_one(self):
        rng = np.random.default_rng(9)
        a = random_subspace(rng, 20, 3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        b = ClassSubspace(a.basis @ q)
        np.testing.assert_allclose(canonical_correlations(a, b), 1.0, atol=1e-9)
        assert similarity(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_subspaces_score_zero(self):
        e = np.eye(6)
        a = ClassSubspace(e[:, :2])
        b = ClassSubspace(e[:, 3:5])
        np.testing.assert_allclose(canonical_correlations(a, b), 0.0, atol=1e-12)

    def test_partial_overlap_flags_the_shared_direction(self):
        e = np.eye(5)
        a = ClassSubspace(e[:, [0, 1]])
        b = ClassSubspace(e[:, [0, 3]])
        np.testing.assert_allclose(canonical_correlations(a, b), [1.0, 0.0], atol=1e-12)

    def test_ambient_mismatch_raises(self):
        with pytest.raises(ValueError):
            canonical_correlations(
                ClassSubspace(np.eye(4)[:, :2]), ClassSubspace(np.eye(5)[:, :2])
            )


class TestSimilarityTable:
    def class_samples(self, rng, n=12, dim=40):
        return {
            lab: rng.normal(size=(n, dim)) + 0.5 * int(lab) for lab in GestureLabel
        }

    def test_diagonal_symmetry_and_range(self):
        table = similarity_table(self.class_samples(np.random.default_rng(10)), d=4)
        v = table.values
        np.testing.assert_array_equal(np.diag(v), np.ones(6))
        np.testing.assert_allclose(v, v.T, atol=0)
        off = v[~np.eye(6, dtype=bool)]
        assert np.all(off < 1.0)
        assert np.all(off >= 0.0)

    def test_labels_sorted_regardless_of_input_order(self):
        samples = self.class_samples(np.random.default_rng(11))
        shuffled = {lab: samples[lab] for lab in reversed(list(GestureLabel))}
        table = similarity_table(shuffled, d=4)
        assert table.labels == tuple(sorted(GestureLabel, key=int))

    def test_duplicated_class_pairs_at_one(self):
        rng = np.random.default_rng(12)
        samples = self.class_samples(rng)
        samples[GestureLabel.CROSS] = samples[GestureLabel.PUSH_PULL].copy()
        table = similarity_table(samples, d=4)
        i = table.labels.index(GestureLabel.PUSH_PULL)
        j = table.labels.index(GestureLabel.CROSS)
        assert table.values[i, j] == pytest.approx(1.0, abs=1e-9)

    def test_duplicated_image_like_class_pairs_at_one(self):
        rng = np.random.default_rng(15)
        samples = {lab: list(image_like(rng, 20, q=1000)) for lab in GestureLabel}
        samples[GestureLabel.CROSS] = [v.copy() for v in samples[GestureLabel.PUSH_PULL]]
        table = similarity_table(samples, d=10)
        i = table.labels.index(GestureLabel.PUSH_PULL)
        j = table.labels.index(GestureLabel.CROSS)
        assert table.values[i, j] == pytest.approx(1.0, abs=1e-9)
        off = table.values[~np.eye(6, dtype=bool)]
        assert np.sort(off)[-3] < 1.0 - 1e-6

    def test_small_class_rejected_with_letter(self):
        samples = self.class_samples(np.random.default_rng(13))
        samples[GestureLabel.ROLL] = samples[GestureLabel.ROLL][:3]
        with pytest.raises(ValueError, match="class d"):
            similarity_table(samples, d=4)

    def test_csv_layout(self, tmp_path):
        table = similarity_table(self.class_samples(np.random.default_rng(14)), d=4)
        path = tmp_path / "sim.csv"
        table.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",a,b,c,d,e,f"
        first = lines[1].split(",")
        assert first[0] == "a"
        assert first[1] == "1.000000"
        assert len(lines) == 7
