"""Distance metrics, NN, and SVM against oracles and axiom checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from mdgest.classify import (
    ENVELOPE_SCALE_HZ,
    DistanceKind,
    _envelope_mhd_matrix,
    _mhd_matrix,
    SvmModel,
    fit_svm_many,
    pairwise_distances,
    svm_predict,
)
from mdgest.harness import (
    EvalProtocol,
    FeatureTable,
    PipelineConfig,
    _make_predictor,
    _trial_seed,
    extract_features,
    split,
)
from mdgest.simulate import STREAM_SVM, GestureLabel, SimConfig, simulate_record

VECTOR_KINDS = (DistanceKind.L1, DistanceKind.L2, DistanceKind.EMD)


def dist(a, b, kind):
    """One distance: ``pairwise_distances`` of two one-element collections."""
    return float(pairwise_distances([a], [b], kind)[0, 0])


def as_mass_oracle(v):
    v = np.asarray(v, float)
    if v.min() < 0:
        v = v - v.min()
    s = v.sum()
    if s <= 0:
        return np.full(v.shape, 1.0 / v.size)
    return v / s


def emd_lp_oracle(a, b):
    """Transportation problem on the unit-spaced line, solved as an LP."""
    a = as_mass_oracle(a)
    b = as_mass_oracle(b)
    n = len(a)
    cost = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).ravel().astype(float)
    rows, cols = [], []
    for i in range(n):
        r = np.zeros((n, n))
        r[i, :] = 1.0
        rows.append(r.ravel())
    for j in range(n):
        c = np.zeros((n, n))
        c[:, j] = 1.0
        cols.append(c.ravel())
    res = linprog(
        cost,
        A_eq=np.vstack(rows + cols),
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


def mhd_oracle(a, b):
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    fwd = np.mean([min(np.linalg.norm(p - q) for q in b) for p in a])
    bwd = np.mean([min(np.linalg.norm(p - q) for q in a) for p in b])
    return max(fwd, bwd)


def envelope_to_points(vec):
    """Re-read a stacked envelope vector as 2N points (n/N, e(n)/scale)."""
    vec = np.asarray(vec, float)
    if vec.ndim != 1 or vec.size % 2:
        raise ValueError("expected an even-length stacked envelope vector")
    n = vec.size // 2
    t = np.arange(n) / n
    pts = np.empty((2 * n, 2))
    pts[:n, 0] = t
    pts[n:, 0] = t
    pts[:, 1] = vec / ENVELOPE_SCALE_HZ
    return pts


def envelope_mhd_oracle(va, vb):
    """The point-set MHD matrix kernel over the envelopes' point sets."""
    return _mhd_matrix(
        np.stack([envelope_to_points(v) for v in va]),
        np.stack([envelope_to_points(v) for v in vb]),
    )


def fit_one(x, y, lam=1e-4, epochs=200, seed=0):
    """``fit_svm_many`` on a single set."""
    return fit_svm_many([x], [y], [seed], lam=lam, epochs=epochs)[0]


def fit_svm_oracle(x, y, lam=1e-4, epochs=200, seed=0, quiet_epochs=None):
    """The one-set sequential trainer that ``fit_svm_many`` batches.

    ``quiet_epochs``, when a list, collects the epochs in which no
    sample violated its margin.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, int)
    classes = np.unique(y)
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    z = (x - mean) / scale

    if np.all(np.all(x == x[0], axis=1)):
        counts = np.array([(y == c).sum() for c in classes])
        maj = int(classes[int(np.argmax(counts))])
        c, dim = len(classes), x.shape[1]
        return SvmModel(np.zeros((c, dim)), np.zeros(c), mean, scale, classes, majority=maj)

    targets = np.where(y[None, :] == classes[:, None], 1.0, -1.0)  # (C, M)
    m, dim = z.shape
    w = np.zeros((len(classes), dim))
    b = np.zeros(len(classes))

    def objective(wm, bm):
        margins = 1.0 - targets * (z @ wm.T + bm).T
        hinge = np.maximum(margins, 0.0).mean(axis=1).sum()
        return 0.5 * lam * (wm**2).sum() + hinge

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, STREAM_SVM])))
    best_w, best_b = w.copy(), b.copy()
    best_obj = objective(w, b)
    losses = []
    t = 0
    for epoch in range(epochs):
        quiet = True
        for i in rng.permutation(m):
            t += 1
            eta = 1.0 / (lam * t)
            zi = z[i]
            viol = targets[:, i] * (w @ zi + b) < 1.0
            w *= 1.0 - eta * lam
            if viol.any():
                quiet = False
                w[viol] += (eta / m) * targets[viol, i][:, None] * zi
                b[viol] += (eta / m) * targets[viol, i]
        if quiet and quiet_epochs is not None:
            quiet_epochs.append(epoch)
        obj = objective(w, b)
        if obj < best_obj:
            best_obj = obj
            best_w, best_b = w.copy(), b.copy()
        losses.append(best_obj)
    return SvmModel(best_w, best_b, mean, scale, classes, epoch_losses=np.array(losses))


@st.composite
def vector_pairs(draw, count=2):
    n = draw(st.integers(min_value=2, max_value=16))
    elems = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=64)
    return [np.array(draw(st.lists(elems, min_size=n, max_size=n))) for _ in range(count)]


@st.composite
def point_sets(draw, count=2):
    elems = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64)

    def one():
        m = draw(st.integers(min_value=1, max_value=8))
        return np.array(
            [[draw(elems), draw(elems)] for _ in range(m)]
        )

    return [one() for _ in range(count)]


@pytest.mark.prop
class TestMetricAxioms:
    @settings(max_examples=60, deadline=None)
    @given(vector_pairs(count=2))
    def test_vector_metrics_basic_axioms(self, pair):
        x, y = pair
        for kind in VECTOR_KINDS:
            assert dist(x, x, kind) == pytest.approx(0.0, abs=1e-12)
            dxy = dist(x, y, kind)
            assert dxy >= 0.0
            assert dxy == pytest.approx(dist(y, x, kind), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(vector_pairs(count=3))
    def test_vector_metrics_triangle(self, triple):
        # The earth-mover form maps each vector to one fixed distribution,
        # so the inequality carries over from the distribution space.
        x, y, z = triple
        for kind in VECTOR_KINDS:
            assert dist(x, z, kind) <= dist(x, y, kind) + dist(y, z, kind) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(point_sets(count=2))
    def test_point_set_metric_basic_axioms(self, pair):
        # Triangle inequality deliberately unasserted: the mean-of-minima
        # construction does not satisfy it.
        a, b = pair
        assert dist(a, a, "mhd") == pytest.approx(0.0, abs=1e-12)
        d = dist(a, b, "mhd")
        assert d >= 0.0
        assert d == pytest.approx(dist(b, a, "mhd"), abs=1e-12)


class TestDistValues:
    def test_textbook_pair(self):
        assert dist([0.0, 0.0], [3.0, 4.0], "l1") == pytest.approx(7.0)
        assert dist([0.0, 0.0], [3.0, 4.0], "l2") == pytest.approx(5.0)

    def test_identity_all_kinds(self):
        v = np.array([1.0, -2.0, 3.0, 0.5])
        for kind in VECTOR_KINDS:
            assert dist(v, v, kind) == 0.0
        assert dist(v, v, "mhd") == 0.0
        pts = envelope_to_points(v)
        assert dist(pts, pts, "mhd") == 0.0

    def test_emd_matches_lp_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            a = rng.random(8)
            b = rng.random(8)
            assert dist(a, b, "emd") == pytest.approx(emd_lp_oracle(a, b), abs=1e-9)

    def test_emd_zero_vector_means_uniform(self):
        # no mass at all stands in for the uniform distribution
        assert dist(np.zeros(4), np.ones(4), "emd") == pytest.approx(0.0)
        shifted = dist(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), "emd")
        expect = emd_lp_oracle(np.full(4, 0.25), np.array([1.0, 0.0, 0.0, 0.0]))
        assert shifted == pytest.approx(expect, abs=1e-9)

    def test_emd_uses_ground_distance_not_overlap(self):
        # same total overlap, different transport cost: mass one bin away
        # versus two bins away must differ, unlike plain L1.
        near = dist(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), "emd")
        far = dist(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), "emd")
        assert near == pytest.approx(1.0 / 3.0 * 1.0 + 0.0, abs=1e-12) or near < far
        assert far == pytest.approx(2 * near)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances([np.ones(3)], [np.ones(4)], "l1")
        with pytest.raises(ValueError):
            pairwise_distances([np.ones(3)], [np.ones(4)], "emd")
        with pytest.raises(ValueError):
            pairwise_distances([np.ones((2, 2))], [np.ones((2, 3))], "mhd")
        with pytest.raises(ValueError):
            pairwise_distances([np.ones((2, 2))] * 3, [np.ones((4, 3))], "mhd")

    def test_kind_parsing(self):
        assert DistanceKind.parse("L1") is DistanceKind.L1
        assert DistanceKind.parse("mhd") is DistanceKind.MHD
        assert DistanceKind.parse(DistanceKind.L2) is DistanceKind.L2
        with pytest.raises(ValueError):
            DistanceKind.parse("cosine")


class TestMhdForms:
    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            a = rng.normal(size=(rng.integers(2, 9), 2))
            b = rng.normal(size=(rng.integers(2, 9), 2))
            assert dist(a, b, "mhd") == pytest.approx(mhd_oracle(a, b), abs=1e-5)

    def test_blocked_matrix_matches_pair_loop(self):
        rng = np.random.default_rng(12)
        sets = [rng.normal(size=(12, 2)) for _ in range(20)]
        fast = pairwise_distances(sets, sets, "mhd")
        for i in range(20):
            for j in range(20):
                assert fast[i, j] == pytest.approx(mhd_oracle(sets[i], sets[j]), abs=1e-5)
        np.testing.assert_allclose(fast, fast.T, atol=1e-12)

    def test_mirrored_matrix_equals_full_matrix(self):
        # The envelope kernel computes each pair once when both sides are
        # the same stack.  37 vectors with gated (zero) runs of every
        # share, an all-zero and a zero-free one: the blocks of sets
        # sorted by off-axis count come out uneven, the last one short.
        rng = np.random.default_rng(15)
        v = rng.normal(scale=200.0, size=(37, 24))
        v[rng.random(v.shape) < rng.random((37, 1))] = 0.0
        v[3] = 0.0
        v[4] = rng.normal(scale=200.0, size=24)
        mirrored = pairwise_distances(v, v, "mhd")
        full = pairwise_distances(v, v.copy(), "mhd")
        np.testing.assert_array_equal(mirrored, full)
        np.testing.assert_array_equal(mirrored, mirrored.T)
        np.testing.assert_array_equal(mirrored, envelope_mhd_oracle(v, v))

        xa, xb = v[:23], rng.normal(scale=200.0, size=(19, 24)) * (rng.random((19, 24)) < 0.5)
        rect = pairwise_distances(xa, xb, "mhd")
        assert rect.shape == (23, 19)
        np.testing.assert_array_equal(rect, envelope_mhd_oracle(xa, xb))
        for i in range(23):
            for j in range(19):
                want = mhd_oracle(envelope_to_points(xa[i]), envelope_to_points(xb[j]))
                assert rect[i, j] == pytest.approx(want, abs=1e-5)

    def test_ragged_side_rejected(self):
        # Each side stacks into one array: set sizes may differ between
        # the two sides, not within one.
        rng = np.random.default_rng(13)
        small = [rng.normal(size=(3, 2)) for _ in range(4)]
        large = [rng.normal(size=(7, 2)) for _ in range(5)]
        got = pairwise_distances(small, large, "mhd")
        for i in range(4):
            for j in range(5):
                assert got[i, j] == pytest.approx(mhd_oracle(small[i], large[j]), abs=1e-5)
        with pytest.raises(ValueError):
            pairwise_distances(small + large, large, "mhd")


@st.composite
def envelope_stack_pairs(draw):
    """Two stacks of envelope vectors of one even length, with random
    zero masks: some vectors all zero, some free of zeros, and values
    that are -0.0, that underflow to float32 0 once scaled (1e-44), or
    that scale to a float32 subnormal (1e-40).  Stack sizes run past
    the kernel's block sizes without being multiples of them."""
    n2 = 2 * draw(st.integers(min_value=1, max_value=12))
    specials = np.array([0.0, -0.0, 1e-44, -1e-44, 1e-40])

    def stack():
        m = draw(st.integers(min_value=1, max_value=40))
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        # coarse levels make equal distances (ties) common
        v = rng.integers(-4, 5, size=(m, n2)) * draw(st.sampled_from([1.0, 16.0, 123.4]))
        v += rng.normal(scale=draw(st.sampled_from([0.0, 1.0, 300.0])), size=(m, n2))
        zero_share = rng.random((m, 1)) * draw(st.sampled_from([0.0, 0.5, 1.0]))
        v[rng.random((m, n2)) < zero_share] = 0.0
        odd = rng.random((m, n2)) < 0.1
        v[odd] = rng.choice(specials, size=int(odd.sum()))
        for row in draw(st.lists(st.integers(0, m - 1), max_size=3)):
            v[row] = 0.0
        return v

    return stack(), stack()


class TestEnvelopeMhdKernel:
    """The envelope MHD matrix against the point-set kernel over
    ``envelope_to_points`` stacks: equal bit for bit."""

    def test_real_envelopes(self, envelope_set):
        x, _ = envelope_set
        assert 0.3 < (x == 0).mean() < 0.95
        np.testing.assert_array_equal(pairwise_distances(x, x, "mhd"), envelope_mhd_oracle(x, x))
        np.testing.assert_array_equal(
            pairwise_distances(x[:23], x[9:], "mhd"), envelope_mhd_oracle(x[:23], x[9:])
        )

    @pytest.mark.prop
    @settings(max_examples=60, deadline=None)
    @given(envelope_stack_pairs(), st.integers(min_value=1, max_value=3))
    def test_random_zero_masks(self, stacks, chunk):
        va, vb = stacks
        for a, b, same in ((va, va, True), (va, vb, False), (vb, va, False)):
            got = _envelope_mhd_matrix(a, b, same=same, chunk=chunk)
            np.testing.assert_array_equal(got, envelope_mhd_oracle(a, b))
        np.testing.assert_array_equal(
            pairwise_distances(va, vb, "mhd"), envelope_mhd_oracle(va, vb)
        )

    def test_odd_or_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.ones((3, 5)), np.ones((2, 5)), "mhd")
        with pytest.raises(ValueError):
            pairwise_distances(np.ones((3, 4)), np.ones((2, 6)), "mhd")
        with pytest.raises(ValueError):
            pairwise_distances(np.ones((3, 4)), [np.ones((2, 2))], "mhd")


class TestEnvelopePoints:
    def test_exact_geometry(self):
        pts = envelope_to_points(np.array([10.0, 20.0, 30.0, -5.0, -15.0, -25.0]))
        expect = np.array(
            [
                [0.0, 10.0 / 500],
                [1 / 3, 20.0 / 500],
                [2 / 3, 30.0 / 500],
                [0.0, -5.0 / 500],
                [1 / 3, -15.0 / 500],
                [2 / 3, -25.0 / 500],
            ]
        )
        np.testing.assert_allclose(pts, expect, atol=1e-12)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            envelope_to_points(np.ones(5))


class TestPairwise:
    def test_matches_dist_loops(self):
        rng = np.random.default_rng(14)
        xa = rng.normal(size=(7, 9))
        xb = rng.normal(size=(5, 9))
        for kind in VECTOR_KINDS:
            mat = pairwise_distances(xa, xb, kind)
            for i in range(7):
                for j in range(5):
                    assert mat[i, j] == pytest.approx(dist(xa[i], xb[j], kind), abs=1e-10)


class TestNearestNeighbor:
    """The harness's 1-NN (labels of each row's distance argmin) on an
    envelope feature table, against an exhaustive loop."""

    def make_set(self, rng, n_train=140, n_test=60, dim=30):
        x_tr = rng.normal(size=(n_train, dim))
        y_tr = rng.integers(0, 6, size=n_train)
        x_te = rng.normal(size=(n_test, dim))
        return x_tr, y_tr, x_te

    def predict(self, x_tr, y_tr, x_te, kind):
        """Envelope nn-<kind> predictions of the harness for one split."""
        n, m = len(x_tr), len(x_te)
        table = FeatureTable(
            kind="envelope",
            labels=np.concatenate([np.asarray(y_tr), np.full(m, -1)]),
            vectors=np.vstack([x_tr, x_te]),
        )
        pipe = PipelineConfig(features="envelope", classifier=f"nn-{kind.value}")
        predict = _make_predictor(table, pipe, EvalProtocol())
        return predict(0, np.arange(n), np.arange(n, n + m))

    def oracle_predict(self, x_tr, y_tr, x_te, kind):
        preds = []
        for t in x_te:
            best_d, best_i = np.inf, -1
            for i, tr in enumerate(x_tr):
                if kind is DistanceKind.MHD:
                    d = mhd_oracle(envelope_to_points(t), envelope_to_points(tr))
                elif kind is DistanceKind.EMD:
                    d = emd_lp_oracle(t, tr)
                elif kind is DistanceKind.L1:
                    d = np.abs(t - tr).sum()
                else:
                    d = np.sqrt(((t - tr) ** 2).sum())
                if d < best_d:
                    best_d, best_i = d, i
            preds.append(y_tr[best_i])
        return np.array(preds)

    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_predictions_match_exhaustive_oracle(self, kind):
        if kind is DistanceKind.MHD:
            # the nested-loop oracle is slow, so keep the point-set case small
            size = dict(n_train=40, n_test=15, dim=12)
        elif kind is DistanceKind.EMD:
            # so is the transport LP
            size = dict(n_train=40, n_test=15, dim=10)
        else:
            size = {}
        x_tr, y_tr, x_te = self.make_set(np.random.default_rng(15), **size)
        got = self.predict(x_tr, y_tr, x_te, kind)
        np.testing.assert_array_equal(got, self.oracle_predict(x_tr, y_tr, x_te, kind))

    def test_training_sample_maps_to_its_label(self):
        x = np.array([[0.0, 1.0], [5.0, 5.0], [9.0, 0.0]])
        for kind in DistanceKind:
            assert self.predict(x, [4, 1, 2], x[1:2], kind).tolist() == [1], kind

    def test_tie_goes_to_lowest_index(self):
        # Equidistant under every metric: mirror images, then duplicates.
        mirror = np.array([[1.0, 0.0], [0.0, 1.0]])
        dup = np.array([[3.0, 1.0], [3.0, 1.0]])
        for kind in DistanceKind:
            assert self.predict(mirror, [2, 4], np.zeros((1, 2)), kind).tolist() == [2], kind
            assert self.predict(dup, [5, 1], np.array([[0.5, 2.0]]), kind).tolist() == [5], kind

    @pytest.mark.prop
    def test_invariant_under_monotone_distance_transform(self):
        rng = np.random.default_rng(16)
        x_tr, y_tr, x_te = self.make_set(rng, n_train=50, n_test=25, dim=8)
        mat = pairwise_distances(x_te, x_tr, "l1")
        base = y_tr[mat.argmin(axis=1)]
        warped = y_tr[(mat**2 + 1.0).argmin(axis=1)]
        np.testing.assert_array_equal(base, warped)


def nn_labels(x_tr, y_tr, x_te, kind):
    return np.asarray(y_tr)[pairwise_distances(x_te, x_tr, kind).argmin(axis=1)]


@pytest.mark.prop
class TestPermutationInvariance:
    @pytest.mark.parametrize("kind", ["l1", "l2"])
    def test_joint_feature_shuffle_keeps_predictions(self, kind):
        rng = np.random.default_rng(17)
        x_tr = rng.normal(size=(60, 24))
        y_tr = rng.integers(0, 6, size=60)
        x_te = rng.normal(size=(30, 24))
        perm = rng.permutation(24)
        base = nn_labels(x_tr, y_tr, x_te, kind)
        mixed = nn_labels(x_tr[:, perm], y_tr, x_te[:, perm], kind)
        np.testing.assert_array_equal(base, mixed)


class TestShuffleFeatures:
    def test_emd_is_order_sensitive(self):
        # three-bin counterexample: moving the spike next door halves the
        # transport cost, so a coordinate swap changes the distance.
        a = np.array([[1.0, 0.0, 0.0]])
        b = np.array([[0.0, 0.0, 1.0]])
        perm = np.array([1, 0, 2])
        before = dist(a[0], b[0], "emd")
        after = dist(a[0, perm], b[0, perm], "emd")
        assert before == pytest.approx(2.0)
        assert after == pytest.approx(1.0)
        assert before != after


class TestSvm:
    def blob_data(self, rng, n=40):
        centers = np.array([[3.0, 0.0], [-3.0, 0.5]])
        y = rng.integers(0, 2, size=n)
        x = centers[y] + 0.3 * rng.normal(size=(n, 2))
        return x, y

    def test_separable_blobs_fit_perfectly(self):
        x, y = self.blob_data(np.random.default_rng(18))
        model = fit_one(x, y)
        np.testing.assert_array_equal(svm_predict(model, x), y)

    def test_identical_features_fall_back_to_majority(self):
        x = np.ones((10, 3))
        y = np.array([0, 1, 1, 1, 2, 1, 0, 1, 2, 1])
        model = fit_one(x, y)
        assert model.majority == 1
        np.testing.assert_array_equal(svm_predict(model, x[:4]), np.ones(4))

    def test_loss_curve_non_increasing(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(60, 5))
        y = rng.integers(0, 3, size=60)
        model = fit_one(x, y, epochs=50)
        assert len(model.epoch_losses) == 50
        assert np.all(np.diff(model.epoch_losses) <= 1e-9)

    def test_deterministic_for_a_seed(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, size=30)
        a = fit_one(x, y, epochs=20, seed=5)
        b = fit_one(x, y, epochs=20, seed=5)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.bias, b.bias)

    def test_constant_dimension_keeps_unit_scale(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(20, 3))
        x[:, 1] = 7.0
        model = fit_one(x, rng.integers(0, 2, size=20), epochs=5)
        assert model.scale[1] == 1.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit_one(np.ones(5), np.ones(5))
        with pytest.raises(ValueError):
            fit_one(np.ones((4, 2)), np.ones(3))


def assert_same_svm(got, want):
    np.testing.assert_array_equal(got.weights, want.weights)
    np.testing.assert_array_equal(got.bias, want.bias)
    np.testing.assert_array_equal(got.epoch_losses, want.epoch_losses)
    np.testing.assert_array_equal(got.mean, want.mean)
    np.testing.assert_array_equal(got.scale, want.scale)
    np.testing.assert_array_equal(got.classes, want.classes)
    assert got.majority == want.majority


@st.composite
def svm_batches(draw):
    """A few small sets sharing (M, D) and class count, on a coarse grid
    (ties, duplicate rows and all-identical sets are common)."""
    m = draw(st.integers(min_value=2, max_value=8))
    dim = draw(st.integers(min_value=1, max_value=3))
    n_classes = draw(st.integers(min_value=2, max_value=min(3, m)))
    grid = st.integers(min_value=-2, max_value=2)
    xs, ys = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        rows = draw(st.lists(st.lists(grid, min_size=dim, max_size=dim), min_size=m, max_size=m))
        y = list(range(n_classes)) + draw(
            st.lists(st.integers(0, n_classes - 1), min_size=m - n_classes, max_size=m - n_classes)
        )
        xs.append(np.array(rows, float))
        ys.append(np.array(draw(st.permutations(y))))
    seeds = draw(st.lists(st.integers(0, 2**31 - 1), min_size=len(xs), max_size=len(xs)))
    # At 1e-4 such small runs keep the all-zero start as their best iterate.
    lam = draw(st.sampled_from([1e-2, 0.1, 1.0, 10.0]))
    return xs, ys, seeds, lam, draw(st.integers(min_value=0, max_value=6))


class TestSvmLockstep:
    """``fit_svm_many`` against the sequential one-set loop, bit for bit."""

    def test_single_set(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(40, 4))
        y = rng.integers(0, 3, size=40)
        want = fit_svm_oracle(x, y, epochs=30, seed=9)
        assert np.all(want.weights != 0.0)
        assert_same_svm(fit_one(x, y, epochs=30, seed=9), want)

    def test_protocol_sized_trials(self):
        # 20 stratified 70 % splits of 20 samples a class: 84 rows of 3
        # features (the empirical triple's shape), 200 epochs, as in
        # evaluate's svm branch.
        rng = np.random.default_rng(31)
        labels = np.repeat(np.arange(6), 20)
        x = rng.normal(size=(120, 3)) * [0.3, 0.1, 40.0] + labels[:, None] * [0.2, 0.05, 15.0]
        protocol = EvalProtocol(seed=31)
        trains = [split(labels, protocol, t)[0] for t in range(protocol.trials)]
        seeds = [_trial_seed(protocol, STREAM_SVM, t) for t in range(protocol.trials)]
        got = fit_svm_many([x[tr] for tr in trains], [labels[tr] for tr in trains], seeds)
        assert len(got) == 20
        for tr, seed, model in zip(trains, seeds, got):
            assert len(tr) == 84
            assert_same_svm(model, fit_svm_oracle(x[tr], labels[tr], seed=seed))

    def test_degenerate_set_among_normal_ones(self):
        rng = np.random.default_rng(32)
        y = np.array([0, 1, 2, 1, 0, 1, 2, 1, 2, 0])
        normal = [rng.normal(size=(10, 2)) for _ in range(2)]
        flat = np.full((10, 2), 3.5)
        xs = [normal[0], flat, normal[1]]
        got = fit_svm_many(xs, [y, y, y], [4, 5, 6])
        for x, seed, model in zip(xs, [4, 5, 6], got):
            assert_same_svm(model, fit_svm_oracle(x, y, seed=seed))
        assert got[1].majority == 1
        assert got[0].majority is None and got[2].majority is None
        assert np.all(got[0].weights != 0.0) and np.all(got[2].weights != 0.0)
        # A set's model does not depend on the sets trained beside it.
        assert_same_svm(got[2], fit_one(normal[1], y, seed=6))

    def test_epochs_without_a_violation(self):
        # Well separated classes: after the first steps every margin
        # holds for whole epochs, so those epochs only shrink the weights.
        x = np.array([[-5.0], [-4.0], [4.0], [5.0]])
        y = np.array([0, 0, 1, 1])
        quiet = []
        want = fit_svm_oracle(x, y, lam=1e-2, epochs=50, seed=1, quiet_epochs=quiet)
        assert len(quiet) > 10
        assert np.all(want.weights != 0.0)
        assert_same_svm(fit_one(x, y, lam=1e-2, epochs=50, seed=1), want)
        got = fit_svm_many([x, x[::-1].copy()], [y, y[::-1].copy()], [1, 2], lam=1e-2, epochs=50)
        assert_same_svm(got[0], want)
        assert_same_svm(got[1], fit_svm_oracle(x[::-1], y[::-1], lam=1e-2, epochs=50, seed=2))

    def test_objective_tie_keeps_the_earlier_iterate(self):
        # With this set the objective returns to the best value seen with
        # different weights; only a strict improvement replaces the best.
        x = np.array([[1.0], [0.0]])
        y = np.array([0, 1])
        assert_same_svm(
            fit_one(x, y, lam=1.0, epochs=10, seed=23),
            fit_svm_oracle(x, y, lam=1.0, epochs=10, seed=23),
        )

    def test_margin_of_exactly_one_is_not_a_violation(self):
        # A step of this run meets a margin of exactly 1.0, which must
        # leave that machine's weights alone.
        x = np.array([[0.0], [2.0], [1.0], [-1.0]])
        y = np.array([0, 1, 2, 2])
        assert_same_svm(
            fit_one(x, y, lam=0.1, epochs=6, seed=34),
            fit_svm_oracle(x, y, lam=0.1, epochs=6, seed=34),
        )

    @pytest.mark.prop
    @settings(max_examples=80, deadline=None)
    @given(svm_batches())
    def test_random_small_batches(self, batch):
        xs, ys, seeds, lam, epochs = batch
        got = fit_svm_many(xs, ys, seeds, lam=lam, epochs=epochs)
        for x, y, seed, model in zip(xs, ys, seeds, got):
            assert_same_svm(model, fit_svm_oracle(x, y, lam=lam, epochs=epochs, seed=seed))

    def test_mismatched_sets_rejected(self):
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError):
            fit_svm_many([np.eye(4)], [y], [0, 1])
        with pytest.raises(ValueError):
            fit_svm_many([np.eye(4), np.eye(4)[:3]], [y, y[:3]], [0, 1])
        with pytest.raises(ValueError):
            fit_svm_many([np.eye(4), np.eye(4)], [y, np.array([0, 1, 2, 1])], [0, 1])
        assert fit_svm_many([], [], []) == []


@pytest.fixture(scope="module")
def envelope_set():
    records = []
    for label in GestureLabel:
        for rep in range(6):
            cfg = SimConfig(
                seed=4000 + 13 * int(label) + rep,
                snr_db=10.0,
                speed="slow" if rep % 3 == 2 else "normal",
                angle_deg=[-20.0, -10.0, 0.0, 10.0, 20.0][rep % 5],
            )
            records.append(simulate_record(label, cfg))
    pipe = PipelineConfig(features="envelope", classifier="nn-l1")
    table = extract_features(records, pipe, kinds=("envelope",), jobs=2)["envelope"]
    return table.vectors, table.labels


class TestOnGestureEnvelopes:
    def split(self, labels, rng):
        train, test = [], []
        for c in np.unique(labels):
            idx = rng.permutation(np.flatnonzero(labels == c))
            train.extend(idx[:4])
            test.extend(idx[4:])
        return np.array(sorted(train)), np.array(sorted(test))

    def test_linear_svm_trails_nearest_neighbor(self, envelope_set):
        x, y = envelope_set
        rng = np.random.default_rng(22)
        nn_correct = svm_correct = total = 0
        for _ in range(5):
            tr, te = self.split(y, rng)
            nn_hat = nn_labels(x[tr], y[tr], x[te], "l1")
            svm_hat = svm_predict(fit_one(x[tr], y[tr]), x[te])
            nn_correct += int((nn_hat == y[te]).sum())
            svm_correct += int((svm_hat == y[te]).sum())
            total += len(te)
        assert nn_correct > svm_correct
        assert nn_correct / total >= 0.8
