"""Each output check passes on a sound input and fails on a corrupted one.

No corpus is built: the inputs are small arrays made up for each check.

    python3 -m pytest -q perfbench/tests
"""

import numpy as np
import pytest

import checks
from mdgest import subspace
from mdgest.features import Trajectory


def test_row_sums_catch_a_count_moved_to_another_row():
    # 3 classes of 10: 20 trials x (10 - 7) test samples per row.
    counts = np.array([[50, 5, 5], [0, 60, 0], [10, 0, 50]])
    assert checks.row_sums("x", counts, [10, 10, 10], 20, 0.7) == []
    counts[0, 1] -= 1
    counts[1, 1] += 1
    assert checks.row_sums("x", counts, [10, 10, 10], 20, 0.7)


def test_row_sums_follow_unequal_class_sizes():
    counts = np.array([[20 * 3, 0], [0, 20 * 4]])
    assert checks.row_sums("x", counts, [10, 13], 20, 0.7) == []


def _blobs(rng, n_per=8, dim=6, classes=3, spread=0.6):
    centres = rng.normal(size=(classes, dim)) * 2
    x = np.concatenate([c + spread * rng.normal(size=(n_per, dim)) for c in centres])
    return x, np.repeat(np.arange(classes), n_per)


def test_l1_oracle_catches_one_flipped_neighbour():
    rng = np.random.default_rng(1)
    x, y = _blobs(rng)
    idx = np.arange(len(y))
    splits = [(idx[idx % 3 != 0], idx[idx % 3 == 0]), (idx[idx % 3 != 1], idx[idx % 3 == 1])]
    want = checks.nn_l1_counts(x, y, splits)
    assert want.sum() == sum(len(te) for _, te in splits)
    got = want.copy()
    assert checks.equal_counts("x", got, want) == []
    col = int(np.argmax(got[0]))
    got[0, col] -= 1
    got[0, (col + 1) % 3] += 1
    assert checks.equal_counts("x", got, want)


def test_l1_oracle_breaks_ties_towards_the_lowest_train_index():
    x = np.array([[1.0], [-1.0], [0.0]])
    y = np.array([0, 1, 1])
    counts = checks.nn_l1_counts(x, y, [(np.array([0, 1]), np.array([2]))])
    assert counts[1].tolist() == [1, 0]


def test_mhd_trial_catches_a_wrong_accuracy():
    rng = np.random.default_rng(2)
    sets = np.concatenate(
        [rng.normal(loc=c, scale=0.3, size=(6, 12, 2)) for c in (0.0, 3.0)]
    )
    y = np.repeat([0, 1], 6)
    tr, te = np.arange(0, 12, 2), np.arange(1, 12, 2)
    assert checks.mhd_trial(sets, y, tr, te, 100.0) == []
    assert checks.mhd_trial(sets, y, tr, te, 100.0 * 5 / 6)


def test_mhd_trial_lets_a_near_tie_go_either_way():
    a = np.zeros((3, 2))
    sets = np.stack([a, a + 1.0, a - 1.0])  # the test set is equidistant from both
    y = np.array([0, 1, 0])
    for reported in (0.0, 100.0):
        assert checks.mhd_trial(sets, y, np.array([1, 2]), np.array([0]), reported) == []


def test_mhd64_matches_a_pair_loop():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(7, 2)), rng.normal(size=(5, 2))
    d = np.array([[np.hypot(*(p - q)) for q in b] for p in a])
    want = max(d.min(axis=1).mean(), d.min(axis=0).mean())
    assert checks.mhd64(a, b) == pytest.approx(want, rel=1e-12)


def test_envelope_points_follow_the_time_grid():
    v = np.array([[100.0, 250.0, -50.0, 0.0]])
    pts = checks.envelope_points(v)
    assert pts.shape == (1, 4, 2)
    assert pts[0, :, 0].tolist() == [0.0, 0.5, 0.0, 0.5]
    assert pts[0, :, 1].tolist() == [0.2, 0.5, -0.1, 0.0]


def _trajectory(points, padded=False):
    return Trajectory(np.array(points, float), padded=padded)


def test_trajectory_check_catches_two_points_in_one_window():
    df, dt = checks.FREQ_STEP_HZ, checks.TIME_STEP_S
    good = _trajectory([(1.0, 100.0, 3.0), (1.0 + 4 * dt, 100.0, 2.0), (1.0, 100.0 + 6 * df, 1.0)])
    assert checks.trajectories([good], n_points=3) == []
    bad = _trajectory([(1.0, 100.0, 3.0), (1.0 + 3 * dt, 100.0 + 5 * df, 2.0), (2.0, -300.0, 1.0)])
    assert checks.trajectories([bad], n_points=3)


def test_trajectory_check_catches_band_and_order():
    out_of_band = _trajectory([(1.0, 100.0, 3.0), (2.0, 510.0, 2.0)])
    unsorted = _trajectory([(1.0, 100.0, 1.0), (2.0, 200.0, 2.0)])
    padded = _trajectory([(1.0, 100.0, 1.0), (0.0, 0.0, 0.0)], padded=True)
    assert checks.trajectories([out_of_band], n_points=2)
    assert checks.trajectories([unsorted], n_points=2)
    assert checks.trajectories([padded], n_points=2) == []


def test_similarity_check():
    good = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.7], [0.2, 0.7, 1.0]])
    assert checks.similarity(good, 1.0) == []
    asym = good.copy()
    asym[0, 1] = 0.41
    assert checks.similarity(asym, 1.0)
    saturated = good.copy()
    saturated[1, 2] = saturated[2, 1] = 1.0
    assert checks.similarity(saturated, 1.0)
    assert checks.similarity(good, 1.0 - 1e-6)


def test_pca_check_catches_a_basis_missing_a_component():
    # The classes differ only along the weakest of three directions.
    rng = np.random.default_rng(4)
    n = 30
    y = np.repeat([0, 1], n)
    x = np.column_stack(
        [rng.normal(scale=10.0, size=2 * n), rng.normal(scale=5.0, size=2 * n), np.where(y, 1.0, -1.0)]
    )
    x[:, 2] += rng.normal(scale=0.05, size=2 * n)
    tr, te = np.flatnonzero(np.arange(2 * n) % 3), np.flatnonzero(np.arange(2 * n) % 3 == 0)

    def l1_nn_accuracy(basis, mean):
        ztr, zte = (x[tr] - mean) @ basis, (x[te] - mean) @ basis
        pred = [y[tr][np.argmin(np.abs(ztr - z).sum(axis=1))] for z in zte]
        return 100.0 * np.mean(np.array(pred) == y[te])

    model = subspace.fit_pca(x[tr], 3)
    full = l1_nn_accuracy(model.basis, model.mean)
    assert checks.pca_trial(x, y, tr, te, 3, full) == []
    missing = l1_nn_accuracy(model.basis[:, :2], model.mean)
    assert missing < full
    assert checks.pca_trial(x, y, tr, te, 3, missing)


def test_rows_equal_catches_one_differing_row():
    a = np.arange(12, dtype=np.float32).reshape(4, 3)
    assert checks.rows_equal("x", a, a.copy()) == []
    b = a.copy()
    b[2, 1] = np.nextafter(b[2, 1], np.float32(100))
    assert checks.rows_equal("x", a, b) == ["x: 1 rows differ between jobs=1 and jobs>1"]
    c = a.copy()
    c[0, 0] = -0.0  # equal as a number, not bit for bit
    assert checks.rows_equal("x", a, c)


def test_finite_and_envelope_signs():
    v = np.array([[10.0, 0.0, -5.0, 0.0]])
    assert checks.finite("x", v) == []
    assert checks.envelope_signs(v) == []
    assert checks.finite("x", np.array([[np.nan, 0.0]]))
    assert checks.envelope_signs(np.array([[10.0, 0.0, 5.0, 0.0]]))
    assert checks.envelope_signs(np.array([[10.0, 501.0, -5.0, 0.0]]))


def test_accuracy_floors():
    assert checks.above_chance("x", 50.0, 6, 30.0) == []
    assert checks.above_chance("x", 46.0, 6, 30.0)
    assert checks.at_least("x", 90.0, 90.0) == []
    assert checks.at_least("x", 89.99, 90.0)
