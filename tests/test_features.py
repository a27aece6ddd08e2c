"""Empirical-triple and trajectory features against literal oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from mdgest.envelope import EnvelopePair
from mdgest.features import (
    KMEANS_TOL,
    EmpiricalFeatures,
    Trajectory,
    _lloyd,
    central_trajectory,
    empirical,
    trajectory,
)
from mdgest.segmentation import MotionInterval
from mdgest.tfr import Spectrogram


def toy_spec(power, time_s=None, freq_hz=None):
    power = np.asarray(power, float)
    n_r, n_c = power.shape
    if time_s is None:
        time_s = np.arange(n_c) * 0.01
    if freq_hz is None:
        freq_hz = np.linspace(-640.0, 640.0, n_r)
    return Spectrogram(power=power, time_s=np.asarray(time_s, float), freq_hz=np.asarray(freq_hz, float))


def greedy_oracle(power, time_s, freq_hz, n_points, band_hz, suppress):
    """Literal re-run of the greedy rule with nested loops."""
    work = np.array(power, float, copy=True)
    if band_hz is not None:
        for i, f in enumerate(freq_hz):
            if not band_hz[0] <= abs(f) <= band_hz[1]:
                work[i, :] = 0.0
    df, dt = suppress
    n_r, n_c = work.shape
    rows = []
    for _ in range(n_points):
        best_v, best_rc = -np.inf, None
        for r in range(n_r):
            for c in range(n_c):
                if work[r, c] > best_v:
                    best_v, best_rc = work[r, c], (r, c)
        if best_v <= 0.0:
            break
        r, c = best_rc
        rows.append((time_s[c], freq_hz[r], best_v))
        for rr in range(max(r - df, 0), min(r + df + 1, n_r)):
            for cc in range(max(c - dt, 0), min(c + dt + 1, n_c)):
                work[rr, cc] = 0.0
    padded = len(rows) < n_points
    while len(rows) < n_points:
        rows.append((0.0, 0.0, 0.0))
    pts = np.array(rows)
    return pts[np.argsort(-pts[:, 2], kind="stable")], padded


def kmeans_once_oracle(x, k, rng, stats):
    """One seeded K-means restart, literally: cdist, argmin, member means."""
    uniq = np.unique(x, axis=0)
    if len(uniq) >= k:
        centers = uniq[rng.choice(len(uniq), size=k, replace=False)]
    else:
        centers = x[rng.choice(len(x), size=k, replace=True)].astype(float)
    return lloyd_oracle(x, centers, stats)


def lloyd_oracle(x, centers, stats):
    """Lloyd's iterations of one restart from the given centres."""
    k = len(centers)
    for _ in range(300):
        d = cdist(x, centers)
        assign = d.argmin(axis=1)
        new = centers.copy()
        for j in range(k):
            members = x[assign == j]
            if len(members):
                new[j] = members.mean(axis=0)
            else:
                stats["revived"] += 1
                new[j] = x[d.min(axis=1).argmax()]
        shift = np.abs(new - centers).max()
        centers = new
        if shift <= 1e-6:
            break
    d = cdist(x, centers)
    assign = d.argmin(axis=1)
    inertia = float((d[np.arange(len(x)), assign] ** 2).sum())
    return centers, assign, inertia


def central_oracle(trajectories, n_points, seed):
    """Central trajectory from sequential restarts, plus what the run did."""
    pooled = np.vstack([t.normalized_tf() for t in trajectories])
    weights = np.concatenate([t.points[:, 2] for t in trajectories])
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    stats = {"revived": 0, "restarts_run": 0}
    best = None
    for _ in range(50):
        stats["restarts_run"] += 1
        centers, assign, inertia = kmeans_once_oracle(pooled, n_points, rng, stats)
        if best is None or inertia < best[2] - 1e-15:
            best = (centers, assign, inertia)
        if best[2] == 0.0:
            break
    centers, assign, _ = best
    rows = []
    for j in range(n_points):
        members = assign == j
        amp = float(weights[members].mean()) if members.any() else 0.0
        rows.append((centers[j, 0] * 5.0, centers[j, 1] * 500.0, amp))
    rows = np.array(rows)
    return rows[np.argsort(-rows[:, 2], kind="stable")], stats


def grid_trajectories(rng, n_traj, n_pts, t_step, f_step, t_max, f_max):
    """Trajectories whose points lie on a (time, frequency) grid, so the
    pooled set has duplicates and equidistant points."""
    out = []
    for _ in range(n_traj):
        t = rng.integers(0, t_max + 1, n_pts) * t_step
        f = rng.integers(-f_max, f_max + 1, n_pts) * f_step
        out.append(Trajectory(np.column_stack([t, f, rng.uniform(0.1, 3.0, n_pts)])))
    return out


class TestEmpirical:
    def grid_env(self):
        t = np.linspace(0.0, 1.0, 11)
        upper = np.zeros(11)
        lower = np.zeros(11)
        upper[5] = 100.0  # inside the interval below
        upper[10] = 300.0  # outside: must not count
        lower[4] = -50.0
        lower[0] = -400.0  # outside
        return EnvelopePair(upper, lower, t, bin_hz=5.0)

    def test_hand_computed_triple(self):
        feats = empirical(MotionInterval(0.2, 0.8), self.grid_env())
        assert feats.event_length_s == pytest.approx(0.6)
        assert feats.extreme_ratio == pytest.approx(100.0 / 50.0)
        assert feats.bandwidth_hz == pytest.approx(150.0)

    def test_zero_negative_extreme_uses_one_bin(self):
        t = np.linspace(0.0, 1.0, 5)
        env = EnvelopePair(np.full(5, 80.0), np.zeros(5), t, bin_hz=5.0)
        feats = empirical(MotionInterval(0.0, 1.0), env)
        assert feats.extreme_ratio == pytest.approx(80.0 / 5.0)
        assert feats.bandwidth_hz == pytest.approx(80.0)

    def test_interval_missing_the_grid_falls_back_to_all(self):
        feats = empirical(MotionInterval(3.0, 4.0), self.grid_env())
        assert feats.extreme_ratio == pytest.approx(300.0 / 400.0)
        assert feats.bandwidth_hz == pytest.approx(700.0)

    def test_vector_order(self):
        v = EmpiricalFeatures(1.5, 2.0, 330.0).as_vector()
        np.testing.assert_array_equal(v, [1.5, 2.0, 330.0])


class TestTrajectoryGreedy:
    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(2024)
        for trial in range(20):
            n_r = int(rng.integers(20, 60))
            n_c = int(rng.integers(15, 40))
            spec = toy_spec(rng.random((n_r, n_c)))
            band = None if trial % 3 == 0 else (20.0, 500.0)
            supp = (2, 1) if trial % 4 == 0 else (5, 3)
            got = trajectory(spec, n_points=10, band_hz=band, suppress=supp)
            want, want_pad = greedy_oracle(
                spec.power, spec.time_s, spec.freq_hz, 10, band, supp
            )
            np.testing.assert_array_equal(got.points, want)
            assert got.padded == want_pad

    def test_matches_oracle_with_peaks_at_band_edges(self):
        # The brightest cells sit next to the +-20 Hz and +-500 Hz edges, so
        # suppression blocks reach past the span of in-band rows.
        rng = np.random.default_rng(2025)
        freq = np.linspace(-640.0, 640.0, 129)
        power = rng.random((129, 30))
        for k, f_edge in enumerate((-500.0, -20.0, 20.0, 500.0)):
            for side in (-1, 0, 1):
                r = int(np.argmin(np.abs(freq - f_edge))) + side
                power[r, 2 + 7 * k + 2 * (side + 1)] = 10.0 + 3 * k + side
        spec = toy_spec(power, freq_hz=freq)
        for supp in ((5, 3), (2, 1)):
            got = trajectory(spec, n_points=10, suppress=supp)
            want, want_pad = greedy_oracle(
                spec.power, spec.time_s, spec.freq_hz, 10, (20.0, 500.0), supp
            )
            np.testing.assert_array_equal(got.points, want)
            assert got.padded == want_pad

    def test_band_mask_excludes_out_of_band_peaks(self):
        power = np.zeros((129, 10))
        freq = np.linspace(-640.0, 640.0, 129)
        r_out = np.argmin(np.abs(freq - 600.0))
        r_in = np.argmin(np.abs(freq - 300.0))
        power[r_out, 4] = 5.0
        power[r_in, 6] = 1.0
        spec = toy_spec(power, freq_hz=freq)
        banded = trajectory(spec, n_points=1)
        assert banded.points[0, 1] == pytest.approx(freq[r_in])
        free = trajectory(spec, n_points=1, band_hz=None)
        assert free.points[0, 1] == pytest.approx(freq[r_out])

    def test_suppression_neighborhood_edges(self):
        freq = np.linspace(-640.0, 640.0, 129)
        r0 = np.argmin(np.abs(freq - 200.0))
        inside = np.zeros((129, 30))
        inside[r0, 10] = 2.0
        inside[r0 + 5, 13] = 1.0  # at the corner of the zeroed block
        got = trajectory(toy_spec(inside, freq_hz=freq), n_points=2)
        assert got.padded
        assert (got.points[1] == 0.0).all()

        outside = np.zeros((129, 30))
        outside[r0, 10] = 2.0
        outside[r0 + 6, 13] = 1.0  # one row beyond the block survives
        got = trajectory(toy_spec(outside, freq_hz=freq), n_points=2)
        assert not got.padded
        assert got.points[1, 2] == pytest.approx(1.0)

    def test_padding_and_intensity_order(self):
        power = np.zeros((129, 30))
        freq = np.linspace(-640.0, 640.0, 129)
        power[np.argmin(np.abs(freq - 100.0)), 2] = 1.0
        power[np.argmin(np.abs(freq - 400.0)), 20] = 3.0
        got = trajectory(toy_spec(power, freq_hz=freq), n_points=5)
        assert got.padded
        np.testing.assert_array_equal(got.points[2:], np.zeros((3, 3)))
        assert got.points[0, 2] == 3.0 and got.points[1, 2] == 1.0

    def test_rejects_zero_points(self):
        with pytest.raises(ValueError):
            trajectory(toy_spec(np.ones((10, 10))), n_points=0)


class TestTrajectoryType:
    def test_normalized_units(self):
        tr = Trajectory(np.array([[2.5, 250.0, 1.0], [5.0, -500.0, 0.5]]))
        np.testing.assert_allclose(tr.normalized_tf(), [[0.5, 0.5], [1.0, -1.0]])
        # original rows untouched
        assert tr.points[0, 0] == 2.5

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.ones((3, 2)))
        with pytest.raises(ValueError):
            Trajectory(np.ones(6))


class TestCentralTrajectory:
    def blob_trajectories(self, rng):
        """Nine-point trajectories drawn from three tight, well-separated
        blobs with distinct intensities."""
        centers = [(1.0, 100.0, 3.0), (2.0, -200.0, 2.0), (4.0, 300.0, 1.0)]
        out = []
        for _ in range(12):
            rows = []
            for t0, f0, a0 in centers:
                for _ in range(3):
                    rows.append(
                        (
                            t0 + rng.uniform(-0.01, 0.01),
                            f0 + rng.uniform(-1.0, 1.0),
                            a0 + rng.uniform(-0.05, 0.05),
                        )
                    )
            out.append(Trajectory(np.array(rows)))
        return out, centers

    def test_recovers_blob_centers(self):
        trajs, centers = self.blob_trajectories(np.random.default_rng(8))
        central = central_trajectory(trajs, n_points=3, seed=1)
        for row, (t0, f0, a0) in zip(central.points, centers):
            assert row[0] == pytest.approx(t0, abs=0.02)
            assert row[1] == pytest.approx(f0, abs=2.0)
            assert row[2] == pytest.approx(a0, abs=0.1)

    def test_deterministic_for_a_seed(self):
        trajs, _ = self.blob_trajectories(np.random.default_rng(3))
        a = central_trajectory(trajs, n_points=3, seed=7)
        b = central_trajectory(trajs, n_points=3, seed=7)
        np.testing.assert_array_equal(a.points, b.points)

    def test_degenerate_duplicate_points(self):
        pts = np.tile([[1.0, 50.0, 2.0]], (12, 1))
        central = central_trajectory([Trajectory(pts)], n_points=10, seed=0)
        occupied = central.points[central.points[:, 2] > 0]
        np.testing.assert_allclose(occupied[:, 0], 1.0)
        np.testing.assert_allclose(occupied[:, 1], 50.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            central_trajectory([])
        small = Trajectory(np.ones((3, 3)))
        with pytest.raises(ValueError):
            central_trajectory([small], n_points=10)


class TestCentralTrajectoryOracle:
    """The batched restarts against the sequential restart loop, bit for bit."""

    def assert_matches(self, trajs, n_points, seed):
        want, stats = central_oracle(trajs, n_points, seed)
        got = central_trajectory(trajs, n_points=n_points, seed=seed)
        np.testing.assert_array_equal(got.points, want)
        return stats

    def test_workload_size_on_the_spectrogram_grid(self):
        # 14 trajectories of 10 points: a class's train share at 20 records
        # a class; 5 ms frames and 3.125 Hz bins as the default STFT makes.
        rng = np.random.default_rng(11)
        for seed in range(6):
            trajs = grid_trajectories(rng, 14, 10, 0.005, 3.125, 1000, 160)
            self.assert_matches(trajs, 10, seed)

    def test_clusters_of_many_members(self):
        trajs, _ = TestCentralTrajectory().blob_trajectories(np.random.default_rng(4))
        self.assert_matches(trajs, 3, 5)
        rng = np.random.default_rng(12)
        trajs = grid_trajectories(rng, 30, 10, 0.005, 3.125, 1000, 160)
        self.assert_matches(trajs, 4, 2)

    def test_fewer_distinct_points_than_clusters(self):
        pts = np.array([[1.0, 50.0, 2.0], [2.0, -100.0, 1.0], [3.0, 200.0, 0.5]])
        trajs = [Trajectory(pts[[0, 1, 2, 0]]), Trajectory(pts[[1, 1, 2, 0]])]
        assert len(np.unique(np.vstack([t.tf for t in trajs]), axis=0)) < 5
        for seed in range(8):
            self.assert_matches(trajs, 5, seed)

    def test_empty_cluster_is_revived(self):
        # Repeated points drawn with replacement give duplicate centres; all
        # points go to the first of them and the rest start empty.
        rng = np.random.default_rng(13)
        trajs = grid_trajectories(rng, 4, 3, 1.0, 100.0, 2, 2)
        n_points = len(np.unique(np.vstack([t.tf for t in trajs]), axis=0)) + 1
        stats = self.assert_matches(trajs, n_points, 3)
        assert stats["revived"] > 0

    def test_zero_inertia_stops_early(self):
        # normalized coordinates (0.5, 0.5) and (1, -1): member means are exact
        pts = np.tile([[2.5, 250.0, 2.0], [5.0, -500.0, 1.0]], (6, 1))
        stats = self.assert_matches([Trajectory(pts)], 2, 0)
        assert stats["restarts_run"] < 50
        stats = self.assert_matches([Trajectory(np.tile([[1.0, 50.0, 2.0]], (12, 1)))], 10, 0)
        assert stats["restarts_run"] == 1

    def test_restart_stops_at_a_shift_equal_to_the_tolerance(self):
        # From the starts 0 and 1, the first iteration moves the left centre
        # to the mean of 0 and 2 * tol, a shift of exactly tol, which ends
        # the restart. One more iteration would move the point at
        # 0.5 + tol / 4, now nearer the left centre, across.
        t = np.array([0.0, 2 * KMEANS_TOL, 0.5 + KMEANS_TOL / 4, 1.0, 1.5 - KMEANS_TOL / 4])
        x = np.column_stack([t, np.zeros_like(t)])
        stats = {"revived": 0}
        want = lloyd_oracle(x, x[[0, 3]], stats)
        centers, assign, inertia = _lloyd(x, x[None, [0, 3]])
        assert centers[0, 0, 0] == KMEANS_TOL
        np.testing.assert_array_equal(centers[0], want[0])
        np.testing.assert_array_equal(assign[0], want[1])
        assert inertia[0] == want[2]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(1, 8),
        st.integers(0, 2**16),
    )
    def test_matches_oracle_on_small_integer_grids(self, n_traj, n_pts, span, n_points, seed):
        rng = np.random.default_rng(seed)
        trajs = grid_trajectories(rng, n_traj, n_pts, 1.0, 100.0, span, span)
        n_points = min(n_points, n_traj * n_pts)
        self.assert_matches(trajs, n_points, seed)
