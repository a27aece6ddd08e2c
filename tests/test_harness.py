"""Evaluation harness: splits, feature tables, pooling, canonical reports."""

import json

import numpy as np
import pytest

from mdgest import envelope, features, segmentation, subspace, tfr
from mdgest.harness import (
    FEATURE_KINDS,
    ConfusionMatrix,
    EvalProtocol,
    FeatureTable,
    PipelineConfig,
    SmallClassError,
    _make_predictor,
    _trial_seed,
    config_hash,
    evaluate,
    extract_features,
    report,
    split,
)
from mdgest.classify import pairwise_distances, svm_predict
from mdgest.simulate import STREAM_KMEANS, STREAM_SPLIT, STREAM_SVM, GestureLabel, IQRecord
from conftest import make_records, one_shot_spectrogram
from test_classify import emd_lp_oracle, fit_svm_oracle, mhd_oracle
from test_subspace import image_like, svd_oracle


def balanced_labels(per_class=10):
    return np.repeat(np.arange(6), per_class)


class TestSplit:
    def test_deterministic_per_trial(self):
        labels = balanced_labels()
        proto = EvalProtocol(seed=3)
        a = split(labels, proto, 4)
        b = split(labels, proto, 4)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = split(labels, proto, 5)
        assert not np.array_equal(a[0], c[0])

    def test_stratified_floor_counts(self):
        labels = balanced_labels(10)
        tr, te = split(labels, EvalProtocol(train_fraction=0.70), 0)
        assert len(tr) == 42 and len(te) == 18
        for c in range(6):
            assert (labels[tr] == c).sum() == 7
            assert (labels[te] == c).sum() == 3

    def test_disjoint_sorted_and_complete(self):
        labels = balanced_labels(7)
        tr, te = split(labels, EvalProtocol(), 2)
        assert np.all(np.diff(tr) > 0) and np.all(np.diff(te) > 0)
        assert set(tr).isdisjoint(te)
        assert sorted(set(tr) | set(te)) == list(range(len(labels)))

    def test_tiny_class_rejected(self):
        # A data fault, told apart from a bad protocol (mdg eval exits 3).
        with pytest.raises(SmallClassError, match="class b has fewer than 2"):
            split(np.array([0, 0, 1]), EvalProtocol(), 0)

    def test_fraction_leaving_empty_train_rejected(self):
        with pytest.raises(ValueError, match="without train"):
            split(np.array([0, 0, 1, 1]), EvalProtocol(train_fraction=0.3), 0)

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            EvalProtocol(train_fraction=0.0)
        with pytest.raises(ValueError):
            EvalProtocol(train_fraction=1.0)
        with pytest.raises(ValueError):
            EvalProtocol(trials=0)


class TestConfigHash:
    def test_stable_and_sensitive(self):
        pipe = PipelineConfig()
        proto = EvalProtocol()
        h = config_hash(pipe, proto)
        assert h == config_hash(PipelineConfig(), EvalProtocol())
        assert len(h) == 64 and int(h, 16) >= 0
        assert h != config_hash(PipelineConfig(classifier="nn-l2"), proto)
        assert h != config_hash(PipelineConfig(pca_dim=10), proto)
        assert h != config_hash(pipe, EvalProtocol(seed=1))
        assert h != config_hash(pipe, EvalProtocol(trials=5))


class TestPipelineConfig:
    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(features="wavelet")
        with pytest.raises(ValueError):
            PipelineConfig(classifier="forest")

    def test_point_set_metric_incompatible_with_pca(self):
        with pytest.raises(ValueError):
            PipelineConfig(features="pca-spec", classifier="nn-mhd")

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            PipelineConfig(pca_dim=0)


def strongest_interval(curve, time_s, intervals):
    best, best_sum = None, -1.0
    for iv in intervals:
        s = float(curve[(time_s >= iv.start_s) & (time_s < iv.end_s)].sum())
        if s > best_sum:
            best, best_sum = iv, s
    return best


def band_rows(spec, band_hz):
    """The fewest rows of ``spec`` that cover [-band_hz, +band_hz]."""
    f = spec.freq_hz
    keep = (f >= f[f <= -band_hz].max()) & (f <= f[f >= band_hz].min())
    return tfr.Spectrogram(spec.power[keep], spec.time_s, f[keep])


def full_spectrogram_features(record, pipe, kinds):
    """Oracle: every kind from full 4096-row FFT spectrograms, the burst
    curve recomputed wherever it is read.  The envelope reads the rows
    that cover the wider of the image and burst-curve bands."""
    spec = one_shot_spectrogram(record, pipe.stft)
    raw_spec = spec
    if pipe.recenter and set(kinds) - {"trajectory"}:
        curve = segmentation.smooth(segmentation.pbc(spec, pipe.pbc), pipe.pbc.smooth_len)
        intervals = segmentation.detect(curve, spec.time_s, pipe.pbc)
        if intervals:
            iv = strongest_interval(curve, spec.time_s, intervals)
            record = segmentation.window(record, iv, record.duration_s)
            spec = one_shot_spectrogram(record, pipe.stft)
    band = max(pipe.image_band_hz, pipe.pbc.band_hz)
    env = envelope.extract(band_rows(spec, band), pipe.env)
    curve = segmentation.smooth(segmentation.pbc(spec, pipe.pbc), pipe.pbc.smooth_len)
    intervals = segmentation.detect(curve, spec.time_s, pipe.pbc)
    if intervals:
        iv = strongest_interval(curve, spec.time_s, intervals)
    else:
        iv = segmentation.MotionInterval(0.0, record.duration_s)
    cropped = spec.crop_band(pipe.image_band_hz)
    vec = envelope.to_feature(env)
    return {
        "envelope": vec,
        "pca-env": vec,
        "empirical": features.empirical(iv, env).as_vector(),
        "trajectory": features.trajectory(
            raw_spec, pipe.trajectory_points, band_hz=(pipe.pbc.pos_lo_hz, pipe.pbc.pos_hi_hz)
        ),
        "pca-spec": tfr.vectorize(
            tfr.to_gray(cropped, pipe.image_size, pipe.image_dyn_db)
        ).astype(np.float32),
        "pca-envimg": tfr.vectorize(
            envelope.envelope_image(cropped, env, pipe.image_size)
        ).astype(np.uint8),
    }


# Band spectrograms come from the hop-block transform, the oracle's full
# ones from the FFT; they agree to float32 rounding.  Trajectory
# intensities are power values (worst seen 9.2e-7 relative, on
# generate_dataset(20)), ``pca-spec`` pixels lie in [0, 1] (worst seen
# 4.4e-7).
TRAJECTORY_INTENSITY_RTOL = 1e-5
PCA_SPEC_PIXEL_ATOL = 1e-5


class TestBandSpectrogramFeatures:
    """Band-limited spectrograms give every kind what full ones cut to the
    band give: the same values for the kinds built from decisions (burst,
    envelope rows, trajectory picks), and values within float32 rounding
    for trajectory intensities and ``pca-spec`` pixels."""

    def assert_tables_match_oracle(self, records, pipe):
        kinds = FEATURE_KINDS
        tables = extract_features(records, pipe, kinds=kinds)
        oracle = [full_spectrogram_features(r, pipe, kinds) for r in records]
        for k in kinds:
            want = np.stack([o[k].points.ravel() if k == "trajectory" else o[k] for o in oracle])
            got = tables[k].vectors
            assert got.dtype == want.dtype and got.shape == want.shape, k
            if k == "trajectory":
                got, want = got.reshape(len(records), -1, 3), want.reshape(len(records), -1, 3)
                np.testing.assert_array_equal(got[..., :2], want[..., :2], err_msg="(t, f) picks")
                np.testing.assert_allclose(got[..., 2], want[..., 2], rtol=TRAJECTORY_INTENSITY_RTOL, atol=0)
            elif k == "pca-spec":
                np.testing.assert_allclose(got, want, rtol=0, atol=PCA_SPEC_PIXEL_ATOL)
            else:
                np.testing.assert_array_equal(got, want, err_msg=k)

    @pytest.mark.parametrize("recenter", [True, False])
    def test_every_kind_equals_full_spectrogram_oracle(self, twelve_records, recenter):
        self.assert_tables_match_oracle(twelve_records, PipelineConfig(recenter=recenter))

    @pytest.mark.parametrize("image_band_hz", [300.0, 100.0])
    def test_narrow_image_band_still_covers_burst_band(self, twelve_records, image_band_hz):
        pipe = PipelineConfig(image_band_hz=image_band_hz)
        self.assert_tables_match_oracle(twelve_records[::3], pipe)


class TestExtractFeatures:
    def test_unknown_kind_rejected(self, twelve_records):
        with pytest.raises(ValueError):
            extract_features(twelve_records, PipelineConfig(), kinds=("cepstrum",))

    def test_worker_count_does_not_change_results(self, twelve_records):
        pipe = PipelineConfig()
        kinds = ("envelope", "empirical", "pca-spec", "pca-envimg", "trajectory")
        seq = extract_features(twelve_records, pipe, kinds=kinds, jobs=1)
        par = extract_features(twelve_records, pipe, kinds=kinds, jobs=3)
        for k in kinds:
            assert seq[k].vectors.dtype == par[k].vectors.dtype, k
            assert seq[k].vectors.tobytes() == par[k].vectors.tobytes(), k
            np.testing.assert_array_equal(seq[k].labels, par[k].labels)

    def test_envelope_vector_shared_with_pca_variant(self, twelve_records):
        tables = extract_features(
            twelve_records, PipelineConfig(), kinds=("envelope", "pca-env")
        )
        np.testing.assert_array_equal(
            tables["envelope"].vectors, tables["pca-env"].vectors
        )

    def test_trajectory_table_has_point_sets(self, twelve_records):
        table = extract_features(
            twelve_records, PipelineConfig(features="trajectory"), kinds=("trajectory",)
        )["trajectory"]
        n = len(twelve_records)
        assert table.vectors.shape == (n, 30)
        assert len(table.pointsets) == n
        assert len(table.trajectories) == n
        np.testing.assert_array_equal(
            table.pointsets[0], table.trajectories[0].normalized_tf()
        )

    def count_transforms(self, monkeypatch):
        """Every ``tfr._band_power`` call, the transform behind
        ``tfr.stft_power`` and recentring's partial one, as (kind,
        columns): "full" when it runs inside ``tfr.spectrogram``, "direct"
        when it runs alone."""
        calls, inside = [], []
        real_spectrogram, real_power = tfr.spectrogram, tfr._band_power

        def spectrogram(*args, **kwargs):
            inside.append(1)
            try:
                return real_spectrogram(*args, **kwargs)
            finally:
                inside.pop()

        def band_power(*args, **kwargs):
            power, freq = real_power(*args, **kwargs)
            calls.append(("full" if inside else "direct", len(power)))
            return power, freq

        monkeypatch.setattr(tfr, "spectrogram", spectrogram)
        monkeypatch.setattr(tfr, "_band_power", band_power)
        return calls

    @staticmethod
    def cut_start(record, pipe):
        """The first sample of the recentring cut, or None without a burst."""
        spec = tfr.spectrogram(record, pipe.stft, pipe.band_hz)
        burst = segmentation.bursts(spec, pipe.pbc)[1]
        if burst is None:
            return None
        return segmentation.cut_span(record, burst, record.duration_s)[0]

    def expected_transforms(self, record, pipe):
        """One full STFT.  Recentring a burst adds one direct transform of
        the cut frames that touch the record but are not record frames on
        the hop grid, counted frame by frame; a cut at sample 0 has none."""
        n = tfr.spectrogram(record, pipe.stft).n_cols
        start = self.cut_start(record, pipe) if pipe.recenter else None
        if start is None:
            return [("full", n)]
        size, w, hop = len(record.samples), pipe.stft.window_len, pipe.stft.hop
        direct = 0
        for j in range(n):
            lo = start + j * hop
            on_grid_inside = start % hop == 0 and lo >= 0 and lo + w <= size
            if lo + w > 0 and lo < size and not on_grid_inside:
                direct += 1
        return [("full", n)] + ([("direct", direct)] if direct else [])

    def test_trajectory_only_request_skips_recentring(self, twelve_records, monkeypatch):
        records = twelve_records[:3]
        pipe = PipelineConfig(features="trajectory")
        raw = [
            features.trajectory(
                tfr.spectrogram(r, pipe.stft, pipe.band_hz),
                pipe.trajectory_points,
                band_hz=(pipe.pbc.pos_lo_hz, pipe.pbc.pos_hi_hz),
            )
            for r in records
        ]
        calls = self.count_transforms(monkeypatch)
        table = extract_features(records, pipe, kinds=("trajectory",))["trajectory"]
        assert [kind for kind, _ in calls] == ["full"] * len(records)
        for got, want in zip(table.trajectories, raw):
            np.testing.assert_array_equal(got.points, want.points)

    @pytest.mark.parametrize(
        "source, recenter",
        [("gesture", True), ("gesture", False), ("tone", True)],
        ids=["recentred", "no-recenter", "no-burst"],
    )
    def test_spectrograms_per_record(self, twelve_records, monkeypatch, source, recenter):
        """One full band STFT a record.  Recentring a burst adds one direct
        transform: of every frame that touches the record when the cut is
        off the hop grid, and only of the frames across the record's edge
        when it is on the grid; a steady tone has no burst to cut."""
        pipe = PipelineConfig(recenter=recenter)
        if source == "tone":
            t = np.arange(64_000) / 12_800.0
            samples = np.exp(2j * np.pi * 100.0 * t).astype(np.complex64)
            records = [IQRecord(samples, 12_800.0, GestureLabel(0))]
            assert self.cut_start(records[0], pipe) is None
        elif recenter:
            starts = [self.cut_start(r, pipe) for r in twelve_records]
            on = next(i for i, s in enumerate(starts) if s and s % pipe.stft.hop == 0)
            off = next(i for i, s in enumerate(starts) if s % pipe.stft.hop)
            # A cut that starts a window or more outside the record has
            # frames wholly in its padding, which no transform may take.
            far = next(
                i
                for i, s in enumerate(starts)
                if s % pipe.stft.hop and abs(s) > pipe.stft.window_len
            )
            records = [twelve_records[i] for i in (on, off, far)]
        else:
            records = twelve_records[:1]
        kinds = ("envelope", "empirical", "pca-envimg")
        for record in records:
            want = self.expected_transforms(record, pipe)
            assert len(want) == (2 if source == "gesture" and recenter else 1)
            seen = self.count_transforms(monkeypatch)
            extract_features([record], pipe, kinds=kinds)
            assert seen == want
            monkeypatch.undo()

    def test_mixed_request_still_recentres_for_envelope(self, twelve_records, monkeypatch):
        records = twelve_records[:3]
        pipe = PipelineConfig()
        alone = extract_features(records, pipe, kinds=("envelope",))["envelope"]
        traj = extract_features(records, pipe, kinds=("trajectory",))["trajectory"]
        want = [c for r in records for c in self.expected_transforms(r, pipe)]
        assert len(want) > len(records)  # at least one record recentres
        calls = self.count_transforms(monkeypatch)
        both = extract_features(records, pipe, kinds=("trajectory", "envelope"))
        assert calls == want
        np.testing.assert_array_equal(both["envelope"].vectors, alone.vectors)
        np.testing.assert_array_equal(both["trajectory"].vectors, traj.vectors)

    def test_labels_follow_record_order(self, twelve_records):
        table = extract_features(twelve_records, PipelineConfig())["envelope"]
        np.testing.assert_array_equal(
            table.labels, [int(r.label) for r in twelve_records]
        )


class TestConfusionMatrix:
    def test_percentages_and_overall(self):
        counts = np.array([[8, 2], [1, 9]])
        cm = ConfusionMatrix.from_counts(counts, ("a", "b"), [85.0], EvalProtocol(trials=1))
        np.testing.assert_allclose(cm.percent, [[80.0, 20.0], [10.0, 90.0]])
        assert cm.overall_accuracy == pytest.approx(85.0)

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix.from_counts(
                np.array([[0, 0], [1, 1]]), ("a", "b"), [], EvalProtocol()
            )


class TestTrialSeed:
    def test_deterministic_distinct_and_bounded(self):
        proto = EvalProtocol(seed=9)
        s1 = _trial_seed(proto, STREAM_KMEANS, 0)
        assert s1 == _trial_seed(proto, STREAM_KMEANS, 0)
        assert s1 != _trial_seed(proto, STREAM_KMEANS, 1)
        assert s1 != _trial_seed(proto, STREAM_SPLIT, 0)
        assert 0 <= s1 < 2**31


class FakeTable:
    """Label-only stand-in for a feature table."""

    def __init__(self, labels):
        self.labels = np.asarray(labels, int)
        self.kind = "stub"
        self.vectors = None


class TestEvaluateWithStubs:
    labels = balanced_labels(10)

    def test_perfect_predictor_scores_100(self):
        proto = EvalProtocol(trials=5)
        cm = evaluate(
            [],
            PipelineConfig(),
            proto,
            features_table=FakeTable(self.labels),
            predictor=lambda trial, tr, te: self.labels[te],
        )
        assert cm.overall_accuracy == 100.0
        np.testing.assert_allclose(cm.per_trial_accuracy, 100.0)
        assert np.all(cm.counts == np.diag(np.diag(cm.counts)))
        assert cm.counts.sum() == 5 * 18  # trials x pooled test samples

    def test_constant_predictor_concentrates_one_column(self):
        proto = EvalProtocol(trials=3)
        cm = evaluate(
            [],
            PipelineConfig(),
            proto,
            features_table=FakeTable(self.labels),
            predictor=lambda trial, tr, te: np.full(len(te), 2),
        )
        assert cm.counts[:, [0, 1, 3, 4, 5]].sum() == 0
        assert cm.overall_accuracy == pytest.approx(100.0 / 6.0, abs=1e-9)

    def test_prediction_outside_the_classes_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            evaluate(
                [],
                PipelineConfig(),
                EvalProtocol(trials=2),
                features_table=FakeTable(self.labels),
                predictor=lambda trial, tr, te: np.full(len(te), 9),
            )

    def test_predictor_sees_each_trial_split(self):
        proto = EvalProtocol(trials=4)
        seen = []

        def spy(trial, tr, te):
            seen.append((trial, tr.copy(), te.copy()))
            return self.labels[te]

        evaluate([], PipelineConfig(), proto, features_table=FakeTable(self.labels), predictor=spy)
        assert [s[0] for s in seen] == [0, 1, 2, 3]
        for trial, tr, te in seen:
            wtr, wte = split(self.labels, proto, trial)
            np.testing.assert_array_equal(tr, wtr)
            np.testing.assert_array_equal(te, wte)


class TestEndToEndSmall:
    def test_envelope_nn_on_tiny_set(self, twelve_records):
        proto = EvalProtocol(trials=3)
        cm = evaluate(twelve_records, PipelineConfig(), proto)
        assert cm.labels == ("a", "b", "c", "d", "e", "f")
        assert 0.0 <= cm.overall_accuracy <= 100.0
        assert cm.counts.sum() == 3 * 6  # one test sample per class per trial
        assert cm.config_hash == config_hash(PipelineConfig(), proto)


class TestEvaluateTrajectory:
    """Trajectory nn-mhd matches each trial's test sets against the class
    central trajectories in one float32 MHD matrix."""

    proto = EvalProtocol(seed=11)

    def test_matches_float64_oracle_on_every_trial(self):
        records = make_records(5, base=5000)
        pipe = PipelineConfig(features="trajectory", classifier="nn-mhd")
        table = extract_features(records, pipe)["trajectory"]
        predict = _make_predictor(table, pipe, self.proto)
        # As in the benchmark's checks: a float32 kernel may break a tie
        # this close either way.
        tie_tol = 16 * float(np.finfo(np.float32).eps)
        for trial in range(self.proto.trials):
            tr, te = split(table.labels, self.proto, trial)
            seed = _trial_seed(self.proto, STREAM_KMEANS, trial)
            classes = np.unique(table.labels[tr])
            centrals = [
                features.central_trajectory(
                    [table.trajectories[i] for i in tr if table.labels[i] == c],
                    pipe.trajectory_points,
                    seed=seed + int(c),
                ).normalized_tf()
                for c in classes
            ]
            got = predict(trial, tr, te)
            assert len(got) == len(te)
            for i, pred in zip(te, got):
                d = np.array([mhd_oracle(table.pointsets[i], cp) for cp in centrals])
                if pred != classes[d.argmin()]:
                    assert d[classes == pred][0] - d.min() <= tie_tol, (trial, i)


class TestEvaluateSvm:
    # With one training record a class, the default lambda keeps the
    # all-zero start as every trial's best iterate; at 1e-2 the trials'
    # models differ from it and from each other.
    pipe = PipelineConfig(features="empirical", classifier="svm", svm_lambda=1e-2)
    proto = EvalProtocol(seed=5)

    def test_matches_per_trial_oracle_loop(self, twelve_records):
        table = extract_features(twelve_records, self.pipe)["empirical"]
        cm = evaluate(twelve_records, self.pipe, self.proto, features_table=table)
        x, y = table.vectors, table.labels
        counts = np.zeros((6, 6), int)
        per_trial = []
        for trial in range(self.proto.trials):
            tr, te = split(y, self.proto, trial)
            seed = _trial_seed(self.proto, STREAM_SVM, trial)
            model = fit_svm_oracle(
                x[tr], y[tr], lam=self.pipe.svm_lambda, epochs=self.pipe.svm_epochs, seed=seed
            )
            pred = svm_predict(model, x[te])
            for t, p in zip(y[te], pred):
                counts[t, p] += 1
            per_trial.append(100.0 * float((pred == y[te]).mean()))
        np.testing.assert_array_equal(cm.counts, counts)
        np.testing.assert_array_equal(cm.per_trial_accuracy, per_trial)
        assert np.all(counts.sum(axis=0) > 0)

    def test_report_bytes_do_not_depend_on_jobs(self, twelve_records, tmp_path):
        paths = [tmp_path / f"jobs{j}.json" for j in (1, 2)]
        for jobs, path in zip((1, 2), paths):
            cm = evaluate(twelve_records, self.pipe, self.proto, jobs=jobs)
            report(cm, self.pipe, json_path=path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEvaluatePca:
    """The pca-* predictor works from one Gram matrix per table, whether
    the rows have more dims than a trial has train rows or fewer; either
    way every trial's predictions must equal a thin SVD of that trial's
    centred train rows, its projection and a plain 1-NN.  For nn-emd, which sees signs,
    the oracle orients each component so that its largest-magnitude
    train coefficient is positive."""

    proto = EvalProtocol(seed=7)

    def oracle_predictions(self, table, d, trial, classifier):
        tr, te = split(table.labels, self.proto, trial)
        x = np.asarray(table.vectors, float)
        model = svd_oracle(x[tr], d)
        ztr, zte = (x[tr] - model.mean) @ model.basis, (x[te] - model.mean) @ model.basis
        if classifier == "nn-emd":
            top = ztr[np.abs(ztr).argmax(axis=0), np.arange(d)]
            ztr, zte = ztr * np.sign(top), zte * np.sign(top)
            dists = pairwise_distances(zte, ztr, "emd")
            if trial == 0:
                # The kernel against the transport LP, on one test row.
                want = [emd_lp_oracle(zte[0], t) for t in ztr]
                np.testing.assert_allclose(dists[0], want, rtol=0, atol=1e-9)
            nearest = dists.argmin(axis=1)
        else:
            nearest = [int(np.argmin(np.abs(ztr - z).sum(axis=1))) for z in zte]
        return tr, te, table.labels[tr][nearest]

    def check_all_trials(self, table, d, classifier="nn-l1"):
        pipe = PipelineConfig(features=table.kind, classifier=classifier, pca_dim=d)
        predict = _make_predictor(table, pipe, self.proto)
        for trial in range(self.proto.trials):
            tr, te, want = self.oracle_predictions(table, d, trial, classifier)
            np.testing.assert_array_equal(predict(trial, tr, te), want, err_msg=f"trial {trial}")

    def synthetic(self, kind, per_class, dims, seed):
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(6), per_class)
        x = image_like(rng, len(labels), q=dims, rank=min(40, dims))
        x += 0.02 * rng.random((6, dims)).astype(np.float32)[labels]
        return FeatureTable(kind=kind, labels=labels, vectors=x)

    def test_images_match_per_trial_svd(self):
        self.check_all_trials(self.synthetic("pca-spec", 10, 2500, seed=40), d=30)

    def test_more_train_rows_than_dims(self):
        table = self.synthetic("pca-env", 50, 200, seed=41)
        assert 35 * 6 > table.vectors.shape[1]
        self.check_all_trials(table, d=30)

    @pytest.mark.parametrize(
        "kind,per_class,dims", [("pca-spec", 10, 2500), ("pca-env", 50, 200)], ids=["m<q", "m>q"]
    )
    def test_emd_follows_the_train_orientation(self, kind, per_class, dims):
        self.check_all_trials(self.synthetic(kind, per_class, dims, seed=42), 10, "nn-emd")

    @pytest.mark.parametrize("per_class", [10, 50])
    def test_one_gram_per_table(self, per_class, monkeypatch):
        # 6 x 7 train rows are fewer than 200 dims, 6 x 35 are more.
        table = self.synthetic("pca-env", per_class, 200, seed=43)
        calls = []
        for name in ("gram", "gram_pca"):
            real = getattr(subspace, name)
            monkeypatch.setattr(
                subspace, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
            )
        pipe = PipelineConfig(features="pca-env", classifier="nn-l1", pca_dim=5)
        predict = _make_predictor(table, pipe, self.proto)
        for trial in range(3):
            predict(trial, *split(table.labels, self.proto, trial))
        assert calls == ["gram"] + ["gram_pca"] * 3

    def test_real_spectrogram_images(self, twelve_records):
        table = extract_features(twelve_records, PipelineConfig(features="pca-spec"))["pca-spec"]
        self.check_all_trials(table, d=5)


class TestReport:
    def make_cm(self):
        counts = np.array([[9, 1], [2, 8]])
        return ConfusionMatrix.from_counts(
            counts, ("a", "b"), [85.0, 85.0], EvalProtocol(trials=2), hash_="cafe"
        )

    def test_json_canonical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        report(self.make_cm(), PipelineConfig(), json_path=p1)
        report(self.make_cm(), PipelineConfig(), json_path=p2)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        assert b1.endswith(b"\n")
        payload = json.loads(b1)
        assert payload["config_hash"] == "cafe"
        assert payload["pipeline"]["classifier"] == "nn-l1"

    def test_floats_rounded_to_microunits(self):
        cm = self.make_cm()
        cm.per_trial_accuracy = np.array([33.3333333333])
        payload = report(cm)
        assert payload["per_trial_accuracy"] == [33.333333]

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "cm.csv"
        report(self.make_cm(), csv_path=path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",a,b"
        assert lines[1] == "a,90.00,10.00"
        assert lines[2] == "b,20.00,80.00"
        assert lines[3] == "overall,85.00"
