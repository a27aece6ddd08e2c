"""Evaluation harness: splits, feature tables, pooling, canonical reports."""

import json

import numpy as np
import pytest

from mdgest import features, tfr
from mdgest.harness import (
    ConfusionMatrix,
    EvalProtocol,
    PipelineConfig,
    _trial_seed,
    config_hash,
    evaluate,
    extract_features,
    report,
    split,
)
from mdgest.simulate import STREAM_KMEANS, STREAM_SPLIT


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
        with pytest.raises(ValueError, match="fewer than 2"):
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


class TestExtractFeatures:
    def test_unknown_kind_rejected(self, twelve_records):
        with pytest.raises(ValueError):
            extract_features(twelve_records, PipelineConfig(), kinds=("cepstrum",))

    def test_worker_count_does_not_change_results(self, twelve_records):
        pipe = PipelineConfig()
        kinds = ("envelope", "empirical")
        seq = extract_features(twelve_records, pipe, kinds=kinds, jobs=1)
        par = extract_features(twelve_records, pipe, kinds=kinds, jobs=3)
        for k in kinds:
            np.testing.assert_array_equal(seq[k].vectors, par[k].vectors)
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

    def count_spectrograms(self, monkeypatch):
        calls = []
        real = tfr.spectrogram

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tfr, "spectrogram", counted)
        return calls

    def test_trajectory_only_request_skips_recentring(self, twelve_records, monkeypatch):
        records = twelve_records[:3]
        pipe = PipelineConfig(features="trajectory")
        raw = [
            features.trajectory(
                tfr.spectrogram(r, pipe.stft),
                pipe.trajectory_points,
                band_hz=(pipe.pbc.pos_lo_hz, pipe.pbc.pos_hi_hz),
            )
            for r in records
        ]
        calls = self.count_spectrograms(monkeypatch)
        table = extract_features(records, pipe, kinds=("trajectory",))["trajectory"]
        assert len(calls) == len(records)
        for got, want in zip(table.trajectories, raw):
            np.testing.assert_array_equal(got.points, want.points)

    def test_mixed_request_still_recentres_for_envelope(self, twelve_records, monkeypatch):
        records = twelve_records[:3]
        pipe = PipelineConfig()
        alone = extract_features(records, pipe, kinds=("envelope",))["envelope"]
        traj = extract_features(records, pipe, kinds=("trajectory",))["trajectory"]
        calls = self.count_spectrograms(monkeypatch)
        both = extract_features(records, pipe, kinds=("trajectory", "envelope"))
        assert len(calls) == 2 * len(records)
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
