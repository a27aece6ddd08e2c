"""Command-line flows, in process: exit codes, outputs, config overlay."""

import json
import shutil

import numpy as np
import pytest

from mdgest import harness
from mdgest.classify import SvmModel, fit_svm, svm_predict
from mdgest.cli import main
from mdgest.simulate import Dataset


def first_iq(tiny_dataset_dir):
    files = sorted(tiny_dataset_dir.glob("*.iq"))
    assert files
    return files[0]


class TestSimulate:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "ds"
        rc = main(["simulate", "--out", str(out), "--per-class", "2"])
        assert rc == 0
        assert (out / "meta.json").exists()
        assert len(list(out.glob("*.iq"))) == 12
        assert "wrote 12 records" in capsys.readouterr().out

    def test_bad_per_class_is_config_error(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "x"), "--per-class", "0"]) == 2


class TestSpectrogram:
    def test_renders_image_and_matrix(self, tiny_dataset_dir, tmp_path):
        img = tmp_path / "spec.pgm"
        mat = tmp_path / "spec.csv"
        rc = main(
            [
                "spectrogram",
                "--in", str(first_iq(tiny_dataset_dir)),
                "--out", str(img),
                "--matrix", str(mat),
            ]
        )
        assert rc == 0
        assert img.read_bytes().startswith(b"P5\n")
        header = mat.read_text().split("\n", 1)[0]
        assert header.startswith("time_s")

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["spectrogram", "--in", str(tmp_path / "nope.iq")]) == 3


class TestSegment:
    def test_writes_cuts_and_manifest(self, tiny_dataset_dir, tmp_path):
        out = tmp_path / "segs"
        rc = main(["segment", "--in", str(first_iq(tiny_dataset_dir)), "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "segments.json").read_text())
        assert len(meta["segments"]) >= 1
        seg = meta["segments"][0]
        assert seg["start_s"] < seg["end_s"]
        cut = np.fromfile(out / seg["file"], dtype="<c8")
        assert cut.size == 64000  # five seconds at 12.8 kHz


class TestEnvelope:
    def test_writes_traces_and_overlay(self, tiny_dataset_dir, tmp_path):
        out = tmp_path / "env.json"
        overlay = tmp_path / "env.pgm"
        rc = main(
            [
                "envelope",
                "--in", str(first_iq(tiny_dataset_dir)),
                "--out", str(out),
                "--overlay", str(overlay),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"upper_hz", "lower_hz", "time_s"}
        assert len(payload["upper_hz"]) == len(payload["time_s"]) == 100
        assert overlay.read_bytes().startswith(b"P5\n")


    @staticmethod
    def with_nan(raw):
        samples = np.frombuffer(raw, "<c8").copy()
        samples[99] = np.nan
        return samples.tobytes()

    @pytest.mark.parametrize(
        "corrupt",
        [with_nan, lambda raw: raw + b"\x01\x02\x03"],
        ids=["nan", "stray-bytes"],
    )
    def test_bad_record_is_data_error(self, tiny_dataset_dir, tmp_path, capsys, corrupt):
        path = tmp_path / "bad.iq"
        path.write_bytes(corrupt(first_iq(tiny_dataset_dir).read_bytes()))
        out = tmp_path / "env.json"
        assert main(["envelope", "--in", str(path), "--out", str(out)]) == 3
        assert "bad.iq" in capsys.readouterr().err
        assert not out.exists()


class TestFeatures:
    def test_empirical_csv(self, tiny_dataset_dir, tmp_path):
        out = tmp_path / "emp.csv"
        rc = main(
            ["features", "--kind", "empirical", "--in", str(tiny_dataset_dir), "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "id,label,event_length_s,extreme_ratio,bandwidth_hz"
        assert len(lines) == 13
        assert lines[1].count(",") == 4

    def test_trajectory_csv(self, tiny_dataset_dir, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(
            ["features", "--kind", "trajectory", "--in", str(tiny_dataset_dir), "--out", str(out)]
        )
        assert rc == 0
        header = out.read_text().split("\n", 1)[0]
        assert header.startswith("id,label,t1,f1,a1,")
        assert header.endswith("t10,f10,a10")

    def test_unknown_kind_is_config_error(self, tiny_dataset_dir, tmp_path):
        rc = main(
            ["features", "--kind", "cepstral", "--in", str(tiny_dataset_dir), "--out", str(tmp_path / "x")]
        )
        assert rc == 2

    def test_missing_dataset_is_data_error(self, tmp_path):
        rc = main(
            ["features", "--kind", "empirical", "--in", str(tmp_path / "none"), "--out", str(tmp_path / "x")]
        )
        assert rc == 3


class TestSimilarity:
    def test_writes_table_when_enough_samples(self, tiny_dataset_dir, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main(["similarity", "--in", str(tiny_dataset_dir), "--d", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",a,b,c,d,e,f"
        assert len(lines) == 7

    def test_too_few_samples_is_data_error(self, tiny_dataset_dir, tmp_path):
        rc = main(["similarity", "--in", str(tiny_dataset_dir), "--d", "10", "--out", str(tmp_path / "x")])
        assert rc == 3


class TestTrain:
    def test_nearest_neighbor_archive(self, tiny_dataset_dir, tmp_path):
        out = tmp_path / "nn.npz"
        rc = main(["train", "--in", str(tiny_dataset_dir), "--out", str(out)])
        assert rc == 0
        blob = np.load(out)
        assert blob["features"].shape[0] == 12
        assert blob["labels"].shape == (12,)

    def test_svm_archive(self, tiny_dataset_dir, tmp_path):
        out = tmp_path / "svm.npz"
        rc = main(
            ["train", "--in", str(tiny_dataset_dir), "--classifier", "svm", "--out", str(out)]
        )
        assert rc == 0
        blob = np.load(out)
        assert blob["weights"].shape[0] == 6
        assert blob["classes"].shape == (6,)


    def load_svm(self, path):
        blob = np.load(path)
        majority = int(blob["majority"])
        return SvmModel(
            blob["weights"], blob["bias"], blob["mean"], blob["scale"], blob["classes"],
            majority=None if majority < 0 else majority,
        )

    def train_svm(self, dataset_dir, out):
        return main(["train", "--in", str(dataset_dir), "--classifier", "svm", "--out", str(out)])

    def test_svm_archive_round_trip(self, tiny_dataset_dir, tmp_path):
        out = tmp_path / "svm.npz"
        assert self.train_svm(tiny_dataset_dir, out) == 0
        pipe = harness.PipelineConfig(classifier="svm")
        records = Dataset.load(tiny_dataset_dir).records
        table = harness.extract_features(records, pipe)[pipe.features]
        want = fit_svm(table.vectors, table.labels, seed=0)
        got = self.load_svm(out)
        assert got.majority is None
        for name in ("weights", "bias", "mean", "scale", "classes"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        np.testing.assert_array_equal(
            svm_predict(got, table.vectors), svm_predict(want, table.vectors)
        )

    def test_degenerate_svm_archive_keeps_its_majority(self, tiny_dataset_dir, tmp_path, monkeypatch):
        labels = np.array([0, 1, 2, 3, 4, 5, 3, 3, 3, 1, 2, 3])
        flat = harness.FeatureTable(kind="envelope", labels=labels, vectors=np.ones((12, 4)))
        monkeypatch.setattr(harness, "extract_features", lambda *a, **k: {"envelope": flat})
        out = tmp_path / "svm.npz"
        assert self.train_svm(tiny_dataset_dir, out) == 0
        got = self.load_svm(out)
        assert got.majority == 3
        np.testing.assert_array_equal(svm_predict(got, np.zeros((2, 4))), [3, 3])


class TestEval:
    def run_eval(self, dataset_dir, tmp_path, extra=()):
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "report.csv"
        rc = main(
            [
                "eval",
                "--in", str(dataset_dir),
                "--trials", "3",
                "--out-json", str(out_json),
                "--out-csv", str(out_csv),
                *extra,
            ]
        )
        return rc, out_json, out_csv

    def test_writes_reports(self, tiny_dataset_dir, tmp_path, capsys):
        rc, out_json, out_csv = self.run_eval(tiny_dataset_dir, tmp_path)
        assert rc == 0
        payload = json.loads(out_json.read_text())
        assert payload["trials"] == 3
        assert payload["pipeline"]["features"] == "envelope"
        assert out_csv.read_text().startswith(",a,b,c,d,e,f\n")
        assert "overall accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "corrupt",
        [lambda x: x[: len(x) // 2], lambda x: np.where(np.arange(len(x)) == 99, np.nan, x)],
        ids=["truncated", "nan"],
    )
    def test_bad_record_is_data_error(self, tiny_dataset_dir, tmp_path, capsys, corrupt):
        ds = tmp_path / "ds"
        shutil.copytree(tiny_dataset_dir, ds)
        path = first_iq(ds)
        corrupt(np.fromfile(path, dtype="<c8")).astype("<c8").tofile(path)
        rc, out_json, _ = self.run_eval(ds, tmp_path)
        assert rc == 3
        assert path.name in capsys.readouterr().err
        assert not out_json.exists()

    def test_class_with_one_record_is_data_error(self, twelve_records, tmp_path, capsys):
        # make_records lists classes in order, two records each: dropping
        # the last leaves class f with one, which no split can use.
        ds = Dataset(records=twelve_records[:-1]).save(tmp_path / "ds")
        rc, out_json, _ = self.run_eval(ds, tmp_path)
        assert rc == 3
        assert "class f" in capsys.readouterr().err
        assert not out_json.exists()

    def test_pca_dim_above_train_count_is_config_error(self, tiny_dataset_dir, tmp_path):
        # One train record a class: six train rows allow at most 6 components.
        rc, out_json, _ = self.run_eval(
            tiny_dataset_dir, tmp_path, ["--features", "pca-env", "--pca-dim", "7"]
        )
        assert rc == 2
        assert not out_json.exists()

    def test_pca_dim_equal_to_train_count_runs(self, tiny_dataset_dir, tmp_path):
        # Six centred train rows have rank 5, so the sixth component is
        # null; it must get zero coefficients, not NaN.
        rc, out_json, _ = self.run_eval(
            tiny_dataset_dir, tmp_path, ["--features", "pca-env", "--pca-dim", "6"]
        )
        assert rc == 0
        payload = json.loads(out_json.read_text())
        assert sum(map(sum, payload["counts"])) == 3 * 6

    def test_bad_classifier_is_config_error(self, tiny_dataset_dir, tmp_path):
        rc = main(["eval", "--in", str(tiny_dataset_dir), "--classifier", "tree"])
        assert rc == 2

    def test_config_file_overrides_flags(self, tiny_dataset_dir, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"classifier": "nn-l2", "trials": 2}))
        out_json = tmp_path / "r.json"
        rc = main(
            [
                "--config", str(cfgfile),
                "eval",
                "--in", str(tiny_dataset_dir),
                "--out-json", str(out_json),
            ]
        )
        assert rc == 0
        payload = json.loads(out_json.read_text())
        assert payload["pipeline"]["classifier"] == "nn-l2"
        assert payload["trials"] == 2

    def test_unknown_config_key_is_config_error(self, tiny_dataset_dir, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"max-depth": 3}))
        rc = main(["--config", str(cfgfile), "eval", "--in", str(tiny_dataset_dir)])
        assert rc == 2

    def test_malformed_config_is_config_error(self, tiny_dataset_dir, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("{not json")
        rc = main(["--config", str(cfgfile), "eval", "--in", str(tiny_dataset_dir)])
        assert rc == 2

    def test_missing_config_is_config_error(self, tiny_dataset_dir, tmp_path):
        rc = main(
            ["--config", str(tmp_path / "none.json"), "eval", "--in", str(tiny_dataset_dir)]
        )
        assert rc == 2


class TestReport:
    def test_rerenders_json_as_csv(self, tiny_dataset_dir, tmp_path):
        rc, out_json, out_csv = TestEval().run_eval(tiny_dataset_dir, tmp_path)
        assert rc == 0
        again = tmp_path / "again.csv"
        assert main(["report", "--in", str(out_json), "--out", str(again)]) == 0
        assert again.read_bytes() == out_csv.read_bytes()

    def test_missing_report_is_data_error(self, tmp_path):
        rc = main(["report", "--in", str(tmp_path / "no.json"), "--out", str(tmp_path / "x")])
        assert rc == 3

    def test_corrupt_report_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"labels": ["a"]}')
        rc = main(["report", "--in", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 3
