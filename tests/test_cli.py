"""Command-line flows, in process: exit codes, outputs, config overlay."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdgest import tfr
from mdgest.cli import main
from mdgest.envelope import envelope_image, extract
from mdgest.harness import PipelineConfig, extract_features, segment
from mdgest.segmentation import bursts, cut_span, recentre
from mdgest.simulate import (
    Dataset,
    GestureLabel,
    IQRecord,
    SimConfig,
    generate_dataset,
    simulate_record,
)


def eval_row(record):
    """The ``envelope`` row ``mdg eval`` classifies for one record."""
    return extract_features([record], PipelineConfig())["envelope"].vectors[0].tolist()


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

    def test_nan_snr_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["simulate", "--out", str(out), "--per-class", "1", "--snr", "nan"]) == 2
        assert "NaN" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_snr_writes_noiseless_records(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["simulate", "--out", str(out), "--per-class", "1", "--snr", "inf"]) == 0
        ds = Dataset.load(out)
        assert all(r.config.snr_db == np.inf for r in ds.records)

    def test_negative_infinite_snr_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["simulate", "--out", str(out), "--per-class", "1", "--snr=-inf"]) == 2
        assert "-inf" in capsys.readouterr().err
        assert not out.exists()


# One run of every command, with inputs that exist ({iq}, {ds}) or that
# the command would write first ({tmp}/r.json).
EVERY_COMMAND = [
    ["simulate", "--out", "{tmp}/ds", "--per-class", "1"],
    ["spectrogram", "--in", "{iq}", "--out", "{tmp}/s.pgm"],
    ["segment", "--in", "{iq}", "--out", "{tmp}/seg"],
    ["envelope", "--in", "{iq}", "--out", "{tmp}/e.json"],
    ["features", "--kind", "empirical", "--in", "{ds}", "--out", "{tmp}/f.csv"],
    ["similarity", "--in", "{ds}", "--out", "{tmp}/s.csv"],
    ["eval", "--in", "{ds}", "--trials", "1", "--out-json", "{tmp}/r.json"],
    ["report", "--in", "{tmp}/r.json", "--out", "{tmp}/r.csv"],
]


def assert_global_option_rejected(option, value, argv, how, tiny_dataset_dir, tmp_path, capsys):
    """``--option value`` before the command, or ``{option: value}`` in a
    --config file, exits 2 naming the option and writes nothing."""
    fill = dict(tmp=tmp_path, iq=first_iq(tiny_dataset_dir), ds=tiny_dataset_dir)
    argv = [a.format(**fill) for a in argv]
    if how == "option":
        head = [f"--{option}", str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: value}))
        head = ["--config", str(cfg)]
    assert main(head + argv) == 2
    assert f"--{option}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == ([cfg] if how == "config" else [])


class TestSeed:
    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("how", ["option", "config"])
    def test_negative_seed_is_config_error(self, argv, how, tiny_dataset_dir, tmp_path, capsys):
        assert_global_option_rejected("seed", -1, argv, how, tiny_dataset_dir, tmp_path, capsys)


class TestJobs:
    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("how", ["option", "config"])
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_nonpositive_jobs_is_config_error(
        self, argv, how, jobs, tiny_dataset_dir, tmp_path, capsys
    ):
        assert_global_option_rejected("jobs", jobs, argv, how, tiny_dataset_dir, tmp_path, capsys)


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

    @pytest.mark.parametrize("value", ["0", "-0.0", "-25", "nan", "inf", "-inf"])
    def test_bad_dyn_range_is_config_error_before_input(self, tmp_path, capsys, value):
        """The input does not exist, so exit 2 shows the range is checked
        before the record is read."""
        rc = main(
            [
                "spectrogram",
                "--in", str(tmp_path / "absent.iq"),
                "--out", str(tmp_path / "s.pgm"),
                "--matrix", str(tmp_path / "s.csv"),
                f"--dyn-range={value}",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "--dyn-range" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


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

    def test_intervals_are_the_pipeline_bursts(self, twelve_records, tmp_path):
        """The command writes the bursts feature extraction finds on the
        record's band spectrogram."""
        pipe = PipelineConfig()
        for rec in twelve_records:
            path = tmp_path / f"{rec.record_id}.iq"
            rec.samples.tofile(path)
            assert main(["segment", "--in", str(path), "--out", str(tmp_path / rec.record_id)]) == 0
            got = json.loads((tmp_path / rec.record_id / "segments.json").read_text())["segments"]
            want = segment(rec, pipe, recenter=False, find_bursts=True).intervals
            assert want
            assert [(s["start_s"], s["end_s"]) for s in got] == [(iv.start_s, iv.end_s) for iv in want]


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
    def run(record, tmp_path):
        path = tmp_path / "rec.iq"
        record.samples.astype("<c8").tofile(path)
        out = tmp_path / "env.json"
        assert main(["envelope", "--in", str(path), "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_traces_are_the_band_envelope(self, twelve_records, tmp_path):
        """The command reads the rows feature extraction reads, so a strong
        tone at 3 kHz, outside them, leaves the traces as they are: they
        are the recentred record's ``envelope`` row."""
        rec = twelve_records[0]
        t = np.arange(len(rec.samples)) / rec.sample_rate_hz
        tone = 10.0 * np.abs(rec.samples).max() * np.exp(2j * np.pi * 3000.0 * t)
        record = IQRecord((rec.samples + tone).astype("<c8"), rec.sample_rate_hz, rec.label)
        got = self.run(record, tmp_path)
        pipe = PipelineConfig()
        want = extract(segment(record, pipe, recenter=True).spec)
        assert got["upper_hz"] + got["lower_hz"] == eval_row(record)
        assert got["upper_hz"] == want.upper_hz.tolist()
        assert got["lower_hz"] == want.lower_hz.tolist()
        assert got["time_s"] == want.time_s.tolist()
        burst = bursts(tfr.spectrogram(record, pipe.stft, pipe.band_hz), pipe.pbc)[1]
        full = extract(recentre(record, tfr.spectrogram(record, pipe.stft), burst, pipe.stft))
        assert got["upper_hz"] != full.upper_hz.tolist()

    def test_traces_are_the_eval_envelope_row(self, twelve_records, tmp_path):
        """``mdg envelope`` writes the row ``mdg eval`` classifies, for cuts
        that start on the hop grid and off it."""
        pipe = PipelineConfig()
        rows = extract_features(twelve_records, pipe)["envelope"].vectors
        on_grid = set()
        for rec, row in zip(twelve_records, rows):
            got = self.run(rec, tmp_path)
            assert got["upper_hz"] + got["lower_hz"] == row.tolist(), rec.record_id
            burst = bursts(segment(rec, pipe, recenter=False).raw, pipe.pbc)[1]
            on_grid.add(cut_span(rec, burst, rec.duration_s)[0] % pipe.stft.hop == 0)
        assert on_grid == {True, False}

    def test_record_without_a_burst_keeps_its_whole_envelope(self, tmp_path):
        """Noise that repeats every hop gives bit-identical columns, a flat
        burst curve and no burst: the traces are those of the whole record,
        which is the row extraction falls back to."""
        rng = np.random.default_rng(4)
        block = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        record = IQRecord(np.tile(block, 500).astype(np.complex64), 12800.0, GestureLabel(0))
        pipe = PipelineConfig()
        seg = segment(record, pipe, recenter=True)
        assert seg.intervals == [] and seg.spec is seg.raw
        got = self.run(record, tmp_path)
        want = extract(tfr.spectrogram(record, pipe.stft, pipe.band_hz))
        assert got["upper_hz"] + got["lower_hz"] == eval_row(record)
        assert got["upper_hz"] == want.upper_hz.tolist()
        assert got["lower_hz"] == want.lower_hz.tolist()

    def test_overlay_is_the_gray_band_image_with_the_envelope_marked(self, twelve_records, tmp_path):
        """The overlay is the 100 x 100, 25 dB gray image of the recentred
        spectrogram cut to 640 Hz, with the envelope's pixels set to 1."""
        for rec in twelve_records[::4]:
            path, overlay = tmp_path / "rec.iq", tmp_path / "overlay.pgm"
            rec.samples.astype("<c8").tofile(path)
            args = ["envelope", "--in", str(path), "--out", str(tmp_path / "env.json")]
            assert main(args + ["--overlay", str(overlay)]) == 0
            spec = segment(rec, PipelineConfig(), recenter=True).spec
            cropped = spec.crop_band(640.0)
            img = tfr.to_gray(cropped, (100, 100), 25.0)
            marks = envelope_image(cropped, extract(spec), (100, 100)) > 0
            assert marks.any() and (img[marks] < 1.0).any()
            img[marks] = 1.0
            tfr.write_pgm(img, tmp_path / "want.pgm")
            assert overlay.read_bytes() == (tmp_path / "want.pgm").read_bytes(), rec.record_id


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

    def test_nonpositive_dim_is_config_error(self, tiny_dataset_dir, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["similarity", "--in", str(tiny_dataset_dir), "--d", "0", "--out", str(out)]) == 2
        assert "--d" in capsys.readouterr().err
        assert not out.exists()


class TestIqBoundary:
    OUTPUTS = {
        "spectrogram": ["--out", "spec.pgm", "--matrix", "spec.csv"],
        "segment": ["--out", "segs"],
        "envelope": ["--out", "env.json", "--overlay", "env.pgm"],
    }

    @pytest.mark.prop
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_corrupt_file_is_data_error_with_no_output(self, tiny_dataset_dir, data):
        raw = first_iq(tiny_dataset_dir).read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            whole = data.draw(st.integers(0, len(raw) // 8 - 1), label="whole samples")
            bad = raw[: 8 * whole + data.draw(st.integers(1, 7), label="stray bytes")]
        else:
            floats = np.frombuffer(raw, "<f4").copy()
            i = data.draw(st.integers(0, len(floats) - 1), label="float index")
            floats[i] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
            bad = floats.tobytes()
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "bad.iq"
            src.write_bytes(bad)
            for command, outputs in self.OUTPUTS.items():
                args = [a if a.startswith("--") else str(Path(tmp) / a) for a in outputs]
                assert main([command, "--in", str(src), *args]) == 3, command
            assert [p.name for p in Path(tmp).iterdir()] == ["bad.iq"]


class TestSampleRate:
    @pytest.mark.prop
    @settings(max_examples=30, deadline=None)
    @given(
        command=st.sampled_from(sorted(TestIqBoundary.OUTPUTS)),
        rate=st.one_of(
            st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 999.9999, 1000.0, 1000.48]),
            st.floats(max_value=1000.48, allow_nan=False, allow_infinity=False),
        ),
    )
    # Rates from 1000 Hz up to about 1000.49 Hz sample the Doppler band,
    # but the STFT's top row stops short of the burst curve's 500 Hz.
    @example("segment", 1000.0)
    @example("segment", 1000.48)
    def test_bad_rate_is_config_error_with_no_output(self, tiny_dataset_dir, command, rate):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "rec.iq"
            shutil.copyfile(first_iq(tiny_dataset_dir), src)
            outputs = TestIqBoundary.OUTPUTS[command]
            args = [a if a.startswith("--") else str(Path(tmp) / a) for a in outputs]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main([command, "--in", str(src), f"--sample-rate={rate!r}", *args])
            assert rc == 2, command
            assert "--sample-rate" in stderr.getvalue()
            assert stdout.getvalue() == ""
            assert [p.name for p in Path(tmp).iterdir()] == ["rec.iq"]

    def test_rate_sets_the_traces_of_a_faster_record(self, tmp_path):
        """A 25.6 kHz record read at its own rate gives the traces that
        extraction gives the record; read at the 12.8 kHz default, every
        time and Doppler frequency halves."""
        rec = simulate_record(GestureLabel.PUSH_PULL, SimConfig(sample_rate_hz=25600.0, seed=8))
        path = tmp_path / "fast.iq"
        rec.samples.astype("<c8").tofile(path)
        runs = {}
        for rate in ("25600", None):
            out = tmp_path / f"env{rate}.json"
            segs = tmp_path / f"segs{rate}"
            extra = ["--sample-rate", rate] if rate else []
            assert main(["envelope", "--in", str(path), "--out", str(out), *extra]) == 0
            assert main(["segment", "--in", str(path), "--out", str(segs), *extra]) == 0
            runs[rate] = (json.loads(out.read_text()), json.loads((segs / "segments.json").read_text()))
        (env, segs), (slow_env, slow_segs) = runs["25600"], runs[None]
        pipe = PipelineConfig()
        want = extract(segment(rec, pipe, recenter=True).spec)
        assert env["upper_hz"] + env["lower_hz"] == eval_row(rec)
        assert env["upper_hz"] == want.upper_hz.tolist()
        assert env["lower_hz"] == want.lower_hz.tolist()
        assert env["time_s"] == want.time_s.tolist()
        np.testing.assert_allclose(slow_env["time_s"], 2 * np.array(env["time_s"]))
        assert slow_env["upper_hz"] != env["upper_hz"]
        assert max(slow_env["upper_hz"]) < 0.75 * max(env["upper_hz"])
        want_iv = segment(rec, pipe, recenter=False, find_bursts=True).intervals
        assert [s["start_s"] for s in segs["segments"]] == [iv.start_s for iv in want_iv]
        assert slow_segs["segments"][0]["start_s"] == pytest.approx(2 * segs["segments"][0]["start_s"], rel=0.05)


@pytest.fixture(scope="module")
def short_dataset_dir(tmp_path_factory):
    """Records of 0.1 s: 1280 samples, fewer than the 2048-sample STFT window."""
    return generate_dataset(2, [SimConfig(duration_s=0.1)]).save(tmp_path_factory.mktemp("short"))


class TestShortRecords:
    @pytest.mark.parametrize(
        "command",
        [["eval", "--trials", "2"], ["features", "--kind", "empirical"], ["similarity", "--d", "2"]],
        ids=["eval", "features", "similarity"],
    )
    def test_record_shorter_than_the_window_is_data_error(
        self, short_dataset_dir, tmp_path, capsys, command
    ):
        out = tmp_path / "out"
        flag = "--out-json" if command[0] == "eval" else "--out"
        assert main([*command, "--in", str(short_dataset_dir), flag, str(out)]) == 3
        assert "analysis window" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(TestIqBoundary.OUTPUTS))
    def test_iq_file_shorter_than_the_window_is_data_error(self, tmp_path, capsys, command):
        src = tmp_path / "short.iq"
        np.zeros(2047, "<c8").tofile(src)
        args = [a if a.startswith("--") else str(tmp_path / a) for a in TestIqBoundary.OUTPUTS[command]]
        assert main([command, "--in", str(src), *args]) == 3
        assert "2047 samples, fewer than the 2048-sample analysis window" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["short.iq"]


class TestBadManifest:
    @pytest.mark.parametrize(
        "manifest",
        [[1, 2], "records", {"records": "x"}, {"records": [1]}, {"records": [{}, None]}, {"records": []}, {}],
        ids=["list", "string", "records-string", "records-of-numbers", "records-with-null", "no-records", "no-key"],
    )
    @pytest.mark.parametrize(
        "command",
        [["eval", "--trials", "2"], ["features", "--kind", "empirical"], ["similarity", "--d", "2"]],
        ids=["eval", "features", "similarity"],
    )
    def test_bad_manifest_is_data_error(self, tmp_path, capsys, command, manifest):
        (tmp_path / "meta.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        flag = "--out-json" if command[0] == "eval" else "--out"
        assert main([*command, "--in", str(tmp_path), flag, str(out)]) == 3
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["eval", "--trials", "2"], ["features", "--kind", "empirical"], ["similarity", "--d", "2"]],
        ids=["eval", "features", "similarity"],
    )
    def test_rate_below_the_burst_band_is_data_error(self, tiny_dataset_dir, tmp_path, capsys, command):
        """A 1 kHz manifest samples the Doppler band, but its STFT rows stop
        short of the burst curve's 500 Hz: a fault of the data."""
        data = tmp_path / "ds"
        shutil.copytree(tiny_dataset_dir, data)
        meta = json.loads((data / "meta.json").read_text())
        n_samples = meta["duration_s"] * meta["sample_rate_hz"]
        meta["sample_rate_hz"], meta["duration_s"] = 1000.0, n_samples / 1000.0
        (data / "meta.json").write_text(json.dumps(meta))
        out = tmp_path / "out"
        flag = "--out-json" if command[0] == "eval" else "--out"
        assert main([*command, "--in", str(data), flag, str(out)]) == 3
        assert "1000.49 Hz" in capsys.readouterr().err
        assert not out.exists()


def rejected_by(convert):
    def rejected(text):
        try:
            convert(text)
        except ValueError:
            return True
        return False

    return rejected


# JSON values that are neither a string nor a number.
_NOT_TEXT = st.one_of(
    st.none(),
    st.booleans(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
# (key, value) pairs that the `mdg eval` option named by the key rejects.
ILL_TYPED_CONFIG = st.one_of(
    st.tuples(
        st.sampled_from(["seed", "jobs", "trials", "pca-dim"]),
        st.one_of(_NOT_TEXT, st.floats(), st.text().filter(rejected_by(int))),
    ),
    st.tuples(st.just("train_fraction"), st.one_of(_NOT_TEXT, st.text().filter(rejected_by(float)))),
    st.tuples(
        st.just("no-recenter"),
        st.one_of(st.none(), st.integers(), st.floats(), st.text(), st.lists(st.booleans())),
    ),
    st.tuples(st.sampled_from(["features", "classifier", "out-csv"]), _NOT_TEXT),
)


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

    def test_svm_on_pca_features_is_config_error(self, tiny_dataset_dir, tmp_path, capsys):
        rc, _, _ = self.run_eval(
            tiny_dataset_dir, tmp_path, ["--features", "pca-spec", "--classifier", "svm"]
        )
        assert rc == 2
        assert "pca-spec" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.prop
    @settings(max_examples=60, deadline=None)
    @given(case=ILL_TYPED_CONFIG)
    def test_ill_typed_config_value_is_config_error(self, tiny_dataset_dir, case):
        key, value = case
        with tempfile.TemporaryDirectory() as tmp:
            cfgfile = Path(tmp) / "cfg.json"
            cfgfile.write_text(json.dumps({key: value}))
            args = ["eval", "--in", str(tiny_dataset_dir), "--out-json", str(Path(tmp) / "r.json")]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(["--config", str(cfgfile), *args]) == 2
            assert stdout.getvalue() == ""
            assert [p.name for p in Path(tmp).iterdir()] == ["cfg.json"]

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

    GOOD = {"labels": ["a", "b"], "percent": [[90.0, 10.0], [0, 100]], "overall_accuracy": 95.0}

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {**GOOD, "labels": "ab"},
            {**GOOD, "labels": ["a", 2]},
            {**GOOD, "percent": 5},
            {**GOOD, "percent": [[90.0, 10.0]]},
            {**GOOD, "percent": [[90.0, 10.0], [100.0]]},
            {**GOOD, "percent": [[90.0, "10"], [0.0, 100.0]]},
            {**GOOD, "percent": [[90.0, True], [0.0, 100.0]]},
            {**GOOD, "percent": [[90.0, 10.0], 5]},
            {**GOOD, "overall_accuracy": "x"},
            {**GOOD, "overall_accuracy": None},
        ],
        ids=[
            "list",
            "labels-string",
            "label-number",
            "percent-number",
            "percent-short",
            "percent-ragged",
            "percent-string",
            "percent-bool",
            "percent-row-number",
            "overall-string",
            "overall-null",
        ],
    )
    def test_malformed_payload_is_data_error_with_no_output(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "out.csv"
        assert main(["report", "--in", str(bad), "--out", str(out)]) == 3
        assert "corrupt report file" in capsys.readouterr().err
        assert not out.exists()

    def test_well_formed_payload_renders(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(self.GOOD))
        out = tmp_path / "out.csv"
        assert main(["report", "--in", str(good), "--out", str(out)]) == 0
        assert out.read_text() == ",a,b\na,90.00,10.00\nb,0.00,100.00\noverall,95.00\n"
