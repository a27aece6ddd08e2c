"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import envelope, harness, segmentation, simulate, subspace, tfr


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def _load_record(path: Path, sample_rate_hz: float) -> simulate.IQRecord:
    min_rate = 2 * simulate.DOPPLER_BAND_HZ
    if not (np.isfinite(sample_rate_hz) and sample_rate_hz >= min_rate):
        raise ConfigError(
            f"--sample-rate must be a finite rate of at least {min_rate:g} Hz, got {sample_rate_hz}"
        )
    if not path.exists():
        raise DataError(f"no such IQ file: {path}")
    size = path.stat().st_size
    if size == 0:
        raise DataError(f"empty IQ file: {path}")
    if size % 8:
        raise DataError(f"IQ file {path} is {size} bytes, not whole complex64 samples")
    samples = np.fromfile(path, dtype="<c8")
    if not np.isfinite(samples).all():
        raise DataError(f"IQ file {path} holds non-finite samples")
    return simulate.IQRecord(samples=samples, sample_rate_hz=sample_rate_hz, record_id=path.stem)


def _load_dataset(path: str) -> simulate.Dataset:
    try:
        ds = simulate.Dataset.load(path)
    except FileNotFoundError as e:
        raise DataError(str(e)) from e
    except (KeyError, json.JSONDecodeError) as e:
        raise DataError(f"corrupt dataset manifest: {e}") from e
    except ValueError as e:
        raise DataError(f"corrupt dataset: {e}") from e
    if not ds.records:
        raise DataError(f"dataset {path} lists no records")
    window = tfr.StftConfig().window_len
    for rec in ds.records:
        if len(rec.samples) < window:
            raise DataError(
                f"record {rec.record_id} has {len(rec.samples)} samples, "
                f"fewer than the {window}-sample analysis window"
            )
    return ds


def _apply_config_file(args, parser: argparse.ArgumentParser):
    """Overlay --config JSON keys onto the parsed arguments.

    A key names a global option or one of the command's.  Its value is
    converted as argparse converts the option's text, so it must be a
    string or a number that the option would accept; a flag takes true
    or false.
    """
    if not args.config:
        return
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    try:
        overrides = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"bad config file: {e}") from e
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        a.dest: a
        for a in parser._actions + sub.choices[args.command]._actions
        if a.option_strings and a.dest != "help"
    }
    for key, value in overrides.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"unknown config key: {key}")
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ConfigError(f"config key {key} must be true or false")
        elif isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ConfigError(f"config key {key} must be a string or a number")
        else:
            try:
                value = (action.type or str)(str(value))
            except ValueError as e:
                raise ConfigError(f"config key {key}: {e}") from e
        setattr(args, action.dest, value)


def _pipeline_from_args(args) -> harness.PipelineConfig:
    try:
        return harness.PipelineConfig(
            features=args.features,
            classifier=args.classifier,
            recenter=not getattr(args, "no_recenter", False),
            pca_dim=getattr(args, "pca_dim", 30),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _cmd_simulate(args) -> int:
    if args.per_class < 1:
        raise ConfigError("--per-class must be at least 1")
    try:
        grid = simulate.default_grid(snr_db=args.snr)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    ds = simulate.generate_dataset(args.per_class, grid, base_seed=args.seed)
    ds.save(args.out)
    print(f"wrote {len(ds)} records to {args.out}")
    return 0


def _cmd_spectrogram(args) -> int:
    if not (np.isfinite(args.dyn_range) and args.dyn_range > 0):
        raise ConfigError(f"--dyn-range must be a finite positive dB span, got {args.dyn_range}")
    rec = _load_record(Path(args.infile), args.sample_rate)
    try:
        spec = tfr.spectrogram(rec)
    except ValueError as e:
        raise DataError(str(e)) from e
    if args.out:
        tfr.write_pgm(tfr.to_gray(spec, dyn_range_db=args.dyn_range), args.out)
        print(f"wrote {args.out}")
    if args.matrix:
        tfr.spectrogram_to_csv(spec, args.matrix)
        print(f"wrote {args.matrix}")
    return 0


def _cmd_segment(args) -> int:
    rec = _load_record(Path(args.infile), args.sample_rate)
    try:
        intervals = segmentation.segment_record(rec)
    except ValueError as e:
        raise DataError(str(e)) from e
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    meta = []
    for i, iv in enumerate(intervals):
        cut = segmentation.window(rec, iv, 5.0)
        name = f"{rec.record_id}_seg{i:02d}.iq"
        cut.samples.astype("<c8").tofile(outdir / name)
        meta.append({"file": name, "start_s": iv.start_s, "end_s": iv.end_s})
    (outdir / "segments.json").write_text(json.dumps({"segments": meta}, indent=2))
    print(f"found {len(intervals)} motion interval(s); wrote {outdir}/segments.json")
    return 0


def _cmd_envelope(args) -> int:
    rec = _load_record(Path(args.infile), args.sample_rate)
    pipe = harness.PipelineConfig()
    try:
        spec = tfr.spectrogram(rec, pipe.stft, pipe.band_hz)
        env = envelope.extract(spec, pipe.env)
    except ValueError as e:
        raise DataError(str(e)) from e
    payload = {
        "upper_hz": env.upper_hz.tolist(),
        "lower_hz": env.lower_hz.tolist(),
        "time_s": env.time_s.tolist(),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2))
    print(f"wrote {args.out}")
    if args.overlay:
        cropped = spec.crop_band(pipe.image_band_hz)
        img = tfr.to_gray(cropped, pipe.image_size, pipe.image_dyn_db)
        marks = envelope.envelope_image(cropped, env, img.size)
        img.pixels[marks.pixels > 0] = 1.0
        tfr.write_pgm(img, args.overlay)
        print(f"wrote {args.overlay}")
    return 0


def _cmd_features(args) -> int:
    if args.kind not in ("empirical", "trajectory"):
        raise ConfigError("--kind must be empirical or trajectory")
    ds = _load_dataset(args.indir)
    pipe = harness.PipelineConfig(features=args.kind)
    table = harness.extract_features(ds.records, pipe, jobs=args.jobs)[args.kind]
    with open(args.out, "w") as fh:
        if args.kind == "empirical":
            fh.write("id,label,event_length_s,extreme_ratio,bandwidth_hz\n")
        else:
            cols = [f"{n}{i+1}" for i in range(10) for n in ("t", "f", "a")]
            fh.write("id,label," + ",".join(cols) + "\n")
        for rec, row in zip(ds.records, table.vectors):
            vals = ",".join(f"{v:.6f}" for v in row)
            fh.write(f"{rec.record_id},{rec.label.letter},{vals}\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_similarity(args) -> int:
    if args.dim < 1:
        raise ConfigError("--d must be at least 1")
    ds = _load_dataset(args.indir)
    pipe = harness.PipelineConfig(features="pca-spec")
    table = harness.extract_features(ds.records, pipe, kinds=("pca-spec",), jobs=args.jobs)[
        "pca-spec"
    ]
    by_class = {}
    for lab, vec in zip(table.labels, table.vectors):
        by_class.setdefault(simulate.GestureLabel(int(lab)), []).append(vec)
    try:
        sim = subspace.similarity_table(by_class, d=args.dim)
    except ValueError as e:
        raise DataError(str(e)) from e
    sim.to_csv(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    ds = _load_dataset(args.indir)
    pipe = _pipeline_from_args(args)
    try:
        protocol = harness.EvalProtocol(
            train_fraction=args.train_fraction, trials=args.trials, seed=args.seed
        )
        cm = harness.evaluate(ds, pipe, protocol, jobs=args.jobs)
    except harness.SmallClassError as e:
        raise DataError(str(e)) from e
    except ValueError as e:
        raise ConfigError(str(e)) from e
    harness.report(cm, pipe, json_path=args.out_json, csv_path=args.out_csv)
    print(f"overall accuracy: {cm.overall_accuracy:.2f}%")
    return 0


def _cmd_report(args) -> int:
    path = Path(args.infile)
    if not path.exists():
        raise DataError(f"no such report: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"corrupt report file: {e}") from e
    if not isinstance(payload, dict):
        raise DataError("corrupt report file: not a JSON object")
    missing = {"labels", "percent", "overall_accuracy"} - payload.keys()
    if missing:
        raise DataError(f"corrupt report file: no {', '.join(sorted(missing))}")
    labels, percent, overall = payload["labels"], payload["percent"], payload["overall_accuracy"]
    if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        raise DataError("corrupt report file: labels must be a list of strings")
    if not (
        isinstance(percent, list)
        and len(percent) == len(labels)
        and all(isinstance(row, list) and len(row) == len(labels) for row in percent)
        and all(_is_number(v) for row in percent for v in row)
    ):
        raise DataError("corrupt report file: percent must be a labels x labels matrix of numbers")
    if not _is_number(overall):
        raise DataError("corrupt report file: overall_accuracy must be a number")
    harness.write_confusion_csv(args.out, labels, percent, overall)
    print(f"wrote {args.out}")
    return 0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _add_iq_input(q: argparse.ArgumentParser):
    q.add_argument("--in", dest="infile", required=True, help="raw complex64 IQ file")
    q.add_argument("--sample-rate", type=float, default=12800.0, help="IQ sample rate, Hz")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mdg", description=__doc__)
    p.add_argument("--seed", type=int, default=0, help="base seed for all randomness")
    p.add_argument("--config", default=None, help="JSON file overriding arguments")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("simulate", help="generate a synthetic gesture dataset")
    q.add_argument("--out", required=True)
    q.add_argument("--per-class", type=int, default=120)
    q.add_argument("--snr", type=float, default=10.0)
    q.set_defaults(fn=_cmd_simulate)

    q = sub.add_parser("spectrogram", help="render a spectrogram image / matrix")
    _add_iq_input(q)
    q.add_argument("--out", default=None, help="PGM image path")
    q.add_argument("--matrix", default=None, help="CSV matrix path")
    q.add_argument("--dyn-range", type=float, default=50.0)
    q.set_defaults(fn=_cmd_spectrogram)

    q = sub.add_parser("segment", help="detect motion intervals and cut windows")
    _add_iq_input(q)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_segment)

    q = sub.add_parser("envelope", help="extract the envelope pair")
    _add_iq_input(q)
    q.add_argument("--out", required=True, help="JSON output path")
    q.add_argument("--overlay", default=None, help="PGM overlay path")
    q.set_defaults(fn=_cmd_envelope)

    q = sub.add_parser("features", help="export empirical or trajectory features")
    q.add_argument("--kind", required=True)
    q.add_argument("--in", dest="indir", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_features)

    q = sub.add_parser("similarity", help="class-subspace similarity table")
    q.add_argument("--in", dest="indir", required=True)
    q.add_argument("--d", dest="dim", type=int, default=10)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_similarity)

    q = sub.add_parser("eval", help="evaluate a feature/classifier pipeline")
    q.add_argument("--in", dest="indir", required=True)
    q.add_argument("--features", default="envelope")
    q.add_argument("--classifier", default="nn-l1")
    q.add_argument("--no-recenter", action="store_true")
    q.add_argument("--pca-dim", type=int, default=30)
    q.add_argument("--trials", type=int, default=20)
    q.add_argument("--train-fraction", type=float, default=0.70)
    q.add_argument("--out-json", default=None)
    q.add_argument("--out-csv", default=None)
    q.set_defaults(fn=_cmd_eval)

    q = sub.add_parser("report", help="re-render a JSON report as CSV")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, parser)
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
