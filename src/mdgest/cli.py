"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import classify, envelope, features, harness, segmentation, simulate, subspace, tfr


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def _load_record(path: Path) -> simulate.IQRecord:
    if not path.exists():
        raise DataError(f"no such IQ file: {path}")
    samples = np.fromfile(path, dtype="<c8")
    if samples.size == 0:
        raise DataError(f"empty IQ file: {path}")
    return simulate.IQRecord(samples=samples, sample_rate_hz=12800.0, record_id=path.stem)


def _load_dataset(path: str) -> simulate.Dataset:
    try:
        return simulate.Dataset.load(path)
    except FileNotFoundError as e:
        raise DataError(str(e)) from e
    except (KeyError, json.JSONDecodeError) as e:
        raise DataError(f"corrupt dataset manifest: {e}") from e
    except ValueError as e:
        raise DataError(f"corrupt dataset: {e}") from e


def _apply_config_file(args):
    """Overlay --config JSON keys onto the parsed arguments."""
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
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"unknown config key: {key}")
        setattr(args, attr, value)


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
    grid = simulate.default_grid(snr_db=args.snr)
    ds = simulate.generate_dataset(args.per_class, grid, base_seed=args.seed)
    ds.save(args.out)
    print(f"wrote {len(ds)} records to {args.out}")
    return 0


def _cmd_spectrogram(args) -> int:
    rec = _load_record(Path(args.infile))
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
    rec = _load_record(Path(args.infile))
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
    rec = _load_record(Path(args.infile))
    try:
        spec = tfr.spectrogram(rec)
        env = envelope.extract(spec)
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
        img = tfr.to_gray(spec.crop_band(640.0), dyn_range_db=25.0)
        marks = envelope.envelope_image(spec.crop_band(640.0), env, img.size)
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


def _cmd_train(args) -> int:
    ds = _load_dataset(args.indir)
    pipe = _pipeline_from_args(args)
    table = harness.extract_features(ds.records, pipe, jobs=args.jobs)[pipe.features]
    if pipe.classifier == "svm":
        model = classify.fit_svm(
            table.vectors, table.labels, lam=pipe.svm_lambda, epochs=pipe.svm_epochs,
            seed=args.seed,
        )
        np.savez(
            args.out,
            weights=model.weights, bias=model.bias, mean=model.mean,
            scale=model.scale, classes=model.classes,
        )
    else:
        np.savez(args.out, features=np.asarray(table.vectors), labels=table.labels)
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
        labels = payload["labels"]
        percent = payload["percent"]
        overall = payload["overall_accuracy"]
    except (json.JSONDecodeError, KeyError) as e:
        raise DataError(f"corrupt report file: {e}") from e
    with open(args.out, "w") as fh:
        fh.write("," + ",".join(labels) + "\n")
        for letter, row in zip(labels, percent):
            fh.write(letter + "," + ",".join(f"{v:.2f}" for v in row) + "\n")
        fh.write(f"overall,{overall:.2f}\n")
    print(f"wrote {args.out}")
    return 0


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
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", default=None, help="PGM image path")
    q.add_argument("--matrix", default=None, help="CSV matrix path")
    q.add_argument("--dyn-range", type=float, default=50.0)
    q.set_defaults(fn=_cmd_spectrogram)

    q = sub.add_parser("segment", help="detect motion intervals and cut windows")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_segment)

    q = sub.add_parser("envelope", help="extract the envelope pair")
    q.add_argument("--in", dest="infile", required=True)
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

    for name, fn in (("train", _cmd_train), ("eval", _cmd_eval)):
        q = sub.add_parser(name, help=f"{name} a feature/classifier pipeline")
        q.add_argument("--in", dest="indir", required=True)
        q.add_argument("--features", default="envelope")
        q.add_argument("--classifier", default="nn-l1")
        q.add_argument("--no-recenter", action="store_true")
        q.add_argument("--pca-dim", type=int, default=30)
        if name == "train":
            q.add_argument("--out", required=True)
        else:
            q.add_argument("--trials", type=int, default=20)
            q.add_argument("--train-fraction", type=float, default=0.70)
            q.add_argument("--out-json", default=None)
            q.add_argument("--out-csv", default=None)
        q.set_defaults(fn=fn)

    q = sub.add_parser("report", help="re-render a JSON report as CSV")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
