"""Monte Carlo evaluation harness.

Features are computed once per record (optionally re-centered on the
detected motion burst); trials then resample stratified train/test
splits, fit the configured classifier, and accumulate a pooled
confusion matrix.  All randomness is derived from one base seed through
named sub-streams, and per-record work is independent of the worker
count, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import multiprocessing
import numpy as np

from . import classify, envelope, features, segmentation, subspace, tfr
from .simulate import STREAM_KMEANS, STREAM_SPLIT, STREAM_SVM, Dataset, GestureLabel

FEATURE_KINDS = ("envelope", "empirical", "trajectory", "pca-spec", "pca-envimg", "pca-env")
CLASSIFIER_KINDS = ("nn-l1", "nn-l2", "nn-emd", "nn-mhd", "svm")


@dataclass(frozen=True)
class EvalProtocol:
    train_fraction: float = 0.70
    trials: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train fraction must be in (0, 1)")
        if self.trials < 1:
            raise ValueError("need at least one trial")


@dataclass(frozen=True)
class PipelineConfig:
    features: str = "envelope"
    classifier: str = "nn-l1"
    stft: tfr.StftConfig = field(default_factory=tfr.StftConfig)
    pbc: segmentation.PbcConfig = field(default_factory=segmentation.PbcConfig)
    env: envelope.EnvelopeConfig = field(default_factory=envelope.EnvelopeConfig)
    recenter: bool = True
    pca_dim: int = 30
    trajectory_points: int = 10
    image_size: tuple[int, int] = (100, 100)
    image_dyn_db: float = 25.0
    image_band_hz: float = 640.0
    svm_lambda: float = 1e-4
    svm_epochs: int = 200

    def __post_init__(self):
        if self.features not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind: {self.features!r}")
        if self.classifier not in CLASSIFIER_KINDS:
            raise ValueError(f"unknown classifier: {self.classifier!r}")
        if self.features.startswith("pca-") and self.classifier == "nn-mhd":
            raise ValueError("modified Hausdorff does not apply to PCA coefficients")
        if self.pca_dim < 1:
            raise ValueError("pca_dim must be positive")

    @property
    def band_hz(self) -> float:
        """The |f| radius of the spectrogram rows that every feature kind
        reads: the image band or the burst-curve band, whichever is wider."""
        return max(self.image_band_hz, self.pbc.band_hz)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_hash(pipeline: PipelineConfig, protocol: EvalProtocol) -> str:
    blob = json.dumps(
        {"pipeline": pipeline.to_dict(), "protocol": dataclasses.asdict(protocol)},
        sort_keys=True,
        default=list,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class SmallClassError(ValueError):
    """A class has too few records to split into train and test: a fault
    of the data, not of the protocol settings."""


def split(
    labels: np.ndarray, protocol: EvalProtocol, trial: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/test indices for one trial.

    Per class, floor(train_fraction * n) samples train and the rest
    test; the shuffle comes from the split sub-stream of the base seed
    keyed by trial index.
    """
    labels = np.asarray(labels, int)
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([protocol.seed, STREAM_SPLIT, trial]))
    )
    train, test = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if len(idx) < 2:
            raise SmallClassError(f"class {GestureLabel(c).letter} has fewer than 2 samples")
        n_train = math.floor(protocol.train_fraction * len(idx))
        if n_train < 1 or n_train == len(idx):
            raise ValueError("split leaves a class without train or test samples")
        perm = rng.permutation(idx)
        train.append(perm[:n_train])
        test.append(perm[n_train:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


@dataclass
class FeatureTable:
    """Per-record features of one kind, aligned with labels."""

    kind: str
    labels: np.ndarray
    vectors: np.ndarray | None = None
    pointsets: list | None = None
    trajectories: list | None = None


def _record_features(record, pipe: PipelineConfig, kinds: tuple[str, ...]) -> dict:
    # The sparse-trajectory decomposition is defined on the record as
    # measured; recentering belongs to the segment-based pipelines, so a
    # request for trajectories alone skips it.
    recenter = pipe.recenter and bool(set(kinds) - {"trajectory"})
    spec = tfr.spectrogram(record, pipe.stft, pipe.band_hz)
    raw_spec = spec
    # The strongest burst of ``spec``, computed once per spectrogram.
    burst = None
    if recenter or "empirical" in kinds:
        burst = segmentation.bursts(spec, pipe.pbc)[1]
    if recenter and burst is not None:
        spec = segmentation.recentre(record, spec, burst, pipe.stft, pipe.band_hz)
        if "empirical" in kinds:
            burst = segmentation.bursts(spec, pipe.pbc)[1]

    out: dict = {}
    env = None
    if {"envelope", "empirical", "pca-env", "pca-envimg"} & set(kinds):
        env = envelope.extract(spec, pipe.env)

    if "envelope" in kinds or "pca-env" in kinds:
        vec = envelope.to_feature(env)
        if "envelope" in kinds:
            out["envelope"] = vec
        if "pca-env" in kinds:
            out["pca-env"] = vec
    if "empirical" in kinds:
        if burst is None:
            burst = segmentation.MotionInterval(0.0, record.duration_s)
        out["empirical"] = features.empirical(burst, env).as_vector()
    if "trajectory" in kinds:
        traj = features.trajectory(
            raw_spec,
            pipe.trajectory_points,
            band_hz=(pipe.pbc.pos_lo_hz, pipe.pbc.pos_hi_hz),
        )
        out["trajectory"] = traj
    if "pca-spec" in kinds or "pca-envimg" in kinds:
        cropped = spec.crop_band(pipe.image_band_hz)
        if "pca-spec" in kinds:
            img = tfr.to_gray(cropped, pipe.image_size, pipe.image_dyn_db)
            out["pca-spec"] = tfr.vectorize(img).astype(np.float32)
        if "pca-envimg" in kinds:
            # Its pixels are exactly 0 or 1; ``subspace.gram`` reads the
            # table in float64, so a byte each loses nothing.
            img = envelope.envelope_image(cropped, env, pipe.image_size)
            out["pca-envimg"] = tfr.vectorize(img).astype(np.uint8)
    return out


# Set in each forked pool worker by its initializer; the parent never
# holds it, and nothing is pickled to fill it.
_worker_args: tuple = ()


def _pool_init(records, pipe, kinds):
    global _worker_args
    _worker_args = (records, pipe, kinds)


def _pool_worker(i: int):
    records, pipe, kinds = _worker_args
    return i, _record_features(records[i], pipe, kinds)


def extract_features(
    records,
    pipe: PipelineConfig,
    kinds: tuple[str, ...] | None = None,
    jobs: int = 1,
) -> dict[str, FeatureTable]:
    """Compute feature tables for the requested kinds.

    With ``jobs > 1`` records are processed in a fork-based process
    pool; results are merged by record index, so the output does not
    depend on the worker count.
    """
    records = list(records)
    kinds = tuple(kinds) if kinds is not None else (pipe.features,)
    for k in kinds:
        if k not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind: {k!r}")
    if not records:
        raise ValueError("no records to extract features from")
    labels = np.array([int(r.label) for r in records])

    # Each vector kind's rows land in one table as results arrive, so no
    # per-record copies outlive the loop; trajectories stay objects.
    rows: dict[str, np.ndarray] = {}
    trajs: list = [None] * len(records)

    def take(i: int, res: dict) -> None:
        for k, v in res.items():
            if k == "trajectory":
                trajs[i] = v
                continue
            if k not in rows:
                rows[k] = np.empty((len(records), len(v)), dtype=v.dtype)
            rows[k][i] = v

    if jobs > 1 and len(records) > 1:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=ctx, initializer=_pool_init, initargs=(records, pipe, kinds)
        ) as ex:
            for i, res in ex.map(_pool_worker, range(len(records)), chunksize=8):
                take(i, res)
    else:
        for i, rec in enumerate(records):
            take(i, _record_features(rec, pipe, kinds))

    tables: dict[str, FeatureTable] = {}
    for k in kinds:
        if k == "trajectory":
            tables[k] = FeatureTable(
                kind=k,
                labels=labels,
                vectors=np.stack([t.points.ravel() for t in trajs]),
                pointsets=[t.normalized_tf() for t in trajs],
                trajectories=trajs,
            )
        else:
            tables[k] = FeatureTable(kind=k, labels=labels, vectors=rows[k])
    return tables


@dataclass
class ConfusionMatrix:
    """Pooled confusion counts with row percentages."""

    counts: np.ndarray
    percent: np.ndarray
    labels: tuple[str, ...]
    overall_accuracy: float
    per_trial_accuracy: np.ndarray
    trials: int
    seed: int
    config_hash: str = ""

    @classmethod
    def from_counts(cls, counts, labels, per_trial, protocol, hash_=""):
        counts = np.asarray(counts, dtype=int)
        rows = counts.sum(axis=1, keepdims=True)
        if np.any(rows == 0):
            raise ValueError("confusion matrix has an empty true-class row")
        percent = 100.0 * counts / rows
        overall = 100.0 * np.trace(counts) / counts.sum()
        return cls(
            counts=counts,
            percent=percent,
            labels=tuple(labels),
            overall_accuracy=float(overall),
            per_trial_accuracy=np.asarray(per_trial, float),
            trials=protocol.trials,
            seed=protocol.seed,
            config_hash=hash_,
        )


def _trial_seed(protocol: EvalProtocol, stream: int, trial: int) -> int:
    ss = np.random.SeedSequence([protocol.seed, stream, trial])
    return int(ss.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFF)


def _make_predictor(table: FeatureTable, pipe: PipelineConfig, protocol: EvalProtocol):
    """Build fn(trial, train_idx, test_idx) -> predicted labels."""
    clf = pipe.classifier
    feats = pipe.features

    if feats == "trajectory" and clf == "nn-mhd":
        trajs = table.trajectories

        def predict(trial, tr, te):
            seed = _trial_seed(protocol, STREAM_KMEANS, trial)
            classes = np.unique(table.labels[tr])
            centrals = []
            for c in classes:
                members = [trajs[i] for i in tr if table.labels[i] == c]
                centrals.append(
                    features.central_trajectory(
                        members, pipe.trajectory_points, seed=seed + int(c)
                    ).normalized_tf()
                )
            tests = [table.pointsets[i] for i in te]
            d = classify.pairwise_distances(tests, centrals, classify.DistanceKind.MHD)
            return classes[d.argmin(axis=1)]

        return predict

    if clf == "svm":
        # Every trial's machines train up front, together, on the same
        # splits evaluate will pass; predict only applies the trial's model.
        trains = [split(table.labels, protocol, t)[0] for t in range(protocol.trials)]
        models = classify.fit_svm_many(
            [table.vectors[tr] for tr in trains],
            [table.labels[tr] for tr in trains],
            [_trial_seed(protocol, STREAM_SVM, t) for t in range(protocol.trials)],
            lam=pipe.svm_lambda,
            epochs=pipe.svm_epochs,
        )

        def predict(trial, tr, te):
            return classify.svm_predict(models[trial], table.vectors[te])

        return predict

    metric = classify.DistanceKind.parse(clf[3:])

    if feats.startswith("pca-"):
        # One Gram matrix of the whole table serves every trial, which
        # then works on its rows and columns alone.
        dims = table.vectors.shape[1]
        gram = subspace.gram(table.vectors)

        def predict(trial, tr, te):
            ztr, zte = subspace.gram_pca(gram, dims, tr, te, pipe.pca_dim)
            d = classify.pairwise_distances(zte, ztr, metric)
            return table.labels[tr][d.argmin(axis=1)]

        return predict

    dmat = classify.pairwise_distances(table.vectors, table.vectors, metric)

    def predict(trial, tr, te):
        sub = dmat[np.ix_(te, tr)]
        return table.labels[tr][sub.argmin(axis=1)]

    return predict


def evaluate(
    dataset,
    pipe: PipelineConfig = PipelineConfig(),
    protocol: EvalProtocol = EvalProtocol(),
    jobs: int = 1,
    features_table: FeatureTable | None = None,
    predictor=None,
) -> ConfusionMatrix:
    """Run the full Monte Carlo protocol and pool confusion counts.

    ``features_table`` short-circuits extraction (useful when several
    pipelines share features); ``predictor`` overrides the classifier
    with fn(trial, train_idx, test_idx) -> labels, which the tests use
    to inject stubs.
    """
    records = dataset.records if isinstance(dataset, Dataset) else list(dataset)
    if features_table is None and predictor is None:
        features_table = extract_features(records, pipe, jobs=jobs)[pipe.features]
    if features_table is not None:
        labels = features_table.labels
    else:
        labels = np.array([int(r.label) for r in records])
    classes = np.unique(labels)
    if predictor is None:
        predictor = _make_predictor(features_table, pipe, protocol)

    counts = np.zeros((len(classes), len(classes)), dtype=int)
    per_trial = []
    for trial in range(protocol.trials):
        tr, te = split(labels, protocol, trial)
        pred = np.asarray(predictor(trial, tr, te), int)
        truth = labels[te]
        if not np.isin(pred, classes).all():
            raise ValueError(f"trial {trial} predicted a class outside {classes.tolist()}")
        np.add.at(counts, (np.searchsorted(classes, truth), np.searchsorted(classes, pred)), 1)
        per_trial.append(100.0 * float((pred == truth).mean()))

    letters = tuple(GestureLabel(c).letter for c in classes)
    return ConfusionMatrix.from_counts(
        counts, letters, per_trial, protocol, config_hash(pipe, protocol)
    )


def _round_floats(obj, digits=6):
    if isinstance(obj, float):
        return round(obj, digits)
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def report(
    cm: ConfusionMatrix,
    pipeline: PipelineConfig | None = None,
    json_path=None,
    csv_path=None,
) -> dict:
    """Serialize a confusion matrix; returns the report dict.

    The JSON form is canonical (sorted keys, floats rounded to 1e-6) so
    identical evaluations produce identical bytes.
    """
    payload = {
        "labels": list(cm.labels),
        "counts": cm.counts.tolist(),
        "percent": cm.percent.tolist(),
        "overall_accuracy": cm.overall_accuracy,
        "per_trial_accuracy": cm.per_trial_accuracy.tolist(),
        "trials": cm.trials,
        "seed": cm.seed,
        "config_hash": cm.config_hash,
    }
    if pipeline is not None:
        payload["pipeline"] = pipeline.to_dict()
    payload = _round_floats(payload)
    if json_path is not None:
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=list)
            fh.write("\n")
    if csv_path is not None:
        write_confusion_csv(
            csv_path, payload["labels"], payload["percent"], payload["overall_accuracy"]
        )
    return payload


def write_confusion_csv(path, labels, percent, overall) -> None:
    """Row percentages and overall accuracy, two decimals.

    ``report`` and ``mdg report`` both pass the rounded JSON payload's
    values, so a report re-rendered from its JSON has the same bytes.
    """
    with open(path, "w") as fh:
        fh.write("," + ",".join(labels) + "\n")
        for letter, row in zip(labels, percent):
            fh.write(letter + "," + ",".join(f"{v:.2f}" for v in row) + "\n")
        fh.write(f"overall,{overall:.2f}\n")
