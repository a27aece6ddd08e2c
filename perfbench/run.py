"""Benchmark: one protocol workload of mdgest, timed end to end or traced.

    python3 perfbench/run.py --workload envelope-nn --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The program is imported from
``src/`` of that checkout.  One process synthesises the workload's
corpus from ``--seed`` (the set-up), then runs rounds of the same
operations: ``harness.extract_features`` over the corpus (one operation
per record), then ``harness.evaluate`` for each of the workload's
pipelines (one operation per protocol trial).  It starts another round
only while the last one would still end inside ``--seconds``; there is
always at least one.  The outputs are then checked (see checks.py).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` every public layer
function is wrapped in a span (see tracer.py), the spans and the
per-layer table go to ``perfbench-out/``, and the JSON line carries the
per-layer metrics.  See README.md.
"""

from __future__ import annotations

import os
import time


def _process_age_s() -> float:
    """Seconds since this process started, from /proc; 0 where unknown."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


# Set-up is timed from the start of the process, interpreter start-up included.
_T_START = time.perf_counter() - _process_age_s()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench-out"

# Worker processes of the pooled workload, capped at the cores this
# process may run on.  Each process runs BLAS on one thread, so the pool
# never runs more threads than cores.
NPROC = len(os.sched_getaffinity(0))
POOL_JOBS = min(2, NPROC)
BLAS_THREADS = 1

SIMILARITY_DIM = 10
# Required accuracy above chance (100/6 %), in percentage points.
TRAJECTORY_MARGIN = 45.0
SVM_MARGIN = 35.0
ENVELOPE_L1_FLOOR = 90.0
# Records per class re-extracted with jobs=1 for the worker-count check.
JOBS_CHECK_PER_CLASS = 2


END_TO_END_UNITS = {"setup_s": "s", "extract_ms_per_record": "ms/record", "protocol_s": "s", "peak_rss_mb": "MB"}


@dataclasses.dataclass(frozen=True)
class Workload:
    per_class: int  # records per gesture, spread evenly over the 5-angle x 2-speed grid
    kinds: tuple[str, ...]
    pipelines: tuple[tuple[str, str], ...]  # (feature kind, classifier)
    jobs: int = 1
    similarity: bool = False  # also build the class-subspace similarity table


WORKLOADS = {
    "envelope-nn": Workload(
        per_class=40,
        kinds=("envelope",),
        pipelines=(("envelope", "nn-l1"), ("envelope", "nn-l2"), ("envelope", "nn-emd"), ("envelope", "nn-mhd")),
    ),
    "trajectory-mhd": Workload(per_class=20, kinds=("trajectory",), pipelines=(("trajectory", "nn-mhd"),)),
    "baselines-pool": Workload(
        per_class=20,
        kinds=("pca-spec", "pca-envimg", "empirical"),
        pipelines=(("pca-spec", "nn-l1"), ("pca-envimg", "nn-l1"), ("empirical", "svm")),
        jobs=POOL_JOBS,
        similarity=True,
    ),
}


def _import_program():
    src = ROOT / "src"
    if not (src / "mdgest" / "__init__.py").is_file():
        sys.exit(f"no program source at {src / 'mdgest'}")
    sys.path.insert(0, str(src))
    import mdgest
    from mdgest import classify, envelope, features, harness, segmentation, simulate, subspace, tfr  # noqa: F401

    if Path(mdgest.__file__).resolve().parent != src / "mdgest":
        sys.exit(f"imported mdgest from {mdgest.__file__}, not from {src}")
    return mdgest


def _similarity_input(mdgest, table) -> dict:
    by_class = {}
    for lab, vec in zip(table.labels, table.vectors):
        by_class.setdefault(mdgest.simulate.GestureLabel(int(lab)), []).append(vec)
    return by_class


def run_round(mdgest, wl: Workload, ds, protocol) -> dict:
    """One round: extract, then evaluate every pipeline; times in seconds."""
    harness = mdgest.harness
    t0 = time.perf_counter()
    tables = harness.extract_features(ds.records, harness.PipelineConfig(), kinds=wl.kinds, jobs=wl.jobs)
    t1 = time.perf_counter()
    cms = {}
    for feats, clf in wl.pipelines:
        pipe = harness.PipelineConfig(features=feats, classifier=clf)
        cms[(feats, clf)] = harness.evaluate(ds, pipe, protocol, features_table=tables[feats])
    sim = None
    if wl.similarity:
        sim = mdgest.subspace.similarity_table(_similarity_input(mdgest, tables["pca-spec"]), d=SIMILARITY_DIM)
    t2 = time.perf_counter()
    return {"tables": tables, "cms": cms, "sim": sim, "extract_s": t1 - t0, "protocol_s": t2 - t1}


def check(mdgest, wl: Workload, ds, protocol, rounds) -> list[str]:
    """Every output check of the workload; returns the failures."""
    import numpy as np

    import checks

    harness, GestureLabel = mdgest.harness, mdgest.simulate.GestureLabel
    last = rounds[-1]
    tables, cms = last["tables"], last["cms"]
    labels = ds.labels()
    _, class_sizes = np.unique(labels, return_counts=True)
    n_classes = len(class_sizes)
    errs = []
    for kind, table in tables.items():
        errs += checks.finite(kind, table.vectors)
    for (feats, clf), cm in cms.items():
        name = f"{feats} {clf}"
        errs += checks.row_sums(name, cm.counts, class_sizes, protocol.trials, protocol.train_fraction)
        for other in rounds[:-1]:
            errs += checks.equal_counts(f"{name} (rounds)", cm.counts, other["cms"][(feats, clf)].counts)
    splits = [harness.split(labels, protocol, t) for t in range(protocol.trials)]
    tr0, te0 = splits[0]

    if "envelope" in tables:
        env = tables["envelope"].vectors
        errs += checks.envelope_signs(env)
        l1 = cms[("envelope", "nn-l1")]
        errs += checks.at_least("envelope nn-l1", l1.overall_accuracy, ENVELOPE_L1_FLOOR)
        errs += checks.equal_counts("envelope nn-l1", l1.counts, checks.nn_l1_counts(env, labels, splits))
        mhd_acc = cms[("envelope", "nn-mhd")].per_trial_accuracy[0]
        errs += checks.mhd_trial(checks.envelope_points(env), labels, tr0, te0, mhd_acc)
    defaults = harness.PipelineConfig()
    if "trajectory" in tables:
        errs += checks.trajectories(tables["trajectory"].trajectories, defaults.trajectory_points)
        acc = cms[("trajectory", "nn-mhd")].overall_accuracy
        errs += checks.above_chance("trajectory nn-mhd", acc, n_classes, TRAJECTORY_MARGIN)
    if wl.similarity:
        by_class = _similarity_input(mdgest, tables["pca-spec"])
        by_class[GestureLabel.STOP_SIGN] = [v.copy() for v in by_class[GestureLabel.PUSH_PULL]]
        dup = mdgest.subspace.similarity_table(by_class, d=SIMILARITY_DIM)
        i, j = dup.labels.index(GestureLabel.STOP_SIGN), dup.labels.index(GestureLabel.PUSH_PULL)
        errs += checks.similarity(last["sim"].values, float(dup.values[i, j]))
    if ("pca-spec", "nn-l1") in cms:
        acc0 = cms[("pca-spec", "nn-l1")].per_trial_accuracy[0]
        errs += checks.pca_trial(tables["pca-spec"].vectors, labels, tr0, te0, defaults.pca_dim, acc0)
    if ("empirical", "svm") in cms:
        errs += checks.above_chance("empirical svm", cms[("empirical", "svm")].overall_accuracy, n_classes, SVM_MARGIN)
    if wl.jobs > 1:
        subset = [int(i) for c in np.unique(labels) for i in np.flatnonzero(labels == c)[:JOBS_CHECK_PER_CLASS]]
        single = harness.extract_features(
            [ds.records[i] for i in subset], harness.PipelineConfig(), kinds=wl.kinds, jobs=1
        )
        for kind in wl.kinds:
            errs += checks.rows_equal(kind, single[kind].vectors, tables[kind].vectors[subset])
    return errs


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    # Before numpy is first imported, so that its BLAS reads them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    mdgest = _import_program()
    uninstall = None
    if args.trace:
        import tracer

        spans = tracer.Tracer()
        uninstall = tracer.install(spans, mdgest)

    ds = mdgest.simulate.generate_dataset(wl.per_class, base_seed=args.seed)
    setup_s = time.perf_counter() - _T_START
    protocol = mdgest.harness.EvalProtocol(seed=args.seed)  # 20 trials of 70/30 splits
    print(f"{args.workload}: {len(ds)} records, set-up {setup_s:.2f} s", file=sys.stderr)

    rounds = []
    t_measure = time.perf_counter()
    while True:
        t = time.perf_counter()
        rounds.append(run_round(mdgest, wl, ds, protocol))
        last_s = time.perf_counter() - t
        print(f"round {len(rounds)}: {last_s:.2f} s", file=sys.stderr)
        if time.perf_counter() - t_measure + last_s > args.seconds:
            break
    rss = peak_rss_mb()
    if uninstall is not None:
        uninstall()

    for (feats, clf), cm in rounds[-1]["cms"].items():
        print(f"{feats} {clf}: {cm.overall_accuracy:.2f}%", file=sys.stderr)
    t_check = time.perf_counter()
    errs = check(mdgest, wl, ds, protocol, rounds)
    print(f"checks: {time.perf_counter() - t_check:.2f} s", file=sys.stderr)
    for e in errs:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    ops_per_round = len(ds) + protocol.trials * len(wl.pipelines)
    values = {
        "setup_s": setup_s,
        "extract_ms_per_record": statistics.median(1e3 * r["extract_s"] / len(ds) for r in rounds),
        "protocol_s": statistics.median(r["protocol_s"] for r in rounds),
        "peak_rss_mb": rss,
    }
    end_to_end = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    if args.trace:
        metrics = tracer.per_layer_metrics(spans.spans)
        table = tracer.layer_table(spans.spans)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "rounds": len(rounds),
                    "end_to_end_traced": end_to_end,
                    "per_layer": metrics,
                    "layers": table,
                    "spans": spans.spans,
                },
                fh,
            )
        print(f"wrote {path.relative_to(ROOT)}; busiest spans:", file=sys.stderr)
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["total_ms"])[:12]:
            print(f"  {name:36s} {row['calls']:6d} calls {row['ms']:10.3f} ms {row['self_ms']:10.3f} self ms", file=sys.stderr)
    else:
        metrics = end_to_end
    result = {
        "correct": not errs,
        "attempted": ops_per_round * len(rounds),
        "failed": 0,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
