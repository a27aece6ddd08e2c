"""Print a sha256 fingerprint of every feature table mdgest extracts.

Run it in two checkouts and compare the output: equal lines mean equal
table bytes.  Nothing is stored; only the hashes are printed.

    PYTHONPATH=src python3 tools/fingerprint.py --per-class 20 --seed 0

The corpus is ``generate_dataset(per_class, base_seed=seed)``.  Every
feature kind is extracted in one pass per setting of ``recenter`` (on,
off) and of the worker count (``--jobs``, 1 and 2 by default).  Each
line names the setting and the kind, then the sha256 of the table's
dtype, shape and bytes; a trajectory table adds each record's
normalized point set the same way.  The BLAS thread count is the
process's own (set ``OPENBLAS_NUM_THREADS`` to vary it).
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from mdgest import harness, simulate


def table_hash(table: harness.FeatureTable) -> str:
    h = hashlib.sha256()
    for arr in [table.vectors, *(table.pointsets or [])]:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def fingerprints(records, jobs=(1, 2)):
    """(recenter, jobs, kind, hash) for every table of every setting."""
    for recenter in (True, False):
        pipe = harness.PipelineConfig(recenter=recenter)
        for n in jobs:
            tables = harness.extract_features(records, pipe, kinds=harness.FEATURE_KINDS, jobs=n)
            for kind in harness.FEATURE_KINDS:
                yield recenter, n, kind, table_hash(tables[kind])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--per-class", type=int, default=20, help="records per gesture class")
    p.add_argument("--seed", type=int, default=0, help="base seed of the corpus")
    p.add_argument("--jobs", type=int, nargs="+", default=[1, 2], help="worker counts to run")
    args = p.parse_args(argv)
    records = simulate.generate_dataset(args.per_class, base_seed=args.seed).records
    corpus = f"per_class={args.per_class} seed={args.seed}"
    for recenter, jobs, kind, digest in fingerprints(records, args.jobs):
        print(f"{corpus} recenter={recenter} jobs={jobs} {kind} {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
