"""The table fingerprint tool: one line per setting and kind, and hashes
that follow the bytes of a table."""

import importlib.util
from pathlib import Path

import numpy as np

from mdgest.harness import FEATURE_KINDS, FeatureTable

_PATH = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
_spec = importlib.util.spec_from_file_location("fingerprint", _PATH)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def test_prints_one_hash_per_setting_and_kind(capsys):
    assert fingerprint.main(["--per-class", "1", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * 2 * len(FEATURE_KINDS)
    hashes = {}
    for line in lines:
        corpus, seed, recenter, jobs, kind, digest = line.split()
        assert (corpus, seed) == ("per_class=1", "seed=3") and len(digest) == 64
        hashes[recenter, jobs, kind] = digest
    for recenter in ("recenter=True", "recenter=False"):
        for kind in FEATURE_KINDS:
            assert hashes[recenter, "jobs=1", kind] == hashes[recenter, "jobs=2", kind]
        # pca-env reads the envelope row; recentring moves it
        assert hashes[recenter, "jobs=1", "pca-env"] == hashes[recenter, "jobs=1", "envelope"]
    assert hashes["recenter=True", "jobs=1", "envelope"] != hashes["recenter=False", "jobs=1", "envelope"]


def test_hash_covers_dtype_shape_bytes_and_point_sets():
    labels = np.zeros(2, int)
    vectors = np.arange(6, dtype=np.float32).reshape(2, 3)
    base = fingerprint.table_hash(FeatureTable("envelope", labels, vectors))
    changed = [
        FeatureTable("envelope", labels, vectors.astype(np.float64)),
        FeatureTable("envelope", labels, vectors.reshape(3, 2)),
        FeatureTable("envelope", labels, vectors + np.float32(1e-6)),
        FeatureTable("trajectory", labels, vectors, pointsets=[np.zeros((1, 2))] * 2),
    ]
    assert len({base, *(fingerprint.table_hash(t) for t in changed)}) == 1 + len(changed)
    assert fingerprint.table_hash(FeatureTable("pca-env", labels, vectors.copy())) == base
