"""End-to-end acceptance gate.

Each test covers one numbered criterion and reports exactly one
PASS/FAIL line through the terminal-summary hook in conftest.  The
720-record corpus and its feature tables, from one extraction pass, are
module scoped so they are built once and shared by the classification
criteria.

Run just this gate with ``pytest -m acceptance``.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import note_criterion
from mdgest.features import trajectory
from mdgest.harness import EvalProtocol, PipelineConfig, evaluate, extract_features
from mdgest.segmentation import segment_record
from mdgest.simulate import GestureLabel, SimConfig, generate_dataset, simulate_record
from mdgest.subspace import canonical_correlations, similarity_table
from mdgest.tfr import Spectrogram

from test_classify import dist, emd_lp_oracle
from test_features import greedy_oracle
from test_subspace import eigen_oracle, random_subspace

pytestmark = pytest.mark.acceptance

PKG_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def corpus():
    """The default 720-record corpus plus its build time."""
    t0 = time.perf_counter()
    ds = generate_dataset(120)
    return {"ds": ds, "gen_s": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def corpus_tables(corpus):
    """Every kind but pca-env from one pipeline pass, plus its time."""
    t0 = time.perf_counter()
    tables = extract_features(
        corpus["ds"].records,
        PipelineConfig(),
        kinds=("envelope", "empirical", "trajectory", "pca-spec", "pca-envimg"),
    )
    return {"tables": tables, "extract_s": time.perf_counter() - t0}


def test_criterion_1_property_suite():
    """The invariant suite passes, as a fresh run, inside its time budget."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "prop", "-q", "-p", "no:cacheprovider"],
        cwd=PKG_ROOT,
        capture_output=True,
        text=True,
    )
    wall = time.perf_counter() - t0
    ok = proc.returncode == 0 and wall < 60.0
    note_criterion(1, ok, f"property suite rc={proc.returncode} in {wall:.1f} s, budget 60 s")
    assert ok, proc.stdout[-2000:]


def test_criterion_2_oracle_agreement():
    """Closed forms agree with their independent brute-force twins."""
    rng = np.random.default_rng(20260823)

    worst_emd = 0.0
    for trial in range(100):
        if trial % 2:
            a, b = rng.uniform(0.0, 1.0, size=8), rng.uniform(0.0, 1.0, size=8)
        else:
            a, b = rng.normal(size=8), rng.normal(size=8)
        worst_emd = max(worst_emd, abs(dist(a, b, "emd") - emd_lp_oracle(a, b)))

    worst_cca = 0.0
    for _ in range(30):
        ambient = int(rng.integers(8, 41))
        da = int(rng.integers(1, min(ambient, 12) + 1))
        db = int(rng.integers(da, min(ambient, 15) + 1))
        a = random_subspace(rng, ambient, da)
        b = random_subspace(rng, ambient, db)
        err = np.abs(canonical_correlations(a, b) - eigen_oracle(a, b))
        worst_cca = max(worst_cca, float(err.max()))

    traj_exact = 0
    for trial in range(20):
        n_r = int(rng.integers(16, 48))
        n_c = int(rng.integers(10, 36))
        power = rng.uniform(0.0, 1.0, size=(n_r, n_c))
        if trial % 4 == 0:
            power[rng.uniform(size=power.shape) < 0.7] = 0.0  # force padding
        time_s = np.arange(n_c) * 0.04
        freq_hz = np.linspace(-640.0, 640.0, n_r)
        band = None if trial % 3 == 0 else (20.0, 500.0)
        got = trajectory(
            Spectrogram(power=power, time_s=time_s, freq_hz=freq_hz),
            n_points=10,
            band_hz=band,
        )
        exp_pts, exp_pad = greedy_oracle(power, time_s, freq_hz, 10, band, (5, 3))
        if np.array_equal(got.points, exp_pts) and got.padded == exp_pad:
            traj_exact += 1

    ok = worst_emd <= 1e-9 and worst_cca <= 1e-8 and traj_exact == 20
    note_criterion(
        2,
        ok,
        f"emd vs transport LP max err {worst_emd:.1e} (tol 1e-9); "
        f"canonical correlations vs eigen oracle max err {worst_cca:.1e} (tol 1e-8); "
        f"trajectory exact on {traj_exact}/20 matrices",
    )
    assert ok


def test_criterion_3_protocol_accuracy(corpus, corpus_tables):
    """Envelope nearest neighbor clears the floor and beats both baselines."""
    ds = corpus["ds"]
    tables = corpus_tables["tables"]
    proto = EvalProtocol()
    spent = corpus["gen_s"] + corpus_tables["extract_s"]

    accs = {}
    runs = [
        ("envelope", "nn-l1"),
        ("envelope", "nn-l2"),
        ("envelope", "nn-emd"),
        ("envelope", "nn-mhd"),
        ("empirical", "nn-l1"),
        ("trajectory", "nn-mhd"),
    ]
    for feat, clf in runs:
        t0 = time.perf_counter()
        cm = evaluate(
            ds,
            PipelineConfig(features=feat, classifier=clf),
            proto,
            features_table=tables[feat],
        )
        spent += time.perf_counter() - t0
        accs[(feat, clf)] = cm.overall_accuracy

    nn1 = accs[("envelope", "nn-l1")]
    checks = [
        nn1 >= 90.0,
        nn1 >= accs[("envelope", "nn-l2")] - 2.0,
        nn1 >= accs[("envelope", "nn-emd")] - 2.0,
        nn1 >= accs[("envelope", "nn-mhd")] - 2.0,
        accs[("empirical", "nn-l1")] <= nn1 - 10.0,
        accs[("trajectory", "nn-mhd")] <= nn1 - 10.0,
        spent < 300.0,
    ]
    detail = (
        f"envelope nn-l1 {nn1:.2f}% (floor 90); "
        f"l2/emd/mhd {accs[('envelope', 'nn-l2')]:.2f}/"
        f"{accs[('envelope', 'nn-emd')]:.2f}/{accs[('envelope', 'nn-mhd')]:.2f}; "
        f"empirical {accs[('empirical', 'nn-l1')]:.2f} and trajectory "
        f"{accs[('trajectory', 'nn-mhd')]:.2f} vs ceiling {nn1 - 10.0:.2f}; "
        f"{spent:.0f} s of 300"
    )
    note_criterion(3, all(checks), detail)
    assert all(checks), detail


def test_criterion_4_image_subspace_gap(corpus, corpus_tables):
    """Envelope images track spectrogram images under the same splits."""
    accs = {}
    for feat in ("pca-spec", "pca-envimg"):
        cm = evaluate(
            corpus["ds"],
            PipelineConfig(features=feat, classifier="nn-l1"),
            EvalProtocol(),
            features_table=corpus_tables["tables"][feat],
        )
        accs[feat] = cm.overall_accuracy
    gap = abs(accs["pca-envimg"] - accs["pca-spec"])
    ok = gap <= 5.0
    note_criterion(
        4,
        ok,
        f"spectrogram image {accs['pca-spec']:.2f}% vs envelope image "
        f"{accs['pca-envimg']:.2f}%, gap {gap:.2f} (cap 5)",
    )
    assert ok


def test_criterion_5_similarity_table(corpus, corpus_tables):
    """Unit diagonal, strict off-diagonal, and a duplicate-class control."""
    by_class = {}
    for rec, vec in zip(corpus["ds"].records, corpus_tables["tables"]["pca-spec"].vectors):
        by_class.setdefault(rec.label, []).append(vec)

    tab = similarity_table(by_class, d=10)
    diag_err = float(np.abs(np.diag(tab.values) - 1.0).max())
    off = tab.values[~np.eye(len(tab.labels), dtype=bool)]

    doctored = dict(by_class)
    doctored[GestureLabel.STOP_SIGN] = [v.copy() for v in by_class[GestureLabel.PUSH_PULL]]
    tab2 = similarity_table(doctored, d=10)
    i = tab2.labels.index(GestureLabel.STOP_SIGN)
    j = tab2.labels.index(GestureLabel.PUSH_PULL)
    dup_err = abs(tab2.values[i, j] - 1.0)

    ok = diag_err <= 1e-9 and float(off.max()) < 1.0 and dup_err <= 1e-9
    note_criterion(
        5,
        ok,
        f"diagonal err {diag_err:.1e} (tol 1e-9); max off-diagonal "
        f"{off.max():.4f} (< 1); duplicated-class pair err {dup_err:.1e}",
    )
    assert ok


def test_criterion_6_segmentation_accuracy():
    """Burst-curve onsets and offsets land within 0.05 s at 10 dB."""
    n_per = {0: 17, 1: 17, 2: 17, 3: 17, 4: 16, 5: 16}
    angles = (-20.0, -10.0, 0.0, 10.0, 20.0)
    hits = total = 0
    for lab in GestureLabel:
        for rep in range(n_per[int(lab)]):
            cfg = SimConfig(
                seed=9000 + 211 * int(lab) + rep,
                snr_db=10.0,
                speed="slow" if rep % 2 else "normal",
                angle_deg=angles[rep % 5],
            )
            rec = simulate_record(lab, cfg)
            total += 1
            best = None
            for iv in segment_record(rec):
                ov = min(iv.end_s, rec.active_s[1]) - max(iv.start_s, rec.active_s[0])
                if best is None or ov > best[0]:
                    best = (ov, iv)
            if best is None:
                continue
            iv = best[1]
            if (
                abs(iv.start_s - rec.active_s[0]) <= 0.05
                and abs(iv.end_s - rec.active_s[1]) <= 0.05
            ):
                hits += 1
    ok = total == 100 and hits >= 95
    note_criterion(6, ok, f"onset and offset within 0.05 s on {hits}/{total} records (floor 95)")
    assert ok


def test_criterion_7_cli_determinism(tmp_path):
    """Same seed, different --jobs: the written reports match byte for byte."""

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "mdgest.cli", *args],
            cwd=PKG_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]

    ds_dir = tmp_path / "ds"
    run(["simulate", "--out", str(ds_dir), "--per-class", "12"])

    reports = []
    for jobs in (1, 2):
        oj = tmp_path / f"report_j{jobs}.json"
        oc = tmp_path / f"report_j{jobs}.csv"
        run(
            [
                "--jobs", str(jobs),
                "eval",
                "--in", str(ds_dir),
                "--trials", "5",
                "--out-json", str(oj),
                "--out-csv", str(oc),
            ]
        )
        reports.append((oj.read_bytes(), oc.read_bytes()))

    ok = reports[0] == reports[1]
    note_criterion(7, ok, "reports byte-identical across --jobs 1 and --jobs 2" if ok
                   else "reports differ between --jobs 1 and --jobs 2")
    assert ok
