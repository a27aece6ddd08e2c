"""Span tree arithmetic, worker spans, and agreement with BENCHMARK.json."""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

import mdgest
import run
import tracer
from mdgest import harness, simulate

ROOT = Path(__file__).resolve().parents[2]


def _span(sid, parent, name, t0, t1, pid=1, **attrs):
    return {"id": sid, "parent": parent, "name": name, "t0": t0, "t1": t1, "pid": pid, **attrs}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("r", None, "harness.extract_features", 0.0, 10.0, records=4, jobs=2),
        # two workers overlap on [2, 3]; a child may outlive its parent's clip
        _span("a", "r", tracer.RECORD_SPAN, 1.0, 3.0, pid=2),
        _span("b", "r", tracer.RECORD_SPAN, 2.0, 5.0, pid=3),
        _span("c", "r", tracer.RECORD_SPAN, 9.0, 11.0, pid=2),
        _span("g", "a", "tfr.spectrogram", 1.5, 2.0, pid=2),
    ]
    own = tracer.self_times(spans)
    assert own["r"] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own["a"] == pytest.approx(1.5)
    assert own["g"] == pytest.approx(0.5)
    # busy: 2 + 3 + 2 worker seconds over 2 jobs x 10 s
    assert tracer.pool_busy_share(spans) == pytest.approx(7.0 / 20.0)


def test_no_burst_counts_the_first_detection_of_each_record():
    spans = [
        _span("r1", None, tracer.RECORD_SPAN, 0.0, 1.0),
        _span("d1", "r1", "segmentation.detect", 0.1, 0.2, intervals=0),
        _span("d2", "r1", "segmentation.detect", 0.5, 0.6, intervals=1),
        _span("r2", None, tracer.RECORD_SPAN, 1.0, 2.0),
        _span("d3", "r2", "segmentation.detect", 1.1, 1.2, intervals=1),
        _span("d4", "r2", "segmentation.detect", 1.5, 1.6, intervals=0),
    ]
    assert tracer.no_burst_records(spans) == 1


def test_carrier_hands_spans_to_the_receiving_tracer():
    t = tracer.Tracer()
    uninstall = tracer.install(t, mdgest)
    try:
        sent = tracer._Carrier({"k": np.arange(3)}, [_span("x", None, "n", 0.0, 1.0)])
        got = pickle.loads(pickle.dumps(sent))
    finally:
        uninstall()
    assert type(got) is dict and got["k"].tolist() == [0, 1, 2]
    assert [s["id"] for s in t.spans] == ["x"]


def test_install_wraps_public_functions_and_uninstall_restores_them():
    before = {layer: dict(vars(getattr(mdgest, layer))) for layer in tracer.LAYERS}
    uninstall = tracer.install(tracer.Tracer(), mdgest)
    assert mdgest.tfr.spectrogram.__wrapped__ is before["tfr"]["spectrogram"]
    assert mdgest.harness._record_features is not before["harness"]["_record_features"]
    assert mdgest.tfr._resample_axis is before["tfr"]["_resample_axis"]
    uninstall()
    for layer in tracer.LAYERS:
        assert dict(vars(getattr(mdgest, layer))) == before[layer]


def test_worker_spans_reach_the_trace_and_features_are_unchanged():
    cfg = simulate.default_grid()[0]
    records = [
        simulate.simulate_record(label, cfg, record_id=str(i))
        for i, label in enumerate(list(simulate.GestureLabel)[:4])
    ]
    kinds = ("pca-spec", "empirical")
    plain = harness.extract_features(records, harness.PipelineConfig(), kinds=kinds, jobs=2)
    t = tracer.Tracer()
    uninstall = tracer.install(t, mdgest)
    try:
        traced = harness.extract_features(records, harness.PipelineConfig(), kinds=kinds, jobs=2)
    finally:
        uninstall()
    for k in kinds:
        assert np.array_equal(plain[k].vectors, traced[k].vectors)
    (root,) = [s for s in t.spans if s["name"] == "harness.extract_features"]
    per_record = [s for s in t.spans if s["name"] == tracer.RECORD_SPAN]
    assert len(per_record) == len(records)
    assert all(s["parent"] == root["id"] and s["pid"] != root["pid"] for s in per_record)
    metrics = tracer.per_layer_metrics(t.spans)
    assert metrics["tfr.spectrogram.calls_per_record"]["value"] == 2.0
    assert metrics["tfr.to_gray.ms"]["value"] > 0.0
    assert 0.0 < metrics["harness.pool.busy_share"]["value"] <= 1.0


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {f"{n}.{k}": tracer.UNITS[k] for n, k in tracer.PER_LAYER}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
