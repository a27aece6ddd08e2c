"""Spans for the traced run, recorded from outside the program.

``install`` replaces the public functions of every mdgest layer module
with thin wrappers, so each call records a span: name, start, end, the
span that caused it, and the process.  Nothing under ``src/`` changes;
the wrappers are removed again by the function ``install`` returns.

Spans stay in memory until the run writes them out.  Records extracted
in ``harness.extract_features``' fork pool are traced in the worker;
their spans travel back to the parent with the record's features (see
``_Carrier``), so the worker side reaches the trace as well.

``layer_table`` turns the spans into per-layer numbers.  A span's self
time is its duration minus the part of its interval that its direct
child spans cover, computed from the span tree.
"""

from __future__ import annotations

import inspect
import itertools
import os
import time

LAYERS = ("simulate", "tfr", "segmentation", "envelope", "features", "classify", "subspace", "harness")

# Span name of one record's feature computation (harness._record_features).
RECORD_SPAN = "harness.record"


class Tracer:
    """In-memory span recorder for one process (and its forked workers)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.owner_pid = os.getpid()
        self._stack: list[str] = []
        self._ids = itertools.count()

    def call(self, name, fn, args, kwargs, annotate=None):
        sid = f"{os.getpid()}.{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            span = {"id": sid, "parent": parent, "name": name, "t0": t0, "t1": t1, "pid": os.getpid()}
            self.spans.append(span)
        if annotate is not None:
            span.update(annotate(result, args, kwargs))
        return result


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _spectrogram_attrs(result, args, kwargs):
    return {"power_mb": result.power.nbytes / 1e6}


def _detect_attrs(result, args, kwargs):
    return {"intervals": len(result)}


def _extract_attrs(result, args, kwargs):
    jobs = _arg(args, kwargs, 3, "jobs") if len(args) > 3 or "jobs" in kwargs else 1
    return {"records": len(_arg(args, kwargs, 0, "records")), "jobs": jobs}


def _distance_kind(args, kwargs):
    kind = _arg(args, kwargs, 2, "kind")
    return str(getattr(kind, "value", kind)).lower()


# Extra facts recorded on a span from the call's arguments or result.
ANNOTATE = {
    "tfr.spectrogram": _spectrogram_attrs,
    "segmentation.detect": _detect_attrs,
    "harness.extract_features": _extract_attrs,
}

# Spans whose name carries an argument, e.g. classify.pairwise_distances.mhd.
NAME_SUFFIX = {"classify.pairwise_distances": _distance_kind}


def _wrap(tracer: Tracer, name: str, fn):
    annotate = ANNOTATE.get(name)
    suffix = NAME_SUFFIX.get(name)

    def traced(*args, **kwargs):
        full = f"{name}.{suffix(args, kwargs)}" if suffix else name
        return tracer.call(full, fn, args, kwargs, annotate)

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    traced.__doc__ = fn.__doc__
    return traced


class _Carrier(dict):
    """A worker's per-record features plus the spans recorded for them.

    Pickling it in the worker sends the spans along; unpickling it in
    the parent hands them to the parent's tracer and yields the plain
    features dict, so the harness sees exactly what it returned.
    """

    def __init__(self, features: dict, spans: list[dict]):
        super().__init__(features)
        self.spans = spans

    def __reduce__(self):
        return _deliver, (dict(self), self.spans)


# The tracer that receives worker spans.  Unpickling runs inside the
# executor's result handling, which has no reference to the caller's
# objects, so the receiver has to be found through the module.
_receiver: Tracer | None = None


def _deliver(features: dict, spans: list[dict]) -> dict:
    if _receiver is not None:
        _receiver.spans.extend(spans)
    return features


def _wrap_record(tracer: Tracer, fn):
    def traced(*args, **kwargs):
        mark = len(tracer.spans)
        result = tracer.call(RECORD_SPAN, fn, args, kwargs)
        if os.getpid() == tracer.owner_pid:
            return result
        spans = tracer.spans[mark:]
        del tracer.spans[mark:]
        return _Carrier(result, spans)

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer, package) -> callable:
    """Wrap every public function of each layer module of ``package``.

    Also wraps ``harness._record_features``, when the harness has it,
    as the per-record span that carries worker spans home.  Returns a
    function that restores the originals.
    """
    global _receiver
    originals = []
    for layer in LAYERS:
        mod = getattr(package, layer)
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            originals.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tracer, f"{layer}.{attr}", fn))
    record_fn = getattr(package.harness, "_record_features", None)
    if record_fn is not None:
        originals.append((package.harness, "_record_features", record_fn))
        package.harness._record_features = _wrap_record(tracer, record_fn)
    _receiver = tracer

    def uninstall():
        global _receiver
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)
        _receiver = None

    return uninstall


def _covered(t0: float, t1: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [t0, t1]."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[str, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {
        s["id"]: (s["t1"] - s["t0"]) - _covered(s["t0"], s["t1"], children.get(s["id"], ()))
        for s in spans
    }


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, and total, mean and mean self milliseconds."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_ms": 0.0, "self_total_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += 1e3 * (s["t1"] - s["t0"])
        row["self_total_ms"] += 1e3 * own[s["id"]]
    for row in table.values():
        row["ms"] = row["total_ms"] / row["calls"]
        row["self_ms"] = row["self_total_ms"] / row["calls"]
    return table


def no_burst_records(spans: list[dict]) -> int:
    """Records whose first burst detection found no motion interval."""
    first: dict[str, dict] = {}
    for s in spans:
        if s["name"] == "segmentation.detect" and s["parent"] is not None:
            prev = first.get(s["parent"])
            if prev is None or s["t0"] < prev["t0"]:
                first[s["parent"]] = s
    return sum(1 for s in first.values() if s["intervals"] == 0)


def pool_busy_share(spans: list[dict]) -> float:
    """Worker busy time over jobs x wall of the pooled extractions.

    Busy time is the summed duration of record spans recorded in worker
    processes; 0.0 when no extraction ran in a pool.
    """
    pooled = {s["id"]: s for s in spans if s["name"] == "harness.extract_features" and s["jobs"] > 1}
    capacity = sum(s["jobs"] * (s["t1"] - s["t0"]) for s in pooled.values())
    busy = sum(
        s["t1"] - s["t0"]
        for s in spans
        if s["name"] == RECORD_SPAN and s["parent"] in pooled and s["pid"] != pooled[s["parent"]]["pid"]
    )
    return busy / capacity if capacity > 0 else 0.0


def span_mean(spans: list[dict], name: str, key: str) -> float:
    vals = [s[key] for s in spans if s["name"] == name]
    return sum(vals) / len(vals) if vals else 0.0


# The per-layer metrics a traced run prints, with units.  Kinds:
# "ms" mean ms per call, "self_ms" mean self ms per call, "calls" call
# count, "calls_per_record" calls per extracted record.
PER_LAYER = (
    ("simulate.gesture_tracks", "ms"),
    ("simulate.synthesize", "ms"),
    ("tfr.spectrogram", "ms"),
    ("tfr.spectrogram", "calls_per_record"),
    ("tfr.spectrogram", "power_mb"),
    ("tfr.to_gray", "ms"),
    ("segmentation.pbc", "ms"),
    ("segmentation.pbc", "calls_per_record"),
    ("segmentation.detect", "ms"),
    ("segmentation.window", "ms"),
    ("segmentation", "no_burst_records"),
    ("envelope.extract", "ms"),
    ("envelope.envelope_image", "ms"),
    ("features.trajectory", "ms"),
    ("features.empirical", "ms"),
    ("features.central_trajectory", "ms"),
    ("features.central_trajectory", "calls"),
    ("classify.pairwise_distances.l1", "ms"),
    ("classify.pairwise_distances.l2", "ms"),
    ("classify.pairwise_distances.emd", "ms"),
    ("classify.pairwise_distances.mhd", "ms"),
    ("classify.mhd", "ms"),
    ("classify.mhd", "calls"),
    ("classify.fit_svm", "ms"),
    ("classify.svm_predict", "ms"),
    ("subspace.fit_pca", "ms"),
    ("subspace.project", "ms"),
    ("subspace.similarity_table", "ms"),
    ("harness.extract_features", "self_ms"),
    ("harness.evaluate", "self_ms"),
    ("harness.pool", "busy_share"),
)

UNITS = {
    "ms": "ms",
    "self_ms": "ms",
    "calls": "count",
    "calls_per_record": "calls/record",
    "power_mb": "MB",
    "no_burst_records": "count",
    "busy_share": "ratio",
}


def per_layer_metrics(spans: list[dict]) -> dict[str, dict]:
    """Every PER_LAYER metric by name, as {"value", "unit"}.

    A function the workload never calls reads 0.  Per-record counts
    divide by the records passed to ``harness.extract_features``.
    """
    table = layer_table(spans)
    records = sum(s["records"] for s in spans if s["name"] == "harness.extract_features")
    out = {}
    for name, kind in PER_LAYER:
        row = table.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        if kind in ("ms", "self_ms", "calls"):
            value = row[kind]
        elif kind == "calls_per_record":
            value = row["calls"] / records if records else 0.0
        elif kind == "power_mb":
            value = span_mean(spans, name, "power_mb")
        elif kind == "no_burst_records":
            value = no_burst_records(spans)
        else:
            value = pool_busy_share(spans)
        out[f"{name}.{kind}"] = {"value": value, "unit": UNITS[kind]}
    return out
