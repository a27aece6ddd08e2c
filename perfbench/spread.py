"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload envelope-nn --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, from the root of the
checkout, and prints per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the distance
between the quartiles as a share of the median.  The runs' result
lines and the summary are also written to
``perfbench-out/spread-<workload>-trace<t>.json``, and each run's
standard error (accuracies, check failures) to a ``.log`` beside it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out_dir = ROOT / "perfbench-out"
    out_dir.mkdir(exist_ok=True)
    results = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        (out_dir / f"spread-{args.workload}-trace{args.trace}-seed{seed}.log").write_text(proc.stderr)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        brief = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items() if not k.startswith("classify"))
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {brief}", flush=True)

    summary = summarise(results)
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:.4g} {s['unit']}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  "
              f"iqr/median {s['iqr_share']:.3f}")
    path = out_dir / f"spread-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds, "results": results,
                                "summary": summary}, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
