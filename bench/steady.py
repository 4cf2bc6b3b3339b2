"""Steadiness check: run one workload on several seeds and compare spreads.

    python3 bench/steady.py --workload fb237-rank --seeds 1-10
    python3 bench/steady.py --workload desk-loop --seeds 1-5 --trace

Each run is a fresh ``bench/run.py`` process. For every end-to-end metric
this prints the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json; a spread above a third of its bound is marked. ``setup_s``
has no spread gate, only its bound on the median. With ``--trace`` it also
makes one traced run per seed and prints per-layer medians and the tracing
overhead on ``loop_s`` (traced median minus untraced median).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q1, med, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in seeds_of(args.seeds):
        start = time.perf_counter()
        out = run_once(args.workload, seed, seconds, 0)
        runs.append(out)
        share = out["failed"] / out["attempted"]
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
        print(f"seed {seed} ({time.perf_counter() - start:.0f} s): correct={out['correct']} attempted={out['attempted']} "
              f"failed={out['failed']} ({share:.4%}) {values}", flush=True)

    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    medians = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = summary(values)
        medians[name] = med
        spread = (q3 - q1) / med
        flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
        unit = runs[0]["metrics"][name]["unit"]
        print(f"{name + ' [' + unit + ']':40} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound:6.2f}{flag}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}  all correct: {all(r['correct'] for r in runs)}")

    if args.trace:
        traced = [run_once(args.workload, seed, seconds, 1) for seed in seeds_of(args.seeds)]
        print(f"\nper-layer medians over {len(traced)} traced runs")
        for name in traced[0]["metrics"]:
            values = [t["metrics"][name]["value"] for t in traced]
            q1, med, q3 = summary(values)
            print(f"{name:45} {med:12.5g} {traced[0]['metrics'][name]['unit']}")
        overhead = statistics.median(t["metrics"]["trace.loop_s"]["value"] for t in traced) - medians["loop_s"]
        print(f"tracing overhead on loop_s: {overhead:+.3f} s ({overhead / medians['loop_s']:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
