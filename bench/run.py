"""The cqakit benchmark: one generate → train → eval loop per workload.

    python3 bench/run.py --workload desk-loop --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The BLAS pool size is pinned through the environment before numpy
loads, so it is never inherited. The run builds its inputs from ``--seed``,
sets the graph up a few times, then runs whole loops until ``--seconds``
have passed, checking every loop's outputs against computations made apart
from the program. End-to-end times are scaled to the speed of a reference
task timed between the stages (``speed.py``). The last line of standard
output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones from a traced run).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Why each workload exists is written in BENCHMARK.json and README.md.
WORKLOADS = {
    "desk-loop": dict(
        graph="uniform", entities=100, relations=10, split=(400, 50, 50),
        setups=10, setup_every_round=True, epochs=2,
        train_types="fol", train_pool=50, train_pairs=2,
        eval_types="fol", eval_pool=16, eval_per_type=True, eval_count=1, eval_size=2,
    ),
    "fb237-rank": dict(
        graph="zipf", entities=14505, relations=237, split=(272115, 17535, 20466),
        setups=2, setup_every_round=False, epochs=1,
        # small answer sets, so training pairs can be filled to an exact count
        train_types=("(p,(e))", "(i,(p,(e)),(p,(e)))", "(i,(p,(e)),(p,(p,(e))))"),
        train_pool=40, train_pairs=48,
        # types whose answer sets reach thousands of entities on the skewed graph
        eval_types=(
            "(p,(p,(p,(e))))",
            "(p,(u,(p,(e)),(p,(p,(e)))))",
            "(i,(n,(p,(p,(e)))),(p,(p,(p,(e)))))",
            "(u,(p,(e)),(p,(p,(e))))",
            "(u,(p,(p,(e))),(p,(p,(e))))",
            "(u,(p,(p,(p,(e)))),(p,(p,(p,(e)))))",
            "(i,(n,(p,(e))),(p,(u,(p,(e)),(p,(p,(e))))))",
            "(u,(p,(p,(e))),(p,(u,(p,(p,(e))),(p,(p,(e))))))",
        ),
        eval_pool=30, eval_per_type=False, eval_count=8, eval_size=500,
    ),
}
# One BLAS thread: at FB15k-237 shape and d=64 an LSTM step took 0.21 s on
# one thread and 0.53 s on two.
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas() -> None:
    """Set the BLAS pool size in the environment; numpy must not be loaded yet."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS pool size was pinned")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import cqakit from this checkout's ``src/``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cqakit", "__init__.py")):
        raise SystemExit(f"bench: no cqakit sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import cqakit

    if os.path.dirname(os.path.dirname(os.path.abspath(cqakit.__file__))) != src:
        raise SystemExit(f"bench: imported cqakit from {cqakit.__file__}, not from {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    pin_blas()
    import_program()
    import loop  # imports numpy and cqakit, so only after pinning

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = loop.run(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stamp = environment(args, loop.blas_runtime_threads())
    print("env " + json.dumps(stamp, sort_keys=True))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    metrics = result["trace"] if args.trace else result["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def environment(args, runtime_threads) -> dict:
    import numpy as np

    rev = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or rev
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_rev": rev,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "blas_threads_runtime": runtime_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


if __name__ == "__main__":
    sys.exit(main())
