"""Short benchmark runs: a traced desk workload and an untraced FB15k-237-shaped one.

The traced run wraps functions of the program by name and checks every
loop's outputs (the optimizer step counts included), so a renamed wrapped
function or a changed tree batching schedule fails here. The untraced
``fb237-rank`` run checks the same step counts, softmax sums and reports on
the workload whose training batches repeat queries most.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(*argv):
    """One ``bench/run.py`` round; returns its result line and all output lines."""
    cmd = [sys.executable, "bench/run.py", *argv, "--seed", "1", "--seconds", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def assert_correct(result, lines):
    assert result["correct"] is True, [line for line in lines if line.startswith("check failed:")]
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_traced_desk_loop_runs_correct():
    assert_correct(*run_bench("--workload", "desk-loop", "--trace", "1"))


def test_untraced_fb237_rank_runs_correct():
    result, lines = run_bench("--workload", "fb237-rank")
    assert_correct(result, lines)
