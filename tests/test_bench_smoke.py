"""One short traced benchmark run of the desk workload.

The traced run wraps functions of the program by name and checks every
loop's outputs (the optimizer step counts included), so a renamed wrapped
function or a changed tree batching schedule fails here.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_desk_loop_runs_correct():
    argv = ["bench/run.py", "--workload", "desk-loop", "--seed", "1", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, [line for line in lines if line.startswith("check failed:")]
    assert result["failed"] == 0
    assert result["attempted"] > 0
