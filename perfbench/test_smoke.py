"""The benchmark's own test: tiny inputs on every workload.

Run with ``python -m pytest perfbench -q`` from the repository root.
Asserts that every metric declared in ``BENCHMARK.json`` is emitted with
its unit and that no workload has a failed operation.
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_emits_every_metric_without_failures():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    assert done.stdout.strip().endswith("smoke ok")
