"""The benchmark's self-tests (perfbench/tests), which pin the names and
passes its tracer finds in src/. They run in a subprocess: their conftest.py
and this suite's collide when one pytest run collects both directories."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "pytest", "perfbench/tests", "-q"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
