"""Run the benchmark's own self-test, so that a change to ``src/`` that
breaks the benchmark (a renamed, removed or re-wrapped public function, an
import site its tracer pins) fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
