"""The benchmark harness's self-test, run inside the suite.

It guards what the harness relies on in the library: the tracer can wrap
`cubicgaps.covers.search.is_planar`, `search_covers` returns a list, and
the planar rows of a search prefix match the shipped catalog.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
