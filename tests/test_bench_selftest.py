"""The benchmark's self-test passes against the current sources.

perfbench looks lsnc functions up by name to time them, so a refactor that
renames or moves one breaks the benchmark without failing any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest ok" in proc.stdout
