"""The benchmark harness's own self-test, `python3 perfbench/selftest.py`.

It runs every workload on tiny instances, untraced and traced, so it also
runs the traced `kernel` spans, which the rest of the test suite does not.
It writes only into the git-ignored `.perfbench_out/`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "selftest passed" in done.stdout
