"""The benchmark's self-tests pass against the source tree.

``benchmark/selftest.py`` checks that traced counts repeat, that tracing
does not perturb the iterates and that the benchmark's KKT check rejects a
perturbed solution; its tracer wraps the ADMM loop, so a change to the loop
can break it.  It takes a few seconds.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_selftest():
    proc = subprocess.run([sys.executable, str(ROOT / "benchmark" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-2000:]
