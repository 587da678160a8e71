"""The shared smoke check must gate even under ``python -O``.

``python -O`` strips ``assert`` statements, so a gate written as an
assert would pass silently there. :func:`repro.smoke.check` raises
explicitly; this runs it in an optimized interpreter to prove it.
"""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))


def test_check_raises_under_python_O():
    # The leading assert proves -O is in effect: it must be stripped,
    # leaving check() as the statement that fails.
    code = ("assert False, 'assert statements ran'\n"
            "from repro.smoke import check\n"
            "check(False, 'still gated')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "ReproError: smoke check failed: still gated" in proc.stderr
