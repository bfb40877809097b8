"""The pinned bytes hold at a lower CPU dispatch level than the host's best.

numpy picks some ufuncs' code at run time from the dispatch targets the
CPU offers above its build's baseline (x86-64-v2 on x86-64).  At
X86_V4, ``np.log2`` runs numpy's own code and below it libm's, so a
sweep's per-draw sums can differ in their last bits between levels.
The pinned CSV, JSON and closed-form bytes must not.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_umath = pytest.importorskip("numpy._core._multiarray_umath")

ROOT = Path(__file__).resolve().parents[1]
PIN_FILES = ("test_sweep_pins.py", "test_golden.py", "test_closed_form_pins.py", "test_signed_zero_pins.py")

# The dispatch targets this process runs with: all lie above the baseline.
TARGETS = [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)]


@pytest.mark.skipif(not TARGETS, reason="no dispatch target above numpy's baseline to turn off")
def test_pins_hold_with_every_dispatch_target_off():
    paths = [str(ROOT / "tests" / name) for name in PIN_FILES]
    code = f"""
import sys, pytest
from numpy._core import _multiarray_umath as m
assert not any(m.__cpu_features__[t] for t in {TARGETS!r})
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *{paths!r}]))
"""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(TARGETS))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
