"""The pinned bytes hold at a lower CPU dispatch level than the host's
best, and under every OpenBLAS kernel.

numpy picks some ufuncs' code at run time from the dispatch targets the
CPU offers above its build's baseline (x86-64-v2 on x86-64).  At
X86_V4, ``np.log2`` runs numpy's own code and below it libm's, so a
sweep's per-draw sums can differ in their last bits between levels.
The pinned CSV, JSON and closed-form bytes must not.  A DYNAMIC_ARCH
OpenBLAS likewise picks its kernels from the CPU, or from
``OPENBLAS_CORETYPE``; the slopes call no BLAS, so the pinned summaries
must not depend on that pick either.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_sweep_pins_hold_with_each_openblas_kernel(coretype):
    paths = [str(ROOT / "tests" / name) for name in ("test_sweep_pins.py", "test_golden.py")]
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *paths],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
