"""Shared helpers for the test suite."""

import os

import numpy as np
import pytest

import apzf.harness as harness
from apzf import CsitQuality, Topology
from apzf.checks import _complex as as_complex  # noqa: F401  (see as_kernel)


def reference_instance():
    """The symmetric benchmark configuration used throughout the tests:
    unit direct links, 0.8 cross links, TX 1 quality 0.5, TX 2 quality 0."""
    return Topology.parallel(0.8), CsitQuality.uniform(0.5, 0.0)


def dyadic_instance(rng: np.random.Generator, grid: int = 1024):
    """Random valid (topology, csit) on the 1/grid lattice with a dominant TX.

    Exponents that are exact binary fractions keep min/max branch
    selection and the closed-form identities exact in float64.  The
    ``dyadic`` and ``coarse`` digests of ``test_closed_form_pins`` and
    ``test_signed_zero_pins`` hash instances drawn from this, so its
    sequence of ``rng`` calls is part of what they pin.
    """
    gamma = rng.integers(0, grid + 1, size=(2, 2)) / grid
    hi = rng.integers(0, (gamma * grid).astype(int) + 1, size=(2, 2)) / grid
    lo = rng.integers(0, (hi * grid).astype(int) + 1, size=(2, 2)) / grid
    alpha = np.stack([hi, lo]) if rng.random() < 0.5 else np.stack([lo, hi])
    return Topology(gamma), CsitQuality(alpha)


@pytest.fixture
def small_pool(monkeypatch):
    """Let a sweep of a few chunks fork as many workers as it asks for,
    on a host of any CPU count."""
    monkeypatch.setattr(harness, "_POOL_MIN_EVALS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)


def as_kernel(c):
    """The kernel array of a complex array whose leading axis runs over draws.

    The kernel keeps a complex quantity as real float64 with (re, im) on
    axis 0 and the draws on the last axis; the tests state their
    expectations on plain complex arrays with a leading draw axis, and
    ``as_complex`` (the self-checks' converter) is the inverse of this.
    """
    c = np.moveaxis(np.asarray(c, dtype=complex), 0, -1)
    return np.ascontiguousarray(np.stack((c.real, c.imag)))


def assert_same_bits(got, ref):
    """``got`` equals ``ref`` in shape, dtype, value and the sign of every zero."""
    assert got.shape == ref.shape and got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


# Each case must be a ConfigError, so the CLI exits with code 2 and one
# short stderr line (see tests/test_cli.py), never a traceback or the
# self-check failure code 1.  The configs they go into have 3 SNR points
# and 2 schemes.
BAD_CONFIG_VALUES = {
    "snr-nan": ("snr_db", [40.0, float("nan")]),
    "snr-inf": ("snr_db", [40.0, float("inf")]),
    "snr-minus-inf": ("snr_db", [float("-inf"), 40.0]),
    "snr-power-overflows": ("snr_db", [40.0, 4000.0]),
    "snr-power-squared-overflows": ("snr_db", [40.0, 1600.0]),
    "snr-power-underflows": ("snr_db", [-4000.0, 40.0]),
    "draws-fractional": ("draws", 2.7),
    "draws-bool": ("draws", True),
    "draws-above-2-pow-32": ("draws", 2**32 + 1),
    "draws-over-the-sums-budget": ("draws", harness._SUMS_BYTES // (8 * 3 * 2) + 1),
    "seed-fractional": ("seed", 7.5),
    "seed-bool": ("seed", True),
    "workers-fractional": ("workers", 1.5),
    "workers-bool": ("workers", True),
    "schemes-duplicated": ("schemes", ["apzf", "apzf"]),
    "schemes-unknown": ("schemes", ["apzf", "dirty_paper"]),
    "schemes-nested-list": ("schemes", ["apzf", ["apzf"]]),
    "unknown-key": ("window", [45.0, 55.0]),
    "unknown-key-100k-chars": ("k" * 100_000, 1),
    "snr-100k-char-string": ("snr_db", [40.0, "x" * 100_000]),
    "schemes-50000-repeated": ("schemes", ["apzf"] * 50_000),
    # A mapping would be read as its keys, a string as its letters.
    "schemes-mapping": ("schemes", {"apzf": 1, "naive_zf": 2}),
    "schemes-string": ("schemes", "apzf"),
    # float() and np.asarray() would take each of these as numbers.
    "snr-digit-string": ("snr_db", "2468"),
    "snr-mapping": ("snr_db", {"40": 0, "50": 0, "60": 0}),
    "snr-number-strings": ("snr_db", ["40", "50", "60"]),
    "snr-bool": ("snr_db", [True, 40.0]),
    "window-digit-string": ("window_db", "46"),
    "window-bool": ("window_db", [True, 60]),
    "gamma-number-strings": ("gamma", [["1", "0.8"], ["0.8", "1"]]),
    "gamma-bool": ("gamma", [[True, 0.8], [0.8, 1.0]]),
    # float() raises OverflowError on these.
    "snr-int-past-float": ("snr_db", [40, 10**400]),
    "gamma-int-past-float": ("gamma", [[1, 10**400], [0.8, 1]]),
}
