"""Shared helpers for the test suite."""

from apzf import CsitQuality, Topology
from apzf.topology import dyadic_instance  # noqa: F401  (shared by the test modules)


def reference_instance():
    """The symmetric benchmark configuration used throughout the tests:
    unit direct links, 0.8 cross links, TX 1 quality 0.5, TX 2 quality 0."""
    return Topology.parallel(0.8), CsitQuality.uniform(0.5, 0.0)


# Each case must be a ConfigError, so the CLI exits with code 2 (see
# tests/test_cli.py), never a traceback or the self-check failure code 1.
BAD_CONFIG_VALUES = {
    "snr-nan": ("snr_db", [40.0, float("nan")]),
    "snr-inf": ("snr_db", [40.0, float("inf")]),
    "snr-minus-inf": ("snr_db", [float("-inf"), 40.0]),
    "snr-power-overflows": ("snr_db", [40.0, 4000.0]),
    "snr-power-underflows": ("snr_db", [-4000.0, 40.0]),
    "snr-same-millidb-key": ("snr_db", [40.0, 40.0004]),
    "draws-fractional": ("draws", 2.7),
    "draws-bool": ("draws", True),
    "draws-above-one-index-word": ("draws", 2**32 + 1),
    "seed-fractional": ("seed", 7.5),
    "seed-bool": ("seed", True),
    "workers-fractional": ("workers", 1.5),
    "workers-bool": ("workers", True),
    "schemes-duplicated": ("schemes", ["apzf", "apzf"]),
}
