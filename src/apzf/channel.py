"""Fading draws and noisy per-transmitter channel estimates.

The receive model at nominal power P is y_i = h_i x + n_i with unit-power
noise; link (i, k) fades as CN(0, P**(gamma[i,k]-1)).  TX j observes

    h_hat[j][i, k] = h[i, k] + sqrt(P**(-alpha[j][i,k])) * e,
    e ~ CN(0, P**(gamma[i,k]-1)),

independent across transmitters and entries, so the estimation error sits
``alpha`` exponent levels below the link itself.

Every draw is made from one row of ``NORMALS_PER_DRAW`` standard normals:
columns 0-3 and 4-7 are the real and imaginary parts of the channel,
columns 8-15 and 16-23 those of the estimation errors.  A generator that
fills the rows in order yields the same draws as one that makes the
channel and then the estimates of each draw in turn.  Arrays carry a
leading draw axis; a single draw is a batch of one.
"""

from __future__ import annotations

import math

import numpy as np

from .topology import CsitQuality, Topology

__all__ = ["NORMALS_PER_DRAW", "sample_channel", "sample_csit"]

NORMALS_PER_DRAW = 24


def _crandn(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussians."""
    return (re + 1j * im) / math.sqrt(2.0)


def sample_channel(topology: Topology, p: float, z: np.ndarray) -> np.ndarray:
    """Channels ``h[d, i, k]`` (TX k -> RX i) from the normals ``z`` (draws, 24)."""
    scale = np.sqrt(p ** (topology.gamma - 1.0))
    return scale * _crandn(z[:, 0:4], z[:, 4:8]).reshape(-1, 2, 2)


def sample_csit(
    h: np.ndarray,
    topology: Topology,
    csit: CsitQuality,
    p: float,
    z: np.ndarray,
) -> np.ndarray:
    """Both transmitters' estimates ``h_hat[d, j]`` of the channels ``h``.

    ``z`` is the same (draws, 24) array the channels were made from.
    """
    err_scale = np.sqrt(p ** (-csit.alpha)) * np.sqrt(p ** (topology.gamma - 1.0))
    err = _crandn(z[:, 8:16], z[:, 16:24]).reshape(-1, 2, 2, 2)
    return h[:, np.newaxis, :, :] + err_scale * err
