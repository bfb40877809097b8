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
channel and then the estimates of each draw in turn.

A complex quantity is a real float64 array whose axis 0 holds its real
and imaginary parts, and whose last axis, C-contiguous, runs over the
draws: the channels are ``h[c, i, k, d]``, the estimates
``h_hat[c, j, i, k, d]``.  That is the normals' column order, transposed.
A single draw is a batch of one, and a draw's value does not depend on
the batch it is made in.
"""

from __future__ import annotations

import math

import numpy as np

from .topology import CsitQuality, Topology

__all__ = ["NORMALS_PER_DRAW", "sample_channel", "sample_csit"]

NORMALS_PER_DRAW = 24


def _crandn(z: np.ndarray, *shape: int) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussians (2, *shape, draws)
    from the columns ``z`` (draws, 2 * prod(shape)): real parts, then imaginary."""
    # A contiguous copy, not a ``z.T`` view: ufuncs keep their input's
    # memory order, so a view would carry draw-first strides throughout.
    # numpy's complex division by sqrt(2) multiplies by this rounded
    # reciprocal, so each part is that of (re + 1j*im) / sqrt(2), bit for bit.
    return np.ascontiguousarray(z.T).reshape(2, *shape, len(z)) * (1.0 / math.sqrt(2.0))


def sample_channel(topology: Topology, p: float, z: np.ndarray) -> np.ndarray:
    """Channels ``h[c, i, k, d]`` (TX k -> RX i) from the normals ``z`` (draws, 24)."""
    scale = np.sqrt(p ** (topology.gamma - 1.0))
    return scale[..., None] * _crandn(z[:, 0:8], 2, 2)


def sample_csit(
    h: np.ndarray,
    topology: Topology,
    csit: CsitQuality,
    p: float,
    z: np.ndarray,
) -> np.ndarray:
    """Both transmitters' estimates ``h_hat[c, j, i, k, d]`` of the channels ``h``.

    ``z`` is the same (draws, 24) array the channels were made from.
    """
    err_scale = np.sqrt(p ** (-csit.alpha)) * np.sqrt(p ** (topology.gamma - 1.0))
    return h[:, None] + err_scale[..., None] * _crandn(z[:, 8:24], 2, 2, 2)
