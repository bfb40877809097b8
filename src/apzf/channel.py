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
and imaginary parts, and whose last axis runs over the draws: the
channels are ``h[c, i, k, d]``, the estimates ``h_hat[c, j, i, k, d]``.
That is the normals' column order, transposed.  Every array a pass
makes is C-contiguous as a whole, in that axis order: ufuncs give their
output their inputs' memory order, so one input with another order
would carry its strides into every array made from it.  A single draw
is a batch of one, and a draw's value does not depend on the batch it
is made in.

The power ``p`` of every function here and in ``apzf.precoders`` and
``apzf.scheme`` is one SNR point's P, a float, or several points' as a
``(points, 1)`` float64 column.  A column puts a points axis just before
the draws, ``h[c, i, k, point, d]``, on every array it reaches, in C
order too, and each point's slice is, bit for bit, what its float P
gives.  So that holds, a per-point value that involves a power of P is
computed by ``_per_point`` with Python floats, one point at a time;
``np.power`` on a column of powers may round differently.
"""

from __future__ import annotations

import math

import numpy as np

from .topology import CsitQuality, Topology

__all__ = ["NORMALS_PER_DRAW", "sample_channel", "sample_csit"]

NORMALS_PER_DRAW = 24


def _per_point(f, p):
    """``f`` at each SNR point of ``p``, shaped to broadcast against draws-last arrays.

    ``f`` maps a float P to a float, an array of shape S, or a tuple of
    floats (then S is the tuple's length).  For a float ``p`` this is
    ``f(p)``, with a trailing axis of length 1 added if it is an array;
    for a ``(points, 1)`` column it is each point's ``f(P)`` stacked into
    a C-contiguous array of shape ``S + (points, 1)``.
    """
    if isinstance(p, np.ndarray):
        values = np.array([f(q) for q in p[:, 0].tolist()])  # (points, *S)
        # Copied into C order: ufuncs give their output their inputs'
        # memory order, so a transposed view would put the points axis
        # above S in every array of the pass.  (np.stack on a new last
        # axis builds the same array, about 3 us slower a call.)
        return np.ascontiguousarray(values.transpose(*range(1, values.ndim), 0))[..., None]
    value = f(p)
    return value[..., None] if isinstance(value, np.ndarray) else value


def _crandn(z: np.ndarray, cols: list, p) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussians (2, 2, 2, draws)
    from the columns ``cols`` of ``z`` (draws, 24): four real parts, then
    their four imaginary parts.

    For a column ``p`` the shape is (2, 2, 2, 1, draws), one set for every point.
    """
    # ``z.T[cols]`` is one C-contiguous copy: an index list gathers whole
    # rows of ``z.T``, where a slice would give a view with draw-first
    # strides, which ufuncs would carry into every array of the pass, and
    # which scaling in place would write back into ``z``.  numpy's complex
    # division by sqrt(2) multiplies by this rounded reciprocal, so each
    # part is that of (re + 1j*im) / sqrt(2), bit for bit.
    points = (1,) if isinstance(p, np.ndarray) else ()
    x = z.T[cols].reshape(2, 2, 2, *points, len(z))
    x *= 1.0 / math.sqrt(2.0)
    return x


def sample_channel(topology: Topology, p, z: np.ndarray) -> np.ndarray:
    """Channels ``h[c, i, k, d]`` (TX k -> RX i) from the normals ``z`` (draws, 24)."""
    exponent = topology.gamma - 1.0
    scale = _per_point(lambda q: np.sqrt(q**exponent), p)
    return scale * _crandn(z, list(range(8)), p)


def sample_csit(
    h: np.ndarray,
    topology: Topology,
    csit: CsitQuality,
    p,
    z: np.ndarray,
    tx: int | None = None,
) -> np.ndarray:
    """Both transmitters' estimates ``h_hat[c, j, i, k, d]`` of the channels ``h``,
    or TX ``tx``'s alone, ``h_hat[:, tx]`` bit for bit, made from its columns of ``z``.

    ``z`` is the same (draws, 24) array the channels were made from.
    """
    if tx is None:
        return np.stack([sample_csit(h, topology, csit, p, z, j) for j in (0, 1)], axis=1)
    quality, exponent = -csit.alpha[tx], topology.gamma - 1.0
    err_scale = _per_point(lambda q: np.sqrt(q**quality) * np.sqrt(q**exponent), p)
    cols = [part + 4 * tx + e for part in (8, 16) for e in range(4)]  # real, then imaginary
    h_hat = err_scale * _crandn(z, cols, p)
    h_hat += h  # in place: one estimate-sized array fewer at the peak
    return h_hat
