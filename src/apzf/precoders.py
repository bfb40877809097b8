"""Precoding vectors: active-passive ZF, multicast, matched, and baselines.

Active-passive zero-forcing (AP-ZF) is the distributed answer to the ZF
precoder.  The passive transmitter applies a deterministic power-scaled
constant; the active (better-informed) transmitter alone adapts to its
local estimate so that the pair cancels at the unintended receiver:

    t_pas = sqrt(P ** x),   x = tau - (gamma[itf, pas] - gamma[itf, act])+
    t_act = -conj(hhat[itf, act]) * hhat[itf, pas] / (|hhat[itf, act]|^2 + 1/P) * t_pas

where itf is the receiver to protect and tau the power budget exponent.
Because t_pas is deterministic, no estimate of it needs to be shared; the
1/P regularizer keeps the active coefficient finite on deep-fade draws.

Every function works on a batch of draws, in the layout of
``apzf.channel``: real float64 arrays with (re, im) on axis 0 and the
draws on the last axis.  An estimate is ``[c, i, k, d]``, and a vector
``t[c, k, d]`` is applied at TX ``k`` on draw ``d``.  Complex arithmetic
is spelt out on the two parts (``_abs2``, ``_cmul``, ``_cmul_conj``),
and a sum over an axis of length 2 is written as the sum of its two
terms.  No conjugate is ever copied: a conjugate factor is folded into
the products, and a conjugated vector into its normalisation.  A draw's
vector does not depend on the size of the batch it is in, and a vector
made from an estimate keeps its dtype (long double stays long double).

The ZF baselines are the comparison points: a regularized full-matrix
ZF computed from one shared estimate, and the same computation done
independently at each TX from its own local estimate, each TX sending
only its own entry (so the two entries come from inconsistent matrix
inverses).  They and ``matched`` run in two steps.  The direction step
(``_zf_direction``) returns an unconjugated direction ``w`` and its
norm; the normalisation step (``_normalised``) rescales ``conj(w)`` to
norm sqrt(P**tau), the ``_amplitude`` of its power exponent, negating
the imaginary half in place.  The centralized vector is ``w``
normalised whole, the naive one entry j of TX j's own ``w`` normalised
alone (``_naive``).  ``apzf.scheme`` composes the steps from one memo
per pass, so each direction is made once and normalised for both, and
its scales (``_zf_scales``) are made once per pass.

``p`` is a float, or a ``(points, 1)`` column of several SNR points'
powers; estimates made at a column carry a points axis just before the
draws (``[c, i, k, point, d]``), and so does every vector made from them
(see ``apzf.channel``).
"""

from __future__ import annotations

import math

import numpy as np

from .channel import _per_point
from .topology import Topology

__all__ = [
    "apzf",
    "multicast",
    "matched",
]


def _abs2(x: np.ndarray) -> np.ndarray:
    """``|x|**2`` elementwise; drops axis 0."""
    return x[0] * x[0] + x[1] * x[1]


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` elementwise: ``a0*b0 - a1*b1`` and ``a0*b1 + a1*b0``, each
    written straight into its half of one output array."""
    out = np.empty((2,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]), np.result_type(a, b))
    re, im = out
    np.multiply(a[0], b[0], out=re)
    re -= a[1] * b[1]
    np.multiply(a[0], b[1], out=im)
    im += a[1] * b[0]
    return out


def _cmul_conj(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * conj(b)`` elementwise, with no copy of ``conj(b)``:
    ``a0*b0 + a1*b1`` and ``a1*b0 - a0*b1``.  Bit for bit the ``_cmul``
    of ``a`` and the conjugate, since ``x - (-y)`` is ``x + y`` and
    ``(-x) + y`` is ``y - x`` exactly, signed zeros included."""
    out = np.empty((2,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]), np.result_type(a, b))
    re, im = out
    np.multiply(a[0], b[0], out=re)
    re += a[1] * b[1]
    np.multiply(a[1], b[0], out=im)
    im -= a[0] * b[1]
    return out


def _norm(w: np.ndarray) -> np.ndarray:
    """Euclidean norm of the vectors ``w`` (2, 2, ...); drops axes 0 and 1."""
    a = _abs2(w)
    return np.sqrt(a[0] + a[1])


def _amplitude(tau: float, p):
    """sqrt(P**tau) at each point of ``p``: the norm of a vector of power exponent ``tau``."""
    return _per_point(lambda q: math.sqrt(q**tau), p)


def _normalised(w: np.ndarray, n: np.ndarray, amplitude, out=None) -> np.ndarray:
    """``conj(w)`` rescaled by ``amplitude`` / ``n``; 0 where ``n`` is 0.

    ``amplitude`` is ``_amplitude(tau, p)``.  ``n`` is the norm of the
    whole vector ``w`` belongs to, so ``w`` may be one TX's entry of it.
    The conjugate is taken after scaling, by negating the imaginary half
    in place: ``-(w1*s)`` is ``(-w1)*s`` bit for bit.
    """
    with np.errstate(divide="ignore"):
        s = np.where(n == 0.0, 0.0, amplitude / n)
    out = np.multiply(w, s, out=out)
    np.negative(out[1], out=out[1])
    return out


def apzf(
    estimate_active: np.ndarray,
    target_rx: int,
    tau: float,
    topology: Topology,
    p,
    active_tx: int = 0,
    regularize: bool = True,
) -> np.ndarray:
    """AP-ZF vectors (2, 2, draws) for ``target_rx``, cancelling at the other receiver.

    ``estimate_active`` (2, 2, 2, draws) is the active transmitter's full
    estimate.  With ``regularize=False`` the 1/P term is dropped; combined
    with a perfect estimate this cancels the unintended receiver exactly.
    """
    itf = 1 - target_rx
    passive_tx = 1 - active_tx
    g = topology.gamma
    x = tau - max(float(g[itf, passive_tx] - g[itf, active_tx]), 0.0)
    t_pas = _per_point(lambda q: math.sqrt(q**x), p)
    e_act = estimate_active[:, itf, active_tx]
    e_pas = estimate_active[:, itf, passive_tx]
    reg = 1.0 / p if regularize else 0.0
    t = np.zeros((2, 2) + e_act.shape[1:], e_act.dtype)
    # -conj(a) * b for a = e_act, b = e_pas, written into t with no
    # conjugate copy: (-(a0*b0) - a1*b1, a1*b0 - a0*b1), which are the
    # product's own operations, so every bit and signed zero is the same.
    re, im = t[:, active_tx]
    np.negative(np.multiply(e_act[0], e_pas[0], out=re), out=re)
    re -= e_act[1] * e_pas[1]
    np.multiply(e_act[1], e_pas[0], out=im)
    im -= e_act[0] * e_pas[1]
    t[:, active_tx] *= t_pas / (_abs2(e_act) + reg)
    t[0, passive_tx] = t_pas
    return t


def multicast(power) -> np.ndarray:
    """Common layer of total ``power``, split evenly across the two TXs.

    The layer is the same on every draw, so it is one (2, 2, 1) vector for
    a float ``power``, and (2, 2, points, 1) for a ``(points, 1)`` column.
    """
    amplitude = np.sqrt(power / 2.0)
    t = np.zeros((2, 2) + (amplitude.shape or (1,)))
    t[0] = amplitude
    return t


def matched(estimate_active: np.ndarray, tau: float, p) -> np.ndarray:
    """Matched-filter layer (2, 2, draws) for RX 1 riding below the interference floor.

    Beamforms along the active TX's estimate of RX 1's row, with norm
    sqrt(P**tau).
    """
    w = estimate_active[:, 0]
    return _normalised(w, _norm(w), _amplitude(tau, p))


def _zf_scales(p):
    """``(c, c**2 / P)`` at each point of ``p``, for ``_zf_direction``:
    c is a power of two with c**2 within a factor 2 of P when P < 1/2,
    and 1 otherwise."""

    def scales(q: float) -> tuple:
        c = math.ldexp(1.0, min(math.frexp(q)[1], 0) // 2)
        return c, c * c / q

    return _per_point(scales, p)


def _zf_direction(estimate: np.ndarray, target_rx: int, scales) -> tuple:
    """Direction ``w`` of the regularized channel-inverse column for
    ``target_rx``, unconjugated, and its norm.

    Column ``target_rx`` of ``H^H (H H^H + I/P)^-1``, with ``H`` the
    estimate, is ``conj(w)`` up to the positive factor ``1/det`` of the
    2x2 matrix, which ``_normalised`` removes, with ``w = r_t (|r_o|^2 +
    1/P) - r_o <r_t, r_o>`` for the target's row ``r_t`` and the other
    receiver's row ``r_o``.

    At low P the rows are large and 1/P is huge, and their product
    overflows.  So ``r_o`` is scaled by the c of ``scales``, the
    ``_zf_scales`` of P, and 1/P by c**2, which scales ``w`` by c**2: an
    exact power of two, so no rounding changes, and ``_normalised``
    removes it.  At P >= 1/2, c is 1 (where it is 1 at every point, the
    multiplication is skipped).
    """
    c, reg = scales
    r_t, r_o = estimate[:, target_rx], estimate[:, 1 - target_rx]
    if np.any(c != 1.0):  # a product with 1.0 changes no bit
        r_o = r_o * c
    inner = _cmul_conj(r_t, r_o)
    inner = inner[:, 0] + inner[:, 1]  # rebound, so the product is freed here
    a = _abs2(r_o)
    w = r_t * (a[0] + a[1] + reg)
    del a  # freed before the product below is made
    w -= _cmul(r_o, inner[:, None])
    return w, _norm(w)


def _naive(directions: list, amplitude) -> np.ndarray:
    """Naive per-TX ZF vectors from TX j's ``(w, norm)`` at ``directions[j]``:
    entry j of each, normalised alone to ``amplitude``, so the entries
    generally do not cohere when the two estimates differ."""
    t = np.empty((2, 2) + directions[0][1].shape, directions[0][1].dtype)
    for j, (w, n) in enumerate(directions):
        _normalised(w[:, j], n, amplitude, out=t[:, j])
    return t
