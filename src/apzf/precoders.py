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

``centralized_zf`` and ``naive_zf`` are the comparison points: a
regularized full-matrix ZF computed from one shared estimate, and the
same computation done independently at each TX from its own local
estimate (each TX then transmits only its own entry, so the two entries
come from inconsistent matrix inverses).

Every function works on a batch of draws: estimates carry a leading draw
axis and a vector ``t[d, k]`` is applied at TX ``k`` on draw ``d``.  A
draw's vector does not depend on the size of the batch it is in.  So
complex products are taken on real and imaginary parts (``_cmul``):
numpy's complex multiply rounds ``a * b`` and ``b * a`` differently on
some values, and it swaps the operands when it reuses a temporary of
256 KiB or more (16,384 entries, 8,192 draws of a 2-vector) in place.
"""

from __future__ import annotations

import math

import numpy as np

from .topology import Topology

__all__ = [
    "apzf",
    "multicast",
    "matched",
    "centralized_zf",
    "naive_zf",
]


def _abs2(x: np.ndarray) -> np.ndarray:
    """``|x|**2`` elementwise."""
    return x.real * x.real + x.imag * x.imag


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` elementwise, from real products (see the module docstring)."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _scaled(w: np.ndarray, tau: float, p: float) -> np.ndarray:
    """Rows of ``w`` rescaled to norm sqrt(P**tau); all-zero rows stay zero."""
    n = np.sqrt(_abs2(w).sum(axis=1))
    with np.errstate(divide="ignore"):
        s = np.where(n == 0.0, 0.0, math.sqrt(p**tau) / n)
    return w * s[:, None]


def apzf(
    estimate_active: np.ndarray,
    target_rx: int,
    tau: float,
    topology: Topology,
    p: float,
    active_tx: int = 0,
    regularize: bool = True,
) -> np.ndarray:
    """AP-ZF vectors (draws, 2) for ``target_rx``, cancelling at the other receiver.

    ``estimate_active`` (draws, 2, 2) is the active transmitter's full
    estimate.  With ``regularize=False`` the 1/P term is dropped; combined
    with a perfect estimate this cancels the unintended receiver exactly.
    """
    itf = 1 - target_rx
    passive_tx = 1 - active_tx
    g = topology.gamma
    x = tau - max(float(g[itf, passive_tx] - g[itf, active_tx]), 0.0)
    t_pas = math.sqrt(p**x)
    e_act = estimate_active[:, itf, active_tx]
    e_pas = estimate_active[:, itf, passive_tx]
    reg = 1.0 / p if regularize else 0.0
    t = np.empty((len(e_act), 2), dtype=complex)
    t[:, active_tx] = _cmul(-np.conj(e_act), e_pas) * (t_pas / (_abs2(e_act) + reg))
    t[:, passive_tx] = t_pas
    return t


def multicast(power: float) -> np.ndarray:
    """Common layer of total ``power``, split evenly across the two TXs.

    The layer is the same on every draw, so it is one (2,) vector.
    """
    return np.full(2, math.sqrt(power / 2.0), dtype=complex)


def matched(estimate_active: np.ndarray, tau: float, p: float) -> np.ndarray:
    """Matched-filter layer (draws, 2) for RX 1 riding below the interference floor.

    Beamforms along the active TX's estimate of RX 1's row, with norm
    sqrt(P**tau).
    """
    return _scaled(np.conj(estimate_active[:, 0, :]), tau, p)


def _regularized_zf(estimate: np.ndarray, target_rx: int, p: float) -> np.ndarray:
    """Directions of the regularized channel-inverse column for ``target_rx``.

    Column ``target_rx`` of ``H^H (H H^H + I/P)^-1``, with ``H`` the
    estimate, up to the positive factor ``1/det`` of the 2x2 matrix, which
    ``_scaled`` removes: ``conj(r_t (|r_o|^2 + 1/P) - r_o <r_t, r_o>)`` for
    the target's row ``r_t`` and the other receiver's row ``r_o``.
    """
    r_t, r_o = estimate[:, target_rx], estimate[:, 1 - target_rx]
    inner = _cmul(r_t, np.conj(r_o)).sum(axis=1)
    w = r_t * (_abs2(r_o).sum(axis=1) + 1.0 / p)[:, None] - _cmul(r_o, inner[:, None])
    return np.conj(w)


def centralized_zf(
    shared_estimate: np.ndarray, target_rx: int, tau: float, p: float
) -> np.ndarray:
    """Regularized ZF vectors (draws, 2) from one shared estimate, norm sqrt(P**tau)."""
    return _scaled(_regularized_zf(shared_estimate, target_rx, p), tau, p)


def naive_zf(estimates: np.ndarray, target_rx: int, tau: float, p: float) -> np.ndarray:
    """Each TX runs the centralized computation on its own estimate.

    ``estimates`` is (draws, 2, 2, 2), TX j's estimate at ``[:, j]``.  TX j
    normalizes its locally computed full vector to sqrt(P**tau) and
    transmits entry j of it; the entries generally do not cohere because
    the two estimates differ.
    """
    t = np.empty((len(estimates), 2), dtype=complex)
    for j in range(2):
        t[:, j] = _scaled(_regularized_zf(estimates[:, j], target_rx, p), tau, p)[:, j]
    return t
