"""Instantiating layouts on batches of draws and evaluating their rates.

A layout is instantiated as a dict of layers, keyed by tag in decoding
order: a common layer ``s0`` on top, the two private layers ``s1``/``s2``
underneath, and (when the layout carries it) the below-the-floor z layer
``z1`` for RX 1.  Each layer holds its vectors for every draw, shape
(draws, 2); the common layer is the same on every draw and is one (2,)
vector.  Decoding is successive: both receivers decode the common layer
treating everything else as noise, each then strips it and decodes its
private layer; RX 1 finally strips its private layer and decodes the z
layer with only the other private layer left as noise.

Scheme kinds differ in how the private vectors are produced, and only
``apzf`` sends ``z1``; a band takes power only if it is sent:

* ``apzf``             active-passive ZF from the active TX's estimate,
* ``centralized_zf``   regularized ZF from the active TX's estimate used
                       as if it were shared by both TXs,
* ``naive_zf``         per-TX regularized ZF from local estimates, and
                       the worst-transmitter layout (a TX that adapts
                       with quality it does not have only injects
                       interference),
* ``no_csit``          a single full-power common layer.
"""

from __future__ import annotations

import dataclasses
from enum import Enum

import numpy as np

from .gdof import SchemeLayout, scheme_layout
from .precoders import _abs2, apzf, centralized_zf, matched, multicast, naive_zf
from .topology import CanonicalForm, CsitQuality

__all__ = [
    "SchemeKind",
    "PowerInfeasible",
    "plan_layout",
    "build_layers",
    "tx_power",
    "achievable_rates",
    "interference_power",
]

_POWER_TOL = 1e-9


class PowerInfeasible(RuntimeError):
    """A draw's per-transmitter power came out above the budget."""


class SchemeKind(str, Enum):
    APZF = "apzf"
    CENTRALIZED_ZF = "centralized_zf"
    NAIVE_ZF = "naive_zf"
    NO_CSIT = "no_csit"


def plan_layout(canonical: CanonicalForm, scheme_kind) -> SchemeLayout:
    """Layout a scheme transmits with on a canonical instance.

    AP-ZF and the centralized baseline use the effective (best-TX)
    exponents.  The naive baseline only delivers the cancellation quality
    of the worse transmitter, so its layout is that of both TXs holding the
    entrywise-minimum alphas; transmitting the optimistic layout instead
    would drown the common layer in residual interference.
    """
    kind = SchemeKind(scheme_kind)
    if kind is SchemeKind.NAIVE_ZF:
        worst = canonical.csit.alpha.min(axis=0)
        canonical = dataclasses.replace(canonical, csit=CsitQuality(np.stack([worst, worst])))
    return scheme_layout(canonical)


def _private_pair(canonical, h_hat, tau, kind, p):
    act = canonical.active_tx
    if kind is SchemeKind.APZF:
        return [apzf(h_hat[:, act], rx, tau, canonical.topology, p, active_tx=act) for rx in (0, 1)]
    if kind is SchemeKind.CENTRALIZED_ZF:
        return [centralized_zf(h_hat[:, act], rx, tau, p) for rx in (0, 1)]
    return [naive_zf(h_hat, rx, tau, p) for rx in (0, 1)]


def _cap_to_budget(layers: dict, p: float, draws: int) -> np.ndarray:
    """Scale adaptive layers down on draws that overshoot a TX's power budget.

    The active AP-ZF coefficient is a ratio of Gaussians, so a small
    fraction of draws exceeds the per-TX share at finite P.  On such a
    draw all non-common layers are scaled by one common factor (both
    coefficients of each pair together), which preserves their
    cancellation directions and their relative power split.  Returns the
    (draws,) mask of the draws it scaled.
    """
    common = {tag: t for tag, t in layers.items() if tag == "s0"}
    adaptive = {tag: t for tag, t in layers.items() if tag != "s0"}
    if not adaptive:
        return np.zeros(draws, dtype=bool)
    budget = p - tx_power(common)
    totals = tx_power(adaptive)
    over = totals > budget
    backed_off = over.any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.where(over, budget / totals, np.inf).min(axis=1)
    scale = np.where(backed_off, np.sqrt(np.maximum(beta, 0.0)), 1.0)
    for tag in adaptive:
        layers[tag] = layers[tag] * scale[:, None]
    return backed_off


def tx_power(layers: dict) -> np.ndarray:
    """Per-transmitter power summed over the layers, (draws, 2); 0 for no layers."""
    return sum(_abs2(t) for t in layers.values())


def build_layers(
    canonical: CanonicalForm,
    h_hat: np.ndarray,
    layout: SchemeLayout,
    scheme_kind,
    p: float,
) -> tuple[dict, np.ndarray]:
    """Instantiate ``layout`` on every draw of the estimates ``h_hat`` (draws, 2, 2, 2).

    A band is sent, and takes P**power_exp of the power, only if the
    scheme sends it and it carries rate: ``apzf`` sends ``s1`` and ``z1``,
    the ZF baselines ``s1`` alone, ``no_csit`` neither.  ``s0`` takes the
    power that is left whenever some is, even at rate exponent 0.  Per-TX
    power never exceeds P: a back-off scales the adaptive layers of the
    draws that overshoot.  Returns the layers and the (draws,) back-off mask.
    """
    kind = SchemeKind(scheme_kind)
    tau = layout.power_exp
    sent = {SchemeKind.APZF: ("s1", "z1"), SchemeKind.NO_CSIT: ()}.get(kind, ("s1",))
    bands = [tag for tag in sent if layout.rate_exp.get(tag, 0.0) > 0.0]
    residual = p
    for tag in bands:
        residual -= p ** tau[tag]

    layers = {}
    if residual > 0.0:
        layers["s0"] = multicast(residual)
    if "s1" in bands:
        layers["s1"], layers["s2"] = _private_pair(canonical, h_hat, tau["s1"], kind, p)
    if "z1" in bands:
        layers["z1"] = matched(h_hat[:, canonical.active_tx], tau["z1"], p)

    backed_off = _cap_to_budget(layers, p, len(h_hat))
    if np.any(tx_power(layers) > p * (1.0 + _POWER_TOL)):
        raise PowerInfeasible(f"per-TX power exceeds budget P = {p!r}")
    return layers, backed_off


def _received(h: np.ndarray, layers: dict) -> dict:
    return {tag: _abs2((h @ t[..., None])[..., 0]) for tag, t in layers.items()}


def achievable_rates(h: np.ndarray, layers: dict) -> tuple:
    """Rates ``(r0, r1, r2, rz)`` of the successive-decoding chain, each (draws,).

    ``r0`` is the common layer's rate, the worse of the two receivers'
    mutual informations with all lower layers as noise; ``r1``/``r2``
    are the private rates and ``rz`` the z layer's at RX 1.  Absent
    layers carry 0.  Rates are in bits per channel use.
    """
    q = _received(h, layers)
    zero = np.zeros(len(h))

    def at(tag: str, rx: int) -> np.ndarray:
        v = q.get(tag)
        return v[:, rx] if v is not None else zero

    r0 = r1 = r2 = rz = zero
    if "s0" in q:
        sinr0 = np.minimum(
            *(at("s0", rx) / (1.0 + at("s1", rx) + at("s2", rx) + at("z1", rx)) for rx in (0, 1))
        )
        r0 = np.log2(1.0 + sinr0)
    if "s1" in q:
        r1 = np.log2(1.0 + at("s1", 0) / (1.0 + at("z1", 0) + at("s2", 0)))
    if "s2" in q:
        r2 = np.log2(1.0 + at("s2", 1) / (1.0 + at("s1", 1) + at("z1", 1)))
    if "z1" in q:
        rz = np.log2(1.0 + at("z1", 0) / (1.0 + at("s2", 0)))
    return r0, r1, r2, rz


def interference_power(h: np.ndarray, layers: dict, rx: int) -> np.ndarray:
    """Received power (draws,) of the private layer aimed at the other receiver.

    This is the quantity the zero-forcing pair is supposed to suppress;
    the common and z layers are excluded (they are handled by the
    decoding order, not by cancellation).
    """
    q = _received(h, layers)
    total = np.zeros(len(h))
    for tag, target in (("s1", 0), ("s2", 1)):
        if tag in q and target != rx:
            total = total + q[tag][:, rx]
    return total
