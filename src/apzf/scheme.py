"""Instantiating layouts on batches of draws and evaluating their rates.

A layout is instantiated as a dict of layers, keyed by tag in decoding
order: a common layer ``s0`` on top, the two private layers ``s1``/``s2``
underneath, and (when the layout carries it) the below-the-floor z layer
``z1`` for RX 1.  Each layer holds its vectors for every draw, shape
(2, 2, draws) in the layout of ``apzf.channel`` (real and imaginary
parts on axis 0, draws last); the common layer is the same on every draw
and is one (2, 2, 1) vector, one real amplitude on both TXs.  A
layer's received power is formed one real or imaginary half and one TX
term at a time, s0's from its amplitude alone (see ``_received``).  Decoding
is successive: both receivers decode the common layer treating
everything else as noise, each then strips it and decodes its private
layer; RX 1 finally strips its private layer and decodes the z layer
with only the other private layer left as noise (``_DECODING``).  Every
scheme sends ``s0``, with amplitude 0 where no power is left for it, so
the layers sent depend on the scheme and the layout, never on P.

A sweep pass builds every scheme's layers in one ``_build_pass``, which
memoises the pass's ZF directions (see ``apzf.precoders``): each (TX
estimate j, target rx) direction is computed at most once and then
normalised per scheme, so ``centralized_zf`` and ``naive_zf`` share the
active TX's two.  It makes each TX's estimate only for the schemes that
use it.  ``build_layers`` is its one-scheme case.

``p`` is a float, or a ``(points, 1)`` column of several SNR points'
powers (see ``apzf.channel``); at a column every layer, mask and rate
has a points axis just before the draws, and each point's slice equals
what its float P gives, bit for bit.

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

import collections
import dataclasses
import functools
from enum import Enum

import numpy as np

from .channel import _per_point
from .gdof import SchemeLayout, scheme_layout
from .precoders import _abs2, _naive, _normalised, _zf_direction, apzf, matched, multicast
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

# The successive-decoding chain in decoding order: {tag: (receivers that
# decode it, layers still undecoded there, summed as noise in this order)}.
_DECODING = {
    "s0": ((0, 1), ("s1", "s2", "z1")),
    "s1": ((0,), ("z1", "s2")),
    "s2": ((1,), ("s1", "z1")),
    "z1": ((0,), ("s2",)),
}


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
        worst = np.minimum(*canonical.csit.alpha)
        canonical = dataclasses.replace(canonical, csit=CsitQuality(np.stack([worst, worst])))
    return scheme_layout(canonical)


def _private_pair(canonical, est, tau, kind, p, zf):
    """The pair ``s1``, ``s2``.  ``est(j)`` is TX j's memoised estimate,
    and ``zf(j, rx)`` its memoised ZF direction for ``rx``, from which the
    ZF baselines are normalised as ``precoders.centralized_zf`` and
    ``precoders.naive_zf`` would be."""
    act = canonical.active_tx
    if kind is SchemeKind.APZF:
        return [apzf(est(act), rx, tau, canonical.topology, p, active_tx=act) for rx in (0, 1)]
    if kind is SchemeKind.CENTRALIZED_ZF:
        return [_normalised(*zf(act, rx), tau, p) for rx in (0, 1)]
    return [_naive([zf(0, rx), zf(1, rx)], tau, p) for rx in (0, 1)]


def _zf_uses(kind: SchemeKind, act: int) -> list:
    """The (TX j, rx) ZF directions that ``_private_pair`` asks ``zf`` for,
    once each, to build ``kind``'s pair."""
    if kind is SchemeKind.CENTRALIZED_ZF:
        return [(act, 0), (act, 1)]
    if kind is SchemeKind.NAIVE_ZF:
        return [(0, 0), (1, 0), (0, 1), (1, 1)]
    return []


def _cap_to_budget(layers: dict, p, shape: tuple) -> np.ndarray:
    """Scale adaptive layers down on draws that overshoot a TX's power budget.

    The active AP-ZF coefficient is a ratio of Gaussians, so a small
    fraction of draws exceeds the per-TX share at finite P.  On such a
    draw all non-common layers are scaled by one common factor (both
    coefficients of each pair together), which preserves their
    cancellation directions and their relative power split.  Returns the
    ``shape`` ([points,] draws) mask of the draws it scaled.
    """
    adaptive = [tag for tag in layers if tag != "s0"]
    if not adaptive:
        return np.zeros(shape, dtype=bool)
    budget = p - _abs2(layers["s0"])
    totals = sum(_abs2(layers[tag]) for tag in adaptive)
    over = totals > budget
    backed_off = over[0] | over[1]
    if not backed_off.any():
        return backed_off
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.where(over, budget / totals, np.inf)
    beta = np.minimum(b[0], b[1])
    scale = np.where(backed_off, np.sqrt(np.maximum(beta, 0.0)), 1.0)
    for tag in adaptive:
        layers[tag] *= scale  # in place: every layer array is this pass's own
    return backed_off


def tx_power(layers: dict) -> np.ndarray:
    """Per-transmitter power summed over the layers, (2, [points,] draws); 0 for no layers."""
    return sum(_abs2(t) for t in layers.values())


def build_layers(
    canonical: CanonicalForm,
    h_hat: np.ndarray,
    layout: SchemeLayout,
    scheme_kind,
    p,
) -> tuple[dict, np.ndarray]:
    """Instantiate ``layout`` on every draw of the estimates ``h_hat``.

    ``h_hat`` is (2, 2, 2, 2, draws), or (2, 2, 2, 2, points, draws) at a
    column ``p``.

    A band is sent, and takes P**power_exp of the power, only if the
    scheme sends it and it carries rate: ``apzf`` sends ``s1`` and ``z1``,
    the ZF baselines ``s1`` alone, ``no_csit`` neither.  ``s0`` is always
    sent, first, with the power that is left (0.0 where none is), even at
    rate exponent 0.  Per-TX power never exceeds P: a back-off scales the
    adaptive layers of the draws that overshoot.  Returns the layers and
    the ([points,] draws) back-off mask.  This is the one-scheme case of
    ``_build_pass``.
    """
    return next(_build_pass(canonical, lambda j: h_hat[:, j], {scheme_kind: layout}, p))


def _bands(kind: SchemeKind, layout: SchemeLayout) -> list:
    """The bands ``kind`` sends besides ``s0``: those it can send that carry rate."""
    sent = {SchemeKind.APZF: ("s1", "z1"), SchemeKind.NO_CSIT: ()}.get(kind, ("s1",))
    return [tag for tag in sent if layout.rate_exp.get(tag, 0.0) > 0.0]


def _build_pass(canonical: CanonicalForm, estimate, layouts: dict, p):
    """``build_layers`` for each ``{scheme: layout}`` of ``layouts`` on one
    pass: yields each scheme's ``(layers, back-off mask)`` in turn, so
    only one scheme's layers need be alive at a time.

    ``estimate(j)`` makes TX j's estimate, (2, 2, 2, [points,] draws) as
    ``h_hat[:, j]``.  A scheme makes the estimates it uses, once each, and
    drops them when its layers are built, so the passive TX's is made
    only if ``naive_zf`` sends a private pair, and no estimate is alive
    while a scheme's layers are evaluated.  The pass's ZF directions are
    memoised: each (TX j, target rx) direction is computed at most once,
    so ``centralized_zf`` and ``naive_zf`` share the active TX's two, and
    is dropped after the last of its uses (``_zf_uses``).  They are
    normalised per scheme, since the schemes' power exponents may differ.
    """
    plans = [(SchemeKind(s), layout) for s, layout in layouts.items()]
    plans = [(kind, layout, _bands(kind, layout)) for kind, layout in plans]
    act = canonical.active_tx
    est = functools.cache(estimate)
    uses = collections.Counter(k for kind, _, b in plans if "s1" in b for k in _zf_uses(kind, act))
    directions = {}

    def zf(j: int, rx: int) -> tuple:
        """TX j's ZF direction for ``rx``: made at its first use, dropped after its last."""
        if (j, rx) not in directions:
            directions[j, rx] = _zf_direction(est(j), rx, p)
        uses[j, rx] -= 1
        return directions[j, rx] if uses[j, rx] > 0 else directions.pop((j, rx))

    shape = est(act).shape[3:]
    for kind, layout, bands in plans:
        tau = layout.power_exp

        def s0_power(q: float) -> float:
            """The power left for s0 at P = q; 0.0 where none is."""
            left = q
            for tag in bands:
                left -= q ** tau[tag]
            return max(left, 0.0)

        layers = {"s0": multicast(_per_point(s0_power, p))}
        if "s1" in bands:
            layers["s1"], layers["s2"] = _private_pair(canonical, est, tau["s1"], kind, p, zf)
        if "z1" in bands:
            layers["z1"] = matched(est(act), tau["z1"], p)
        est.cache_clear()

        backed_off = _cap_to_budget(layers, p, shape)
        if np.any(tx_power(layers) > p * (1.0 + _POWER_TOL)):
            raise PowerInfeasible(f"per-TX power exceeds budget P = {p!r}")
        yield layers, backed_off


def _received(h: np.ndarray, layers: dict) -> dict:
    """Per-layer received power ``|h_i t|**2``, (2, [points,] draws) indexed [rx, d].

    A layer's received signal is the sum of its two TX terms ``h[:, :, k]
    * t[:, k]``, formed one real or imaginary half at a time
    (``_term_part``) and squared in place, so no (2, 2, 2, ...) product
    array is built and at most four (2, [points,] draws) arrays are alive
    at once.  Bit for bit, this is ``_abs2`` of the sum over k of
    ``_cmul(h[:, :, k], t[:, k])``.
    """
    out = {}
    for tag, t in layers.items():
        re = _term_part(h, t, tag, 0, 0)
        re += _term_part(h, t, tag, 1, 0)
        im = _term_part(h, t, tag, 0, 1)
        im += _term_part(h, t, tag, 1, 1)
        re *= re
        im *= im
        re += im
        out[tag] = re
    return out


def _term_part(h: np.ndarray, t: np.ndarray, tag: str, k: int, n: int) -> np.ndarray:
    """Half ``n`` (0 real, 1 imaginary) of TX k's term ``h[:, :, k] * t[:, k]``
    of layer ``tag``, with ``_cmul``'s operations in its order.

    The common layer ``s0`` is ``multicast``'s vector, a real amplitude
    on both TXs, so its half is ``h``'s half times that amplitude.  Its
    power is bit-identical to the general product's: the term left out
    is a product with the vector's zero imaginary part, an exact zero.
    """
    (a0, a1), (b0, b1) = h[:, :, k], t[:, k]
    if tag == "s0":
        return (a0, a1)[n] * b0
    x = a0 * (b0, b1)[n]
    if n == 0:
        x -= a1 * b1
    else:
        x += a1 * b0
    return x


def achievable_rates(h: np.ndarray, layers: dict) -> dict:
    """``{tag: rate}`` of the successive-decoding chain, each ([points,] draws).

    The keys are those of ``layers``, in decoding order.  A layer's rate
    is the worst, over the receivers that decode it, of its mutual
    information with the sent layers still undecoded there as noise
    (``_DECODING``).  Rates are in bits per channel use.
    """
    q = _received(h, layers)
    rates = {}
    for tag, (receivers, noise) in _DECODING.items():
        if tag in q:
            sinr = (q[tag][rx] / sum((q[n][rx] for n in noise if n in q), 1.0) for rx in receivers)
            rates[tag] = np.log2(1.0 + functools.reduce(np.minimum, sinr))
    return rates


def interference_power(h: np.ndarray, layers: dict, rx: int) -> np.ndarray:
    """Received power ([points,] draws) of the private layer aimed at the other receiver.

    This is the quantity the zero-forcing pair is supposed to suppress;
    the common and z layers are excluded (they are handled by the
    decoding order, not by cancellation).
    """
    q = _received(h, layers)
    total = np.zeros(h.shape[3:])
    for tag, target in (("s1", 0), ("s2", 1)):
        if tag in q and target != rx:
            total = total + q[tag][rx]
    return total
