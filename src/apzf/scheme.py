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

A sweep pass builds every scheme's layers in one ``_build_pass``.  Every
scheme runs on the pass's draws, so a TX's estimate is one quantity of
the pass: ``_build_pass`` keeps one memo of estimates and one of ZF
directions (see ``apzf.precoders``), and makes each TX's estimate and
each (TX j, target rx) direction at most once, at its first use.  So
``apzf``, ``centralized_zf`` and ``naive_zf`` share the active TX's
estimate, and the two ZF baselines share its two directions, which each
normalises for its own power exponents.  Both memos are cleared once,
when the last scheme that sends a private or z layer has built its
layers.  The pass checks every draw's per-TX power against the budget
after the back-off.  ``build_layers``, its one-scheme case, is the
public way to make layers, and ``achievable_rates`` evaluates them;
``_received`` gives each layer's received power at both receivers, so a
private layer's residual interference is its power at the other
receiver.

``p`` is a float, or a ``(points, 1)`` column of several SNR points'
powers (see ``apzf.channel``); at a column every layer, mask and rate
has a points axis just before the draws, and each point's slice equals
what its float P gives, bit for bit.

A scheme is its name (a key of ``_BANDS``): each sends the layout
``plan_layout`` gives it, and the schemes differ in how the private
vectors are produced.  Only ``apzf`` sends ``z1``; a band takes power
only if it is sent:

* ``apzf``             active-passive ZF from the active TX's estimate,
* ``centralized_zf``   regularized ZF from the active TX's estimate used
                       as if it were shared by both TXs; not the genie
                       scheme of the centralized closed form: where its
                       slope falls short of ``gdof.genie_outer_bound``,
                       it misses the rate of ``z1``, a layer it never
                       sends, or that of an ``s0`` left no power by a
                       sent band of power exponent 1 or more
                       (``perfbench``'s gate holds it to that form on two
                       instances only),
* ``naive_zf``         per-TX regularized ZF from local estimates, and
                       the worst-transmitter layout (a TX that adapts
                       with quality it does not have only injects
                       interference),
* ``no_csit``          a single full-power common layer.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .channel import _per_point
from .gdof import SchemeLayout, scheme_layout
from .precoders import (
    _abs2,
    _amplitude,
    _naive,
    _normalised,
    _zf_direction,
    apzf,
    matched,
    multicast,
)
from .topology import CanonicalForm

__all__ = [
    "PowerInfeasible",
    "plan_layout",
    "build_layers",
    "achievable_rates",
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


# {scheme: the bands it may send besides s0}; its keys are the scheme names.
_BANDS = {"apzf": ("s1", "z1"), "centralized_zf": ("s1",), "naive_zf": ("s1",), "no_csit": ()}


def plan_layout(canonical: CanonicalForm, scheme: str) -> SchemeLayout:
    """Layout a scheme transmits with on a canonical instance.

    AP-ZF and the centralized baseline use the effective (best-TX)
    exponents.  The naive baseline only delivers the cancellation quality
    of the worse transmitter, so its layout is that of both TXs holding the
    entrywise-minimum alphas; transmitting the optimistic layout instead
    would drown the common layer in residual interference.  ValueError
    for a name that is no scheme.
    """
    if scheme not in _BANDS:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "naive_zf":
        # A new form, so its effective exponents are those of the minimum.
        worst = np.minimum(*canonical.alpha).tolist()
        canonical = dataclasses.replace(canonical, alpha=(worst, worst))
    return scheme_layout(canonical)


def _private_pair(canonical, est, tau, scheme, p, zf):
    """The pair ``s1``, ``s2``.  ``est(j)`` is TX j's memoised estimate,
    and ``zf(j, rx)`` its memoised ZF direction for ``rx``, which the ZF
    baselines normalise: whole for ``centralized_zf``, one entry per TX
    for ``naive_zf`` (``precoders._naive``)."""
    act = canonical.active_tx
    if scheme == "apzf":
        return [apzf(est(act), rx, tau, canonical.topology, p, active_tx=act) for rx in (0, 1)]
    amplitude = _amplitude(tau, p)
    if scheme == "centralized_zf":
        return [_normalised(*zf(act, rx), amplitude) for rx in (0, 1)]
    return [_naive([zf(0, rx), zf(1, rx)], amplitude) for rx in (0, 1)]


def _within_budget(layers: dict, p, shape: tuple) -> np.ndarray:
    """Scale adaptive layers down, in place, on draws that overshoot a TX's
    power budget, then check that every draw's per-TX power is within it;
    PowerInfeasible if one is not.

    The active AP-ZF coefficient is a ratio of Gaussians, so a small
    fraction of draws exceeds the per-TX share at finite P.  On such a
    draw all non-common layers are scaled by one common factor (both
    coefficients of each pair together), which preserves their
    cancellation directions and their relative power split.  Each
    layer's per-TX power ``_abs2(t)`` is computed once, and again only
    for the layers the back-off scales; the check sums the powers in the
    layers' order.  Returns the ``shape`` ([points,] draws) mask of the
    draws it scaled.
    """
    power = {tag: _abs2(t) for tag, t in layers.items()}
    adaptive = [tag for tag in layers if tag != "s0"]
    if not adaptive:
        backed_off = np.zeros(shape, dtype=bool)
    else:
        budget = p - power["s0"]
        totals = sum(power[tag] for tag in adaptive)
        over = totals > budget
        backed_off = over[0] | over[1]
        if backed_off.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                b = np.where(over, budget / totals, np.inf)
            beta = np.minimum(b[0], b[1])
            scale = np.where(backed_off, np.sqrt(np.maximum(beta, 0.0)), 1.0)
            for tag in adaptive:
                layers[tag] *= scale  # in place: every layer array is this pass's own
                power[tag] = _abs2(layers[tag])
    if np.any(sum(power.values()) > p * (1.0 + _POWER_TOL)):
        raise PowerInfeasible(f"per-TX power exceeds budget P = {p!r}")
    return backed_off


def build_layers(
    canonical: CanonicalForm, h_hat: np.ndarray, scheme: str, p
) -> tuple[dict, np.ndarray]:
    """Instantiate ``scheme``'s layout (``plan_layout``) on every draw of
    the estimates ``h_hat``; ValueError for a name that is no scheme.

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
    layouts = {scheme: plan_layout(canonical, scheme)}
    return next(_build_pass(canonical, lambda j: h_hat[:, j], layouts, p, h_hat.shape[4:]))


def _bands(scheme: str, layout: SchemeLayout) -> list:
    """The bands ``scheme`` sends besides ``s0``: those it can send that carry rate."""
    return [tag for tag in _BANDS[scheme] if layout.rate_exp.get(tag, 0.0) > 0.0]


def _build_pass(canonical: CanonicalForm, estimate, layouts: dict, p, shape: tuple):
    """``build_layers`` for each ``{scheme: layout}`` of ``layouts`` on one
    pass: yields each scheme's ``(layers, back-off mask)`` in turn, so
    only one scheme's layers need be alive at a time.

    ``estimate(j)`` makes TX j's estimate, (2, 2, 2, [points,] draws) as
    ``h_hat[:, j]``; ``shape`` is the pass's ([points,] draws).  ``est``
    and ``zf`` memoise the pass's estimates and its (TX j, target rx) ZF
    directions, so each is made at most once, at its first use, and only
    for a scheme that uses it.  Both are cleared once, right after the last
    scheme that sends a private or z layer (or else the first scheme) has
    built its layers, before they are yielded.  Directions are
    normalised per scheme, since the schemes' power exponents may
    differ.
    """
    plans = [(scheme, layout, _bands(scheme, layout)) for scheme, layout in layouts.items()]
    last = max((i for i, (_, _, bands) in enumerate(plans) if bands), default=0)
    act = canonical.active_tx
    est = functools.cache(estimate)
    zf = functools.cache(lambda j, rx: _zf_direction(est(j), rx, p))
    for i, (scheme, layout, bands) in enumerate(plans):
        tau = layout.power_exp

        def s0_power(q: float) -> float:
            """The power left for s0 at P = q; 0.0 where none is."""
            left = q
            for tag in bands:
                left -= q ** tau[tag]
            return max(left, 0.0)

        layers = {"s0": multicast(_per_point(s0_power, p))}
        if "s1" in bands:
            layers["s1"], layers["s2"] = _private_pair(canonical, est, tau["s1"], scheme, p, zf)
        if "z1" in bands:
            layers["z1"] = matched(est(act), tau["z1"], p)
        if i == last:
            est.cache_clear()
            zf.cache_clear()

        backed_off = _within_budget(layers, p, shape)
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

