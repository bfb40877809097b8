"""Closed-form sum GDoF and the layered-scheme blueprint.

The generalized degrees of freedom (GDoF) of a configuration is the
high-SNR slope of its sum capacity against log2(P).  Two independent
closed forms are implemented:

* ``centralized_gdof`` evaluates the sum GDoF of a network where both
  transmitters share one common set of estimate qualities.  It is the
  minimum of two weighted-sum bounds, one per decoding order.
* ``distributed_gdof`` evaluates the distributed-CSIT sum GDoF through
  the case-split achievability formulas on the canonical relabelling.

On the supported domain (dominant transmitter present) the two agree:
distributed CSIT loses nothing relative to a centralized system that is
handed the best estimate of each link.  ``genie_outer_bound`` expresses
that reference value through the centralized form, which keeps the two
code paths independent for testing.

``scheme_layout`` turns a canonical instance into the power/rate split
of the layered superposition scheme that achieves the closed form.

All four work on Python floats through the list helpers of
``apzf.topology``, with no numpy ufunc and no intermediate ``Topology``
or ``CsitQuality``.  ``distributed_gdof`` and ``genie_outer_bound`` take
their instance from ``topology._read``, which ``canonicalize`` shares:
it keeps the last instance read, keyed on the contents of its arrays,
so the three on one (topology, csit) pair check and relabel it once.
``centralized_gdof`` reads its own arrays.  ``distributed_gdof`` and
``scheme_layout`` read the float tuples and effective exponents of a
``CanonicalForm``, so ``scheme_layout(canonicalize(...))`` makes no
array and derives nothing again.

Every formula is written with branches only, no call: ``min(x, y)`` is
``y if y < x else x``, ``max(x, y)`` is ``y if y > x else x`` and the
positive part ``(x)+`` is ``x if x > 0.0 else 0.0``.  These give the
builtins' results on ties, NaNs and signed zeros: a tie or a NaN second
operand gives the first operand, and ``(x)+`` is 0.0 for -0.0 and NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import CanonicalForm, CsitQuality, Topology, _domain, _read

__all__ = [
    "GdofValue",
    "SchemeLayout",
    "centralized_gdof",
    "distributed_gdof",
    "genie_outer_bound",
    "scheme_layout",
]


@dataclass(slots=True)
class GdofValue:
    """A sum-GDoF value together with the bound that attains it.

    ``value = min(d1, d2)``; ``branch`` is "d1" when d1 <= d2 (ties go
    to d1) and "d2" otherwise.
    """

    value: float
    branch: str
    d1: float
    d2: float


@dataclass(slots=True)
class SchemeLayout:
    """Power/rate exponents of the layered broadcast construction.

    Layers, top of the decoding chain first:

    * ``s0``  common layer, decoded by both receivers,
    * ``s1``/``s2``  zero-forced private layers for RX 1 / RX 2,
    * ``z1``  an extra private layer for the receiver with the strongest
      link, riding below the interference floor (absent when its rate
      exponent would be zero).

    ``power_exp[l]`` is the transmit-power exponent of layer ``l`` (the
    common layer uses the remaining power, recorded here as 1.0), and
    ``rate_exp[l]`` its carried GDoF.  ``rho`` is the private-layer rate
    exponent; ``parallel`` marks the symmetric special case in which the
    z-layer degenerates and both private layers carry ``rho = 1 + alpha
    - gamma_cross``.
    """

    case_id: str
    parallel: bool
    rho: float
    power_exp: dict
    rate_exp: dict

    def rate_total(self) -> float:
        return float(sum(self.rate_exp.values()))


def _centralized(g: list, al: list) -> GdofValue:
    """``centralized_gdof`` on float lists, without the range check."""
    (g11, g12), (g21, g22) = g
    (b11, b12), (b21, b22) = al
    a1 = b12 if b12 < b11 else b11
    a2 = b22 if b22 < b21 else b21
    u, v = g21 - g11 + a1, g22 - g12 + a1
    u, v = u if u > 0.0 else 0.0, v if v > 0.0 else 0.0
    d1 = (g11 if g11 > g12 else g12) + (v if v > u else u)
    u, v = g12 - g22 + a2, g11 - g21 + a2
    u, v = u if u > 0.0 else 0.0, v if v > 0.0 else 0.0
    d2 = (g21 if g21 > g22 else g22) + (v if v > u else u)
    return GdofValue(d2 if d2 < d1 else d1, "d1" if d1 <= d2 else "d2", d1, d2)


def centralized_gdof(topology: Topology, alpha) -> GdofValue:
    """Sum GDoF when both TXs share the quality exponents ``alpha`` (2x2).

    With a_i = min_k alpha[i, k] the two bounds are

        d1 = max(g[0,1], g[0,0]) + max((g[1,0]-g[0,0]+a1)+, (g[1,1]-g[0,1]+a1)+)
        d2 = max(g[1,1], g[1,0]) + max((g[0,1]-g[1,1]+a2)+, (g[0,0]-g[1,0]+a2)+)

    and the sum GDoF is min(d1, d2).  Out-of-range gamma or alpha raises
    the first violation in ``validate``'s order, with ``tx_est = -1``.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (2, 2):
        raise ValueError(f"alpha must be 2x2, got shape {alpha.shape}")
    g, al = topology.gamma.tolist(), alpha.tolist()
    # Both TXs hold the one alpha.  It dominates itself unless an entry is
    # NaN, which fails its range check first, so the first violation is
    # always one of the range ones.
    violations = _domain(g, [al, al], (-1, -1))[1]
    if violations:
        raise violations[0]
    return _centralized(g, al)


def distributed_gdof(topology: Topology, csit: CsitQuality) -> GdofValue:
    """Sum GDoF under distributed CSIT, via the canonical case formulas.

    The instance is relabelled so gamma[0, 0] is maximal, then split on
    whether RX 2 hears TX 2 at least as strongly as TX 1 (case 1,
    g[1,0] <= g[1,1]) or not (case 2).  Raises the first violation in
    ``validate``'s order.
    """
    form = _read(topology, csit)[2]
    (g11, g12), (g21, g22) = form.gamma
    ap1, ap2 = form.alpha_prime
    u = g22 - g12 + ap1
    u = u if u > 0.0 else 0.0
    if g21 <= g22:
        d1 = g11 + u
        d2 = g22 + g11 - g21 + ap2
    else:
        v = g21 - g11 + ap1
        v = v if v > 0.0 else 0.0
        d1 = g11 + (v if v > u else u)
        w = g21 - g11 + g12 - g22
        d2 = g11 + (w if w > 0.0 else 0.0) + ap2
    return GdofValue(d2 if d2 < d1 else d1, "d1" if d1 <= d2 else "d2", d1, d2)


def genie_outer_bound(topology: Topology, csit: CsitQuality) -> GdofValue:
    """Centralized reference: both TXs handed the best estimate per link.

    Evaluated with the centralized closed form on alpha_max, so it shares
    no code with ``distributed_gdof`` beyond ``topology._read``: input
    validation and the effective exponents.  Validated alphas give an
    alpha_max in range.
    """
    g, alpha_max, _ = _read(topology, csit)
    return _centralized(g, alpha_max)


def scheme_layout(canonical: CanonicalForm) -> SchemeLayout:
    """Layer split achieving the distributed closed form on a canonical instance.

    The total of the rate exponents equals the corresponding GDoF value.
    """
    (g11, g12), (g21, g22) = canonical.gamma
    ap1, ap2 = canonical.alpha_prime

    if g11 == 1.0 and g22 == 1.0 and g12 == g21 and ap1 == ap2:
        # Symmetric full-strength direct links: the z-layer carries zero
        # rate and the construction reduces to common + two equal private
        # layers at power/rate exponent 1 + alpha - gamma_cross.
        rho = 1.0 + ap1 - g12
        rho = rho if rho > 0.0 else 0.0
        s0 = g12 - ap1
        power = {"s0": 1.0, "s1": rho, "s2": rho}
        rate = {"s0": s0 if s0 > 0.0 else 0.0, "s1": rho, "s2": rho}
        return SchemeLayout("case1", True, rho, power, rate)

    u = g22 - g12 + ap1
    u = u if u > 0.0 else 0.0
    if g21 <= g22:
        # rho = (min((g22 - g12 + ap1)+, g22 - g21 + ap2))+
        v = g22 - g21 + ap2
        rho = v if v < u else u
        rho = rho if rho > 0.0 else 0.0
        tau = rho + 1.0 - g22
        top = g22
        case_id = "case1"
    else:
        # rho = (min(max((g22 - g12 + ap1)+, (g21 - g11 + ap1)+),
        #            (g21 - g11 + g12 - g22)+ + ap2))+
        v = g21 - g11 + ap1
        v = v if v > 0.0 else 0.0
        m = v if v > u else u
        w = g21 - g11 + g12 - g22
        w = (w if w > 0.0 else 0.0) + ap2
        rho = w if w < m else m
        rho = rho if rho > 0.0 else 0.0
        x, y = g11 - g12, g21 - g22
        tau = rho + 1.0 - g21 + (y if y < x else x)
        top = g21
        case_id = "case2"

    # RX 2's stronger link, ``top``, sets the common layer's rate and the
    # z-layer's power; the z-layer is left out when its rate (g11 - top)+
    # would be zero.
    s0 = top - rho
    power = {"s0": 1.0, "s1": tau, "s2": tau}
    rate = {"s0": s0 if s0 > 0.0 else 0.0, "s1": rho, "s2": rho}
    z1 = g11 - top
    if z1 > 0.0:
        power["z1"] = 1.0 - top
        rate["z1"] = z1
    return SchemeLayout(case_id, False, rho, power, rate)
