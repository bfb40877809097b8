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

All four read their input arrays once and work on Python floats through
the list helpers of ``apzf.topology``, with no numpy ufunc and no
intermediate ``Topology``, ``CsitQuality`` or ``CanonicalForm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import (
    CanonicalForm,
    CsitQuality,
    Topology,
    _canonical,
    _checked,
    _effective,
    _range_violations,
)

__all__ = [
    "GdofValue",
    "SchemeLayout",
    "centralized_gdof",
    "distributed_gdof",
    "genie_outer_bound",
    "scheme_layout",
]


def _pos(x: float) -> float:
    return x if x > 0.0 else 0.0


@dataclass
class GdofValue:
    """A sum-GDoF value together with the bound that attains it.

    ``value = min(d1, d2)``; ``branch`` is "d1" when d1 <= d2 (ties go
    to d1) and "d2" otherwise.
    """

    value: float
    branch: str
    d1: float
    d2: float


@dataclass
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
    a1, a2 = min(al[0]), min(al[1])
    d1 = max(g12, g11) + max(_pos(g21 - g11 + a1), _pos(g22 - g12 + a1))
    d2 = max(g22, g21) + max(_pos(g12 - g22 + a2), _pos(g11 - g21 + a2))
    value = min(d1, d2)
    return GdofValue(value, "d1" if d1 <= d2 else "d2", d1, d2)


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
    violations = _range_violations(g, [al], (-1,))
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
    g, a, *_ = _canonical(*_checked(topology, csit))
    ap1, ap2 = _effective(a)[1]
    (g11, g12), (g21, g22) = g
    if g21 <= g22:
        d1 = g11 + _pos(g22 - g12 + ap1)
        d2 = g22 + g11 - g21 + ap2
    else:
        d1 = g11 + max(_pos(g22 - g12 + ap1), _pos(g21 - g11 + ap1))
        d2 = g11 + _pos(g21 - g11 + g12 - g22) + ap2
    value = min(d1, d2)
    return GdofValue(value, "d1" if d1 <= d2 else "d2", d1, d2)


def genie_outer_bound(topology: Topology, csit: CsitQuality) -> GdofValue:
    """Centralized reference: both TXs handed the best estimate per link.

    Evaluated with the centralized closed form on alpha_max, so it shares
    no code with ``distributed_gdof`` beyond input validation and the
    effective exponents.  Validated alphas give an alpha_max in range.
    """
    g, a = _checked(topology, csit)
    return _centralized(g, _effective(a)[0])


def _case_layout(g: list, ap1: float, ap2: float) -> SchemeLayout:
    (g11, g12), (g21, g22) = g

    if g11 == 1.0 and g22 == 1.0 and g12 == g21 and ap1 == ap2:
        # Symmetric full-strength direct links: the z-layer carries zero
        # rate and the construction reduces to common + two equal private
        # layers at power/rate exponent 1 + alpha - gamma_cross.
        rho = _pos(1.0 + ap1 - g12)
        power = {"s0": 1.0, "s1": rho, "s2": rho}
        rate = {"s0": _pos(g12 - ap1), "s1": rho, "s2": rho}
        return SchemeLayout("case1", True, rho, power, rate)

    if g21 <= g22:
        rho = _pos(min(_pos(g22 - g12 + ap1), g22 - g21 + ap2))
        tau = rho + 1.0 - g22
        tau_z = 1.0 - g22
        power = {"s0": 1.0, "s1": tau, "s2": tau, "z1": tau_z}
        rate = {"s0": _pos(g22 - rho), "s1": rho, "s2": rho, "z1": _pos(g11 - g22)}
        case_id = "case1"
    else:
        rho = _pos(
            min(
                max(_pos(g22 - g12 + ap1), _pos(g21 - g11 + ap1)),
                _pos(g21 - g11 + g12 - g22) + ap2,
            )
        )
        tau = rho + 1.0 - g21 + min(g11 - g12, g21 - g22)
        tau_z = 1.0 - g21
        power = {"s0": 1.0, "s1": tau, "s2": tau, "z1": tau_z}
        rate = {"s0": _pos(g21 - rho), "s1": rho, "s2": rho, "z1": _pos(g11 - g21)}
        case_id = "case2"

    if rate.get("z1") == 0.0:
        del rate["z1"]
        del power["z1"]
    return SchemeLayout(case_id, False, rho, power, rate)


def scheme_layout(canonical: CanonicalForm) -> SchemeLayout:
    """Layer split achieving the distributed closed form on a canonical instance.

    The total of the rate exponents equals the corresponding GDoF value.
    """
    ap1, ap2 = _effective(canonical.csit.alpha.tolist())[1]
    return _case_layout(canonical.topology.gamma.tolist(), ap1, ap2)
