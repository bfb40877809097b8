"""Self-checks of the paper's claims, shared by ``apzf validate`` and the tests.

Each check returns ``(ok, detail)``: a Python bool and a one-line
description of what it measured.  The closed-form checks take no rng:
they run every instance of ``lattice(2)``.  The others draw from the
caller's seeded ``rng`` in a fixed order, so each verdict is repeatable.

The checks measure the kernel's outputs with plain complex numpy: they
rebuild complex arrays with a leading draw axis from the kernel's
(re, im)-first, draws-last arrays (``_complex``), so a fault in the
kernel's own complex arithmetic cannot hide itself.  What they measure
is what the sweep runs: the shipped ``precoders.apzf``, 1/P regularizer
included, and the sweep's slope fit, ``harness.estimate_slope``.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .channel import NORMALS_PER_DRAW, sample_channel, sample_csit
from .gdof import distributed_gdof, genie_outer_bound, scheme_layout
from .harness import _snr_power, estimate_slope, simulate_snr, sweep
from .precoders import apzf
from .topology import CsitQuality, Topology, canonicalize

__all__ = ["cancellation", "closed_form_identity", "determinism", "lattice", "layout_totals",
           "power_exponents"]


def _complex(x: np.ndarray) -> np.ndarray:
    """The complex array, draw axis first, that the kernel array ``x`` holds."""
    return np.moveaxis(x[0] + 1j * x[1], -1, 0)


def lattice(grid):
    """Every valid ``(topology, csit)`` of the 1/grid lattice, in a fixed order.

    Every gamma, in ``itertools.product`` order over its entries
    (row-major); for each, every choice of a pair ``lo <= hi <= gamma``
    per entry; for each, TX 0 holding ``hi`` and TX 1 ``lo``, then the
    other way round, the second left out when ``lo`` equals ``hi``.  No
    RNG is drawn.  The 1/2 lattice has 18,704 instances.
    """
    for g in itertools.product(range(grid + 1), repeat=4):
        pairs = [[(lo, hi) for hi in range(k + 1) for lo in range(hi + 1)] for k in g]
        gamma = np.reshape(g, (2, 2)) / grid
        for entries in itertools.product(*pairs):
            lo, hi = zip(*entries)
            yield Topology(gamma.copy()), CsitQuality(np.reshape(hi + lo, (2, 2, 2)) / grid)
            if lo != hi:
                yield Topology(gamma.copy()), CsitQuality(np.reshape(lo + hi, (2, 2, 2)) / grid)


def closed_form_identity():
    """Distributed CSIT reaches the centralized reference on the 1/2 lattice,
    bit for bit: ``float.hex`` tells -0.0 from 0.0."""
    for n, (topo, csit) in enumerate(lattice(2), 1):
        if distributed_gdof(topo, csit).value.hex() != genie_outer_bound(topo, csit).value.hex():
            return False, f"mismatch at gamma={topo.gamma.tolist()}, alpha={csit.alpha.tolist()}"
    return True, f"{n} lattice instances (1/2 grid), bit-exact"


def layout_totals():
    """The layer rate exponents sum to the closed form within 1e-12 on the 1/2 lattice."""
    worst = 0.0
    for n, (topo, csit) in enumerate(lattice(2), 1):
        layout = scheme_layout(canonicalize(topo, csit))
        # diff first: max then keeps a NaN, and "not <=" fails it.
        worst = max(abs(layout.rate_total() - distributed_gdof(topo, csit).value), worst)
        if not worst <= 1e-12:
            return False, (f"layout sum off by {worst:g} at "
                           f"gamma={topo.gamma.tolist()}, alpha={csit.alpha.tolist()}")
    return True, f"{n} lattice instances (1/2 grid), max |diff| = {worst:g}"


def _instance(rng):
    """A random ``(topology, csit)``: every gamma in [0.3, 1), TX 0's
    alpha drawn per row below that row's weaker link, TX 1 with none.

    The Monte Carlo checks draw their instances from this, so its
    sequence of ``rng`` calls is part of their seeded output."""
    gamma = 0.3 + 0.7 * rng.random((2, 2))
    alpha = np.zeros((2, 2, 2))
    for row in (0, 1):
        alpha[0, row, :] = rng.uniform(0.0, gamma[row].min())
    return Topology(gamma), CsitQuality(alpha)


# The levels in dB at which the exponent fits sample, and their powers.
_P_GRID_DB = (40.0, 50.0, 60.0, 70.0, 80.0)
_P_GRID = np.array([_snr_power(db) for db in _P_GRID_DB])


def _fitted_exponent(mean_log2_power) -> float:
    """The exponent of a power whose mean log2 is ``mean_log2_power`` at
    each P of ``_P_GRID``: the sweep's own fit, ``estimate_slope``, over
    40-80 dB."""
    return estimate_slope(list(zip(_P_GRID_DB, mean_log2_power)), (40.0, 80.0))


def cancellation(rng, n):
    """With perfect CSIT, AP-ZF aimed at either receiver leaves a relative
    residual below 1e-10 at the other one.

    The vectors are the sweep's own, 1/P regularizer included.  At P =
    1e100 (1000 dB) and gamma >= 0.3, the regularizer's share of the
    residual is at most about P**-0.3, far below float64 rounding."""
    p = 1e100
    worst = 0.0
    for _ in range(n):
        topo, _ = _instance(rng)
        h = sample_channel(topo, p, rng.standard_normal((1, 8)))
        hc = _complex(h)
        for tgt in (0, 1):
            t = _complex(apzf(h, tgt, 1.0, topo, p))
            resid = abs((hc @ t[..., None])[0, 1 - tgt, 0])
            scale = np.linalg.norm(hc[0, 1 - tgt]) * np.linalg.norm(t[0]) + 1e-300
            worst = max(worst, float(resid / scale))
    return worst < 1e-10, f"{n} draws, worst relative residual = {worst:.3g}"


def power_exponents(rng, n_topologies, draws):
    """The fitted power exponents of AP-ZF's private vectors, made from TX
    0's estimate and aimed at a target with the other receiver as victim:

    * each TX k's coefficient within 0.05 of
      ``tau - (gamma[victim, k] - gamma[victim, 1-k])+``;
    * the received power at the target within 0.1 of
      ``tau - 1 + max_k (gamma[target, k] - (gamma[victim, k] - gamma[victim, 1-k])+)``;
    * the received power at the victim (the leakage) at most 0.1 above
      ``tau - 1 + min gamma[victim] - min alpha[victim]``.
    """
    worst_coef = worst_intended = 0.0
    worst_excess = -np.inf
    for _ in range(n_topologies):
        topo, csit = _instance(rng)
        gamma, alpha = topo.gamma, csit.alpha[0]
        tau = 0.5 + 0.5 * rng.random()
        coef = np.zeros((len(_P_GRID), 2, 2))  # mean log2 power, [P, target, tx]
        recv = np.zeros((len(_P_GRID), 2, 2))  # mean log2 received power, [P, target, rx]
        for ip, p in enumerate(_P_GRID):
            z = rng.standard_normal((draws, NORMALS_PER_DRAW))
            h = sample_channel(topo, p, z)
            hc = _complex(h)
            h_hat = sample_csit(h, topo, csit, p, z, tx=0)
            for tgt in (0, 1):
                t = _complex(apzf(h_hat, tgt, tau, topo, p))
                coef[ip, tgt] = np.log2(np.abs(t) ** 2).mean(axis=0)
                recv[ip, tgt] = np.log2(np.abs((hc @ t[..., None])[..., 0]) ** 2).mean(axis=0)
        for tgt in (0, 1):
            victim = 1 - tgt
            back_off = [max(float(gamma[victim, k] - gamma[victim, 1 - k]), 0.0) for k in (0, 1)]
            for k in (0, 1):
                worst_coef = max(worst_coef, abs(_fitted_exponent(coef[:, tgt, k]) - (tau - back_off[k])))
            expected = tau - 1.0 + max(gamma[tgt, k] - back_off[k] for k in (0, 1))
            worst_intended = max(worst_intended, abs(_fitted_exponent(recv[:, tgt, tgt]) - expected))
            bound = tau - 1.0 + gamma[victim].min() - alpha[victim].min()
            worst_excess = max(worst_excess, _fitted_exponent(recv[:, tgt, victim]) - bound)
    ok = worst_coef < 0.05 and worst_intended < 0.1 and worst_excess < 0.1
    return bool(ok), (
        f"{n_topologies} topologies, worst coefficient |fit - exponent| = {worst_coef:.4f}, "
        f"worst intended |fit - formula| = {worst_intended:.4f}, "
        f"worst interference fit - bound = {worst_excess:.4f}"
    )


def determinism(config):
    """Simulating the first SNR point twice gives identical results, and
    they equal that point's in a two-point sweep (draws do not depend on
    the grid).  The other point is 10 dB away, on the side that stays in
    the accepted SNR range."""
    first = config.snr_db[0]
    a = simulate_snr(config, first)
    b = simulate_snr(config, first)
    pair = (first - 10.0, first) if first > 0 else (first, first + 10.0)
    swept = sweep(dataclasses.replace(config, snr_db=pair))
    in_sweep = {s: pts[pair.index(first)] for s, pts in swept.points.items()}
    return a == b == in_sweep, (
        f"{len(a)} schemes, repeated point identical: {a == b}, "
        f"equal to it in a two-point sweep: {a == in_sweep}"
    )
