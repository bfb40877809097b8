"""Self-checks of the paper's claims, shared by ``apzf validate`` and the tests.

Each check returns ``(ok, detail)``: a Python bool and a one-line
description of what it measured.  The closed-form checks take no rng:
they run every instance of ``lattice(2)``.  The others draw from the
caller's seeded ``rng`` in a fixed order, so each verdict is repeatable.

The checks measure the kernel's outputs with plain complex numpy: they
rebuild complex arrays with a leading draw axis from the kernel's
(re, im)-first, draws-last arrays (``_complex``), so a fault in the
kernel's own complex arithmetic cannot hide itself.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .channel import NORMALS_PER_DRAW, sample_channel, sample_csit
from .gdof import distributed_gdof, genie_outer_bound, scheme_layout
from .harness import fit_exponent, simulate_snr, sweep
from .precoders import apzf
from .topology import CsitQuality, Topology, canonicalize, dyadic_instance

__all__ = ["cancellation", "closed_form_identity", "coefficient_exponents", "determinism",
           "lattice", "layout_totals", "received_exponents"]


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


def cancellation(rng, n):
    """With perfect CSIT and no regularizer, AP-ZF aimed at either receiver
    leaves a relative residual below 1e-10 at the other one."""
    p = 1e6
    worst = 0.0
    for _ in range(n):
        topo, _ = dyadic_instance(rng)
        h = sample_channel(topo, p, rng.standard_normal((1, 8)))
        hc = _complex(h)
        for tgt in (0, 1):
            t = _complex(apzf(h, tgt, 1.0, topo, p, regularize=False))
            resid = abs((hc @ t[..., None])[0, 1 - tgt, 0])
            scale = np.linalg.norm(hc[0, 1 - tgt]) * np.linalg.norm(t[0]) + 1e-300
            worst = max(worst, float(resid / scale))
    return worst < 1e-10, f"{n} draws, worst relative residual = {worst:.3g}"


def coefficient_exponents(rng, n_topologies, draws):
    """The fitted power exponents of the AP-ZF coefficients match
    ``tau - (gamma[victim, k] - gamma[victim, 1-k])+`` within 0.05."""
    grid = np.logspace(4, 8, 5)
    worst = 0.0
    for _ in range(n_topologies):
        gamma = 0.3 + 0.7 * rng.random((2, 2))
        topo = Topology(gamma)
        csit = CsitQuality(np.stack([gamma * rng.random((2, 2)), np.zeros((2, 2))]))
        tau = 0.5 + 0.5 * rng.random()
        acc = np.zeros((len(grid), 2, 2))  # mean log power, [P, target, tx]
        for ip, p in enumerate(grid):
            z = rng.standard_normal((draws, NORMALS_PER_DRAW))
            h_hat = sample_csit(sample_channel(topo, p, z), topo, csit, p, z, tx=0)
            for tgt in (0, 1):
                t = _complex(apzf(h_hat, tgt, tau, topo, p))
                acc[ip, tgt] = np.log(np.abs(t) ** 2).mean(axis=0)
        for tgt in (0, 1):
            victim = 1 - tgt
            for k in (0, 1):
                expected = tau - max(float(gamma[victim, k] - gamma[victim, 1 - k]), 0.0)
                slope = fit_exponent(list(zip(grid, np.exp(acc[:, tgt, k]))))
                worst = max(worst, abs(slope - expected))
    return worst < 0.05, f"{n_topologies} topologies, worst |fit - exponent| = {worst:.4f}"


def received_exponents(rng, n_topologies, draws):
    """The fitted received-power exponents of AP-ZF's private vectors: at
    the intended receiver within 0.1 of
    ``tau - 1 + max_k (gamma[target, k] - (gamma[victim, k] - gamma[victim, 1-k])+)``,
    and at the other (victim) receiver at most 0.1 above the leakage bound
    ``tau - 1 + min gamma[victim] - min alpha[victim]``."""
    grid = np.logspace(4, 8, 5)
    worst_intended = 0.0
    worst_excess = -np.inf
    for _ in range(n_topologies):
        gamma = 0.3 + 0.7 * rng.random((2, 2))
        topo = Topology(gamma)
        a1 = np.empty((2, 2))
        for row in (0, 1):
            a1[row, :] = rng.uniform(0.0, gamma[row].min())
        csit = CsitQuality(np.stack([a1, np.zeros((2, 2))]))
        tau = 0.5 + 0.5 * rng.random()
        acc = np.zeros((len(grid), 2, 2))  # mean log received power, [P, target, rx]
        for ip, p in enumerate(grid):
            z = rng.standard_normal((draws, NORMALS_PER_DRAW))
            h = sample_channel(topo, p, z)
            h_hat = sample_csit(h, topo, csit, p, z, tx=0)
            for tgt in (0, 1):
                t = _complex(apzf(h_hat, tgt, tau, topo, p))
                acc[ip, tgt] = np.log(np.abs((_complex(h) @ t[..., None])[..., 0]) ** 2).mean(axis=0)
        for tgt in (0, 1):
            victim = 1 - tgt
            expected = tau - 1.0 + max(
                gamma[tgt, k] - max(float(gamma[victim, k] - gamma[victim, 1 - k]), 0.0)
                for k in (0, 1)
            )
            fit_int = fit_exponent(list(zip(grid, np.exp(acc[:, tgt, tgt]))))
            worst_intended = max(worst_intended, abs(fit_int - expected))
            bound = tau - 1.0 + gamma[victim].min() - a1[victim].min()
            fit_itf = fit_exponent(list(zip(grid, np.exp(acc[:, tgt, victim]))))
            worst_excess = max(worst_excess, fit_itf - bound)
    return bool(worst_intended < 0.1 and worst_excess < 0.1), (
        f"{n_topologies} topologies, worst intended |fit - formula| = {worst_intended:.4f}, "
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
