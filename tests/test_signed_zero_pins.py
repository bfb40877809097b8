"""Golden pins of the closed forms on signed zeros and ties.

Builtin ``max``/``min`` keep the first of two equal operands, while
``numpy.maximum``/``numpy.minimum`` return the second, so on a ``-0.0``
against ``0.0`` tie the two give different bits.  These digests pin
which zero every field of ``distributed_gdof``, ``genie_outer_bound``,
``canonicalize``, the effective exponents (``topology._effective``) and
``scheme_layout(canonicalize(...))`` carries, on instances built to hit
such ties:

* ``zero-sign-ties``: gamma entries in {-0.0, 0.0, 1.0} and every
  assignment of -0.0 and 0.0 to the eight alpha entries, so the two
  TXs' alphas tie with either sign order in every entry;
* ``gamma-ties``: gamma entries in {-0.0, 0.0, 0.5, 1.0}, so the
  largest gamma ties at every subset of the relabelling positions, with
  dyadic alphas whose zeros carry random signs;
* ``signed-zero-random``: coarse dyadic instances with every zero entry
  of gamma and alpha given a random sign.

The record of each instance is the one of ``test_closed_form_pins``.
"""

import hashlib
import itertools

import numpy as np
import pytest
from test_closed_form_pins import _instance_record

from apzf import CsitQuality, Topology
from conftest import dyadic_instance


def _signed_zeros(rng, x):
    """``x`` with each zero entry given a random sign."""
    x = np.array(x, dtype=float)
    flip = (x == 0.0) & (rng.random(x.shape) < 0.5)
    x[flip] = -0.0
    return x


def _zero_sign_ties():
    for gamma in itertools.product((-0.0, 0.0, 1.0), repeat=4):
        for alpha in itertools.product((-0.0, 0.0), repeat=8):
            yield Topology(np.reshape(gamma, (2, 2))), CsitQuality(np.reshape(alpha, (2, 2, 2)))


def _gamma_ties():
    rng = np.random.default_rng([2017, 1, 1])
    for gamma in itertools.product((-0.0, 0.0, 0.5, 1.0), repeat=4):
        gamma = np.reshape(gamma, (2, 2))
        for _ in range(8):
            hi = np.floor(gamma * 4 * rng.random((2, 2))) / 4
            lo = np.floor(hi * 4 * rng.random((2, 2))) / 4
            alpha = np.stack([hi, lo]) if rng.random() < 0.5 else np.stack([lo, hi])
            yield Topology(gamma), CsitQuality(_signed_zeros(rng, alpha))


def _signed_zero_random():
    rng = np.random.default_rng([2017, 1, 2])
    for _ in range(2000):
        topo, csit = dyadic_instance(rng, grid=4)
        yield Topology(_signed_zeros(rng, topo.gamma)), CsitQuality(_signed_zeros(rng, csit.alpha))


INSTANCE_SETS = {
    "zero-sign-ties": _zero_sign_ties,
    "gamma-ties": _gamma_ties,
    "signed-zero-random": _signed_zero_random,
}

GOLDEN_SHA256 = {
    "zero-sign-ties": "8d6802d08fcd818320c2482f454df711832a9da86fd312e57cd57edc210e8256",
    "gamma-ties": "7600adec15a0cd52d1e2ebf49fac5c60a644ac3a6a936fbb04572e8f74b5b5ce",
    "signed-zero-random": "13174028e3a7a68e60f7ed719176f2d5cbe42f9137f137516e84cfb3afbfcca2",
}


@pytest.mark.parametrize("name", sorted(INSTANCE_SETS))
def test_signed_zero_fields_match_golden_digest(name):
    digest = hashlib.sha256()
    for topo, csit in INSTANCE_SETS[name]():
        digest.update(_instance_record(topo, csit).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == GOLDEN_SHA256[name]


def test_instances_hit_signed_zero_ties():
    # The sets must contain what they are for: -0.0 in every input
    # position, and both sign orders of a zero tie between the two TXs.
    gammas, alphas = [], []
    for make in INSTANCE_SETS.values():
        for topo, csit in make():
            gammas.append(topo.gamma)
            alphas.append(csit.alpha)
    gammas, alphas = np.array(gammas), np.array(alphas)
    assert np.signbit(gammas[gammas == 0.0].reshape(-1)).any()
    for i, k in itertools.product((0, 1), repeat=2):
        g = gammas[:, i, k]
        assert (np.signbit(g) & (g == 0.0)).any()
        a0, a1 = alphas[:, 0, i, k], alphas[:, 1, i, k]
        zeros = (a0 == 0.0) & (a1 == 0.0)
        assert (zeros & np.signbit(a0) & ~np.signbit(a1)).any()
        assert (zeros & ~np.signbit(a0) & np.signbit(a1)).any()
