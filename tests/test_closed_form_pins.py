"""Golden pins of the closed forms, the canonical relabelling and the domain checks.

The digests below were produced by the implementation that read every
2x2 entry as a numpy scalar, and re-made from the same values when an
unused field of the effective exponents was deleted.  They cover every
field of ``distributed_gdof``, ``genie_outer_bound``, ``canonicalize``,
the effective exponents (``topology._effective``, as float64 arrays)
and ``scheme_layout(canonicalize(...))``, with each float pinned to the
bit through ``float.hex`` and the layer dicts pinned in insertion order
(``SchemeLayout.rate_total`` sums in that order).  A
change here means a closed form changed, which must be a deliberate,
announced decision.
"""

import hashlib
import math

import numpy as np
import pytest

from apzf import (
    AlphaOutOfRange,
    CsitQuality,
    GammaOutOfRange,
    NoDominantTransmitter,
    Topology,
    canonicalize,
    centralized_gdof,
    distributed_gdof,
    genie_outer_bound,
    scheme_layout,
    validate,
)
from apzf.topology import _effective
from conftest import dyadic_instance

N_INSTANCES = 2000


def off_lattice_instance(rng):
    """Uniform float exponents with a dominant TX: off the dyadic lattice,
    so sums and differences round, and ties almost never occur."""
    gamma = rng.random((2, 2))
    hi = gamma * rng.random((2, 2))
    lo = hi * rng.random((2, 2))
    alpha = np.stack([hi, lo]) if rng.random() < 0.5 else np.stack([lo, hi])
    return Topology(gamma), CsitQuality(alpha)


INSTANCE_SETS = {
    "dyadic": lambda rng: dyadic_instance(rng),
    # Exponents in {0, 1/4, ..., 1}: ties in gamma (the relabelling's
    # tie-break order), zero entries and the symmetric shortcut are common.
    "coarse": lambda rng: dyadic_instance(rng, grid=4),
    "off_lattice": off_lattice_instance,
}

GOLDEN_SHA256 = {
    "dyadic": "44de9a42467244584b2c64a9d3b2c587b58279d76d3195363c85cccc5266b2ef",
    "coarse": "acf28363811952dad094f85a5d71cfe4b699cdf2e5acc7e119458c5b01075cc7",
    "off_lattice": "95911fbbe2b34aa9a100fc0047b222dff7cdc0df3be6f18897196058f490fd97",
}


def _f(x):
    assert type(x) is float, f"{x!r} is {type(x).__name__}, not float"
    return x.hex()


def _arr(x):
    assert isinstance(x, np.ndarray) and x.dtype == np.float64
    return f"{x.shape}:{x.tobytes().hex()}"


def _gdof_fields(v):
    return (_f(v.value), v.branch, _f(v.d1), _f(v.d2))


def _instance_record(topo, csit):
    canon = canonicalize(topo, csit)
    alpha_max, alpha_prime = _effective(csit.alpha.tolist())
    layout = scheme_layout(canon)
    return repr((
        _gdof_fields(distributed_gdof(topo, csit)),
        _gdof_fields(genie_outer_bound(topo, csit)),
        (canon.rx_swap, canon.tx_swap, canon.active_tx,
         _arr(canon.topology.gamma), _arr(canon.csit.alpha)),
        (_arr(np.array(alpha_max)), _arr(np.array(alpha_prime))),
        (layout.case_id, layout.parallel, _f(layout.rho),
         [(k, _f(v)) for k, v in layout.power_exp.items()],
         [(k, _f(v)) for k, v in layout.rate_exp.items()]),
    ))


@pytest.mark.parametrize("name", sorted(INSTANCE_SETS))
def test_closed_form_fields_match_golden_digest(name):
    rng = np.random.default_rng([2017, sorted(INSTANCE_SETS).index(name)])
    digest = hashlib.sha256()
    for _ in range(N_INSTANCES):
        topo, csit = INSTANCE_SETS[name](rng)
        digest.update(_instance_record(topo, csit).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == GOLDEN_SHA256[name]


NAN, INF = math.nan, math.inf


def _bad_gamma(i, k, value):
    gamma = Topology.parallel(0.5).gamma
    gamma[i, k] = value
    return Topology(gamma), CsitQuality.uniform(0.4, 0.2)


def _alpha_with(j, i, k, value):
    csit = CsitQuality.uniform(0.4, 0.2)
    csit.alpha[j, i, k] = value
    return Topology.parallel(0.5), csit


# (topology, csit) -> the exact violations, in order, as
# (type, rx, tx, tx_est, value, gamma) with None for absent attributes.
BAD_INPUTS = {
    "gamma-nan": (
        _bad_gamma(1, 0, NAN),
        [(GammaOutOfRange, 1, 0, None, NAN, None),
         (AlphaOutOfRange, 1, 0, 0, 0.4, NAN),
         (AlphaOutOfRange, 1, 0, 1, 0.2, NAN)],
    ),
    "gamma-inf": (
        _bad_gamma(0, 0, INF),
        [(GammaOutOfRange, 0, 0, None, INF, None)],
    ),
    "gamma-minus-inf": (
        _bad_gamma(1, 1, -INF),
        [(GammaOutOfRange, 1, 1, None, -INF, None),
         (AlphaOutOfRange, 1, 1, 0, 0.4, -INF),
         (AlphaOutOfRange, 1, 1, 1, 0.2, -INF)],
    ),
    "gamma-negative": (
        _bad_gamma(0, 1, -0.1),
        [(GammaOutOfRange, 0, 1, None, -0.1, None),
         (AlphaOutOfRange, 0, 1, 0, 0.4, -0.1),
         (AlphaOutOfRange, 0, 1, 1, 0.2, -0.1)],
    ),
    "gamma-above-one": (
        _bad_gamma(1, 0, 1.5),
        [(GammaOutOfRange, 1, 0, None, 1.5, None)],
    ),
    "gamma-all-bad": (
        (Topology(np.array([[NAN, -0.1], [1.5, INF]])), CsitQuality.uniform(0.4, 0.2)),
        [(GammaOutOfRange, 0, 0, None, NAN, None),
         (GammaOutOfRange, 0, 1, None, -0.1, None),
         (GammaOutOfRange, 1, 0, None, 1.5, None),
         (GammaOutOfRange, 1, 1, None, INF, None),
         (AlphaOutOfRange, 0, 0, 0, 0.4, NAN),
         (AlphaOutOfRange, 0, 1, 0, 0.4, -0.1),
         (AlphaOutOfRange, 0, 0, 1, 0.2, NAN),
         (AlphaOutOfRange, 0, 1, 1, 0.2, -0.1)],
    ),
    "alpha-above-gamma": (
        _alpha_with(0, 0, 1, 0.6),
        [(AlphaOutOfRange, 0, 1, 0, 0.6, 0.5)],
    ),
    "alpha-above-gamma-and-no-dominant-tx": (
        _alpha_with(1, 0, 1, 0.7),
        [(AlphaOutOfRange, 0, 1, 1, 0.7, 0.5), (NoDominantTransmitter,)],
    ),
    "alpha-nan": (
        _alpha_with(0, 1, 1, NAN),
        [(AlphaOutOfRange, 1, 1, 0, NAN, 1.0), (NoDominantTransmitter,)],
    ),
    "alpha-negative": (
        _alpha_with(1, 1, 0, -0.1),
        [(AlphaOutOfRange, 1, 0, 1, -0.1, 0.5)],
    ),
    "no-dominant-tx": (
        _alpha_with(0, 1, 1, 0.1),
        [(NoDominantTransmitter,)],
    ),
}


def _bits(x):
    return None if x is None else _f(x)


def _violation_key(v):
    if isinstance(v, NoDominantTransmitter):
        return (NoDominantTransmitter,)
    return (type(v), v.rx, v.tx, getattr(v, "tx_est", None),
            _bits(v.value), _bits(getattr(v, "gamma", None)))


def _expected_key(e):
    if len(e) == 1:
        return e
    kind, rx, tx, tx_est, value, gamma = e
    return (kind, rx, tx, tx_est, value.hex(), None if gamma is None else gamma.hex())


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_validate_violations_are_pinned(case):
    (topo, csit), expected = BAD_INPUTS[case]
    got = validate(topo, csit).violations
    assert [type(v) for v in got] == [e[0] for e in expected]
    assert [_violation_key(v) for v in got] == [_expected_key(e) for e in expected]
    with pytest.raises(expected[0][0]) as info:
        canonicalize(topo, csit)
    assert _violation_key(info.value) == _expected_key(expected[0])


@pytest.mark.parametrize(
    "gamma_entry, alpha_entry, expected",
    [
        (((1, 0), NAN), None, (GammaOutOfRange, 1, 0, None, NAN, None)),
        (((0, 0), INF), None, (GammaOutOfRange, 0, 0, None, INF, None)),
        (((0, 1), -0.1), None, (GammaOutOfRange, 0, 1, None, -0.1, None)),
        (None, ((0, 1), 0.6), (AlphaOutOfRange, 0, 1, -1, 0.6, 0.5)),
        (None, ((1, 1), NAN), (AlphaOutOfRange, 1, 1, -1, NAN, 1.0)),
        (None, ((1, 0), -0.1), (AlphaOutOfRange, 1, 0, -1, -0.1, 0.5)),
    ],
)
def test_centralized_gdof_raises_pinned_violation(gamma_entry, alpha_entry, expected):
    gamma = Topology.parallel(0.5).gamma
    alpha = np.full((2, 2), 0.4)
    if gamma_entry is not None:
        gamma[gamma_entry[0]] = gamma_entry[1]
    if alpha_entry is not None:
        alpha[alpha_entry[0]] = alpha_entry[1]
    with pytest.raises(expected[0]) as info:
        centralized_gdof(Topology(gamma), alpha)
    assert _violation_key(info.value) == _expected_key(expected)
