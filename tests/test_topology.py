import pickle

import numpy as np
import pytest

from apzf import (
    AlphaOutOfRange,
    ConfigError,
    CsitQuality,
    GammaOutOfRange,
    InsufficientPoints,
    NoDominantTransmitter,
    PowerInfeasible,
    Topology,
    ValidationError,
    canonicalize,
    effective_alphas,
    validate,
)
from apzf.topology import dyadic_instance


def test_topology_shape_checked():
    with pytest.raises(ValueError):
        Topology(np.ones((3, 2)))


def test_csit_shape_checked():
    with pytest.raises(ValueError):
        CsitQuality(np.ones((2, 2)))


def test_parallel_constructor():
    t = Topology.parallel(0.8)
    assert np.array_equal(t.gamma, [[1.0, 0.8], [0.8, 1.0]])


def test_uniform_constructor():
    c = CsitQuality.uniform(0.5, 0.2)
    assert np.all(c.alpha[0] == 0.5) and np.all(c.alpha[1] == 0.2)


def test_validate_passes_on_ordered_qualities():
    report = validate(Topology(np.ones((2, 2))), CsitQuality.uniform(0.5, 0.2))
    assert report.passes
    report.raise_first()  # no-op when clean


def test_validate_flags_no_dominant_tx():
    a1 = np.full((2, 2), 0.5)
    a1[1, 1] = 0.6
    a2 = np.full((2, 2), 0.2)
    a2[0, 0] = 0.7
    a2[1, 1] = 0.1
    report = validate(Topology(np.ones((2, 2))), CsitQuality(np.stack([a1, a2])))
    assert not report.passes
    assert any(isinstance(v, NoDominantTransmitter) for v in report.violations)


def test_validate_flags_alpha_above_gamma():
    gamma = np.ones((2, 2))
    gamma[0, 1] = 0.3
    alpha = np.zeros((2, 2, 2))
    alpha[0, 0, 1] = 0.4
    report = validate(Topology(gamma), CsitQuality(alpha))
    v = report.violations[0]
    assert isinstance(v, AlphaOutOfRange)
    assert (v.tx_est, v.rx, v.tx) == (0, 0, 1)


def test_validate_flags_gamma_out_of_range():
    gamma = np.ones((2, 2))
    gamma[1, 0] = 1.2
    report = validate(Topology(gamma), CsitQuality(np.zeros((2, 2, 2))))
    v = report.violations[0]
    assert isinstance(v, GammaOutOfRange)
    assert (v.rx, v.tx) == (1, 0)


def test_validate_collects_multiple_violations():
    gamma = np.array([[1.0, -0.1], [0.5, 1.0]])
    alpha = np.zeros((2, 2, 2))
    alpha[1, 1, 0] = 0.9  # exceeds gamma[1, 0] = 0.5
    report = validate(Topology(gamma), CsitQuality(alpha))
    kinds = {type(v) for v in report.violations}
    assert GammaOutOfRange in kinds and AlphaOutOfRange in kinds
    with pytest.raises(GammaOutOfRange):
        report.raise_first()


def test_canonicalize_moves_max_gamma_to_corner():
    t = Topology(np.array([[0.5, 0.6], [0.7, 1.0]]))
    c = CsitQuality.uniform(0.3, 0.1)
    canon = canonicalize(t, c)
    assert (canon.rx_swap, canon.tx_swap) == (True, True)
    assert np.array_equal(canon.topology.gamma, [[1.0, 0.7], [0.6, 0.5]])


def test_canonicalize_fixed_point_gets_identity_flags():
    t = Topology(np.array([[1.0, 0.7], [0.6, 0.5]]))
    canon = canonicalize(t, CsitQuality.uniform(0.3, 0.1))
    assert (canon.rx_swap, canon.tx_swap) == (False, False)


def test_canonicalize_all_equal_prefers_no_swap():
    canon = canonicalize(Topology(np.ones((2, 2))), CsitQuality.uniform(0.5, 0.2))
    assert (canon.rx_swap, canon.tx_swap) == (False, False)


def test_canonicalize_rejects_invalid_input():
    with pytest.raises(NoDominantTransmitter):
        a = np.zeros((2, 2, 2))
        a[0, 0, 0] = 0.5
        a[1, 1, 1] = 0.5
        canonicalize(Topology(np.ones((2, 2))), CsitQuality(a))


def test_canonicalize_permutes_alpha_with_gamma():
    # Distinct entries everywhere so any mis-permutation is visible.
    gamma = np.array([[0.5, 0.6], [0.7, 1.0]])
    alpha = np.stack([gamma * 0.5, gamma * 0.25])
    canon = canonicalize(Topology(gamma), CsitQuality(alpha))
    # alpha <= gamma entrywise must survive the relabelling, which pins
    # the column permutation to the one applied to gamma.  A TX swap also
    # renames the transmitters, so the dominant matrix (0.5 * gamma)
    # lands at index active_tx.
    for j in range(2):
        assert np.all(canon.csit.alpha[j] <= canon.topology.gamma + 1e-15)
    act = canon.active_tx
    assert np.allclose(canon.csit.alpha[act], canon.topology.gamma * 0.5)
    assert np.allclose(canon.csit.alpha[1 - act], canon.topology.gamma * 0.25)


def test_canonicalize_tracks_dominant_tx_across_swap():
    # TX 2 is the better-informed one; a TX swap moves it to index 0.
    gamma = np.array([[0.5, 1.0], [0.4, 0.6]])
    alpha = np.zeros((2, 2, 2))
    alpha[1] = gamma * 0.5
    canon = canonicalize(Topology(gamma), CsitQuality(alpha))
    assert canon.tx_swap
    assert canon.active_tx == 0
    a = canon.csit.alpha
    assert np.all(a[canon.active_tx] >= a[1 - canon.active_tx])


def test_canonicalize_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(200):
        topo, csit = dyadic_instance(rng)
        once = canonicalize(topo, csit)
        twice = canonicalize(once.topology, once.csit)
        assert not twice.rx_swap and not twice.tx_swap
        assert np.array_equal(once.topology.gamma, twice.topology.gamma)
        assert np.array_equal(once.csit.alpha, twice.csit.alpha)


def test_effective_alphas_uniform_case():
    eff = effective_alphas(Topology(np.ones((2, 2))), CsitQuality.uniform(0.5, 0.2))
    assert np.all(eff.alpha_max == 0.5)
    assert np.all(eff.alpha_prime == 0.5)


def test_effective_alphas_max_then_row_min():
    a1 = np.array([[0.4, 0.6], [0.2, 0.5]])
    eff = effective_alphas(
        Topology(np.ones((2, 2))), CsitQuality(np.stack([a1, np.zeros((2, 2))]))
    )
    assert np.array_equal(eff.alpha_prime, [0.4, 0.2])


def test_effective_alphas_commute_with_rx_relabel():
    rng = np.random.default_rng(11)
    for _ in range(100):
        topo, csit = dyadic_instance(rng)
        eff = effective_alphas(topo, csit)
        swapped = effective_alphas(
            Topology(topo.gamma[::-1, :]), CsitQuality(csit.alpha[:, ::-1, :])
        )
        assert np.array_equal(eff.alpha_prime[::-1], swapped.alpha_prime)


def test_alpha_prime_matches_direct_recomputation():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        topo, csit = dyadic_instance(rng)
        eff = effective_alphas(topo, csit)
        a = csit.alpha
        for i in range(2):
            direct = min(max(a[0, i, k], a[1, i, k]) for k in range(2))
            assert eff.alpha_prime[i] == direct
            assert eff.alpha_prime[i] <= topo.gamma[i].min() + 1e-15


# One instance of each error a sweep may raise, with the fields it carries.
_ERRORS = {
    "GammaOutOfRange": (GammaOutOfRange(0, 1, 1.5), {"rx": 0, "tx": 1, "value": 1.5}),
    "AlphaOutOfRange": (
        AlphaOutOfRange(1, 0, 1, 0.9, 0.8),
        {"tx_est": 1, "rx": 0, "tx": 1, "value": 0.9, "gamma": 0.8},
    ),
    "NoDominantTransmitter": (NoDominantTransmitter(), {}),
    "ConfigError": (ConfigError("x" * 200), {}),
    "InsufficientPoints": (InsufficientPoints("need >= 2 points"), {}),
    "PowerInfeasible": (PowerInfeasible("per-TX power exceeds budget P = 1e4"), {}),
}


def test_every_validation_error_has_a_pickling_case():
    assert {cls.__name__ for cls in ValidationError.__subclasses__()} <= set(_ERRORS)


@pytest.mark.parametrize("name", sorted(_ERRORS))
def test_errors_survive_pickling(name):
    # A pool worker's exception reaches the parent pickled; one that does
    # not round-trip breaks the pool instead of giving its exit code.
    error, fields = _ERRORS[name]
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error)
    assert {k: getattr(copy, k) for k in fields} == fields
