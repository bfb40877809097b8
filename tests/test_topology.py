import dataclasses
import math
import pickle
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apzf import (
    AlphaOutOfRange,
    CanonicalForm,
    ConfigError,
    CsitQuality,
    centralized_gdof,
    GammaOutOfRange,
    InsufficientPoints,
    NoDominantTransmitter,
    PowerInfeasible,
    Topology,
    ValidationError,
    canonicalize,
    distributed_gdof,
    genie_outer_bound,
    validate,
)
import apzf.gdof as gdof_module
import apzf.topology as topology_module
from apzf.gdof import scheme_layout
from apzf.topology import _RELABELLINGS, _canonical, _domain, _effective, _read
from conftest import dyadic_instance
from test_signed_zero_pins import INSTANCE_SETS as SIGNED_ZERO_SETS


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


def _effective_arrays(csit):
    """``(alpha_max, alpha_prime)`` of ``csit`` as float64 arrays."""
    alpha_max, alpha_prime = _effective(csit.alpha.tolist())
    return np.array(alpha_max), np.array(alpha_prime)


def test_effective_alphas_uniform_case():
    alpha_max, alpha_prime = _effective_arrays(CsitQuality.uniform(0.5, 0.2))
    assert np.all(alpha_max == 0.5)
    assert np.all(alpha_prime == 0.5)


def test_effective_alphas_max_then_row_min():
    a1 = np.array([[0.4, 0.6], [0.2, 0.5]])
    _, alpha_prime = _effective_arrays(CsitQuality(np.stack([a1, np.zeros((2, 2))])))
    assert np.array_equal(alpha_prime, [0.4, 0.2])


def test_effective_alphas_commute_with_rx_relabel():
    rng = np.random.default_rng(11)
    for _ in range(100):
        topo, csit = dyadic_instance(rng)
        _, alpha_prime = _effective_arrays(csit)
        _, swapped = _effective_arrays(CsitQuality(csit.alpha[:, ::-1, :]))
        assert np.array_equal(alpha_prime[::-1], swapped)


def test_alpha_prime_matches_direct_recomputation():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        topo, csit = dyadic_instance(rng)
        _, alpha_prime = _effective_arrays(csit)
        a = csit.alpha
        for i in range(2):
            direct = min(max(a[0, i, k], a[1, i, k]) for k in range(2))
            assert alpha_prime[i] == direct
            assert alpha_prime[i] <= topo.gamma[i].min() + 1e-15


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


_IN_RANGE = [0.0, -0.0, 1.0, 0.25, 0.5]
_OUT_OF_RANGE = [math.nan, math.inf, -math.inf, math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0)]


@st.composite
def _edge_instances(draw):
    """A (topology, csit) pair on and just past the edges of the domain.

    Gamma entries come from ``_IN_RANGE``.  Each alpha entry is its
    link's gamma or a signed zero; half the draws make TX 2's alpha a
    copy of TX 1's with some entries zeroed, so both a dominant TX and
    its absence are common.  Up to two entries of the twelve are then
    overwritten with any of the values, which may also put an alpha
    above its gamma.
    """
    gamma = np.reshape(draw(st.lists(st.sampled_from(_IN_RANGE), min_size=4, max_size=4)), (2, 2))
    # None stands for "the same as the reference entry".
    zeroed = st.sampled_from([None, 0.0, -0.0])
    copy_tx1 = draw(st.booleans())
    alpha = np.empty((2, 2, 2))
    for j, i, k in np.ndindex(2, 2, 2):
        if j == 1 and copy_tx1:
            value, reference = draw(zeroed), alpha[0, i, k]
        else:
            value, reference = draw(zeroed), gamma[i, k]
        alpha[j, i, k] = reference if value is None else value
    for _ in range(draw(st.integers(0, 2))):
        flat = draw(st.integers(0, 11))
        target, index = (gamma, flat) if flat < 4 else (alpha, flat - 4)
        target.reshape(-1)[index] = draw(st.sampled_from(_IN_RANGE + _OUT_OF_RANGE))
    return Topology(gamma), CsitQuality(alpha)


def _error_key(error):
    """Type and every attribute of an error, with floats compared by repr (NaN, -0.0)."""
    return type(error), error.args, sorted((k, repr(v)) for k, v in vars(error).items())


def _domain_holds(gamma, alpha):
    """The supported domain, restated on whole arrays: an oracle for ``validate``."""
    in_range = ((0.0 <= gamma) & (gamma <= 1.0)).all() and ((0.0 <= alpha) & (alpha <= gamma)).all()
    return bool(in_range and ((alpha[0] >= alpha[1]).all() or (alpha[1] >= alpha[0]).all()))


@settings(max_examples=400, deadline=None)
@given(instance=_edge_instances())
def test_entry_points_raise_validates_first_violation(instance):
    topo, csit = instance
    gamma, alpha = topo.gamma.copy(), csit.alpha.copy()
    report = validate(topo, csit)
    assert report.passes == _domain_holds(gamma, alpha)
    for entry in (canonicalize, distributed_gdof, genie_outer_bound):
        if report.passes:
            entry(topo, csit)
        else:
            with pytest.raises(ValidationError) as info:
                entry(topo, csit)
            assert _error_key(info.value) == _error_key(report.violations[0])
    if report.passes:
        canon = canonicalize(topo, csit)
        canon.topology.gamma[...] = 7.0
        canon.csit.alpha[...] = 7.0
    assert topo.gamma.tobytes() == gamma.tobytes()
    assert csit.alpha.tobytes() == alpha.tobytes()


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from(_IN_RANGE + _OUT_OF_RANGE), min_size=8, max_size=8))
def test_effective_alphas_are_numpys_maximum_then_minimum(values):
    # Bit for bit, so ties between -0.0 and 0.0 and NaNs go numpy's way.
    alpha = np.reshape(values, (2, 2, 2))
    alpha_max, alpha_prime = _effective_arrays(CsitQuality(alpha))
    expected = np.maximum(alpha[0], alpha[1])
    assert alpha_max.tobytes() == expected.tobytes()
    assert alpha_prime.tobytes() == np.minimum(expected[:, 0], expected[:, 1]).tobytes()


def _relabelling_instances():
    """An instance for each of the four relabellings, with either TX dominant."""
    for gamma in (
        [[1.0, 0.5], [0.25, 0.75]],
        [[0.5, 0.25], [1.0, 0.75]],
        [[0.5, 1.0], [0.25, 0.75]],
        [[0.5, 0.25], [0.75, 1.0]],
    ):
        gamma = np.array(gamma)
        for pair in ((0.5, 0.25), (0.25, 0.5)):
            yield Topology(gamma), CsitQuality(np.stack([gamma * q for q in pair]))


def test_canonical_arrays_are_the_canonical_lists_as_arrays():
    relabelled = [canonicalize(*instance) for instance in _relabelling_instances()]
    assert {(c.rx_swap, c.tx_swap) for c in relabelled} == set(_RELABELLINGS)
    makers = [_relabelling_instances, *SIGNED_ZERO_SETS.values()]
    for topo, csit in (instance for make in makers for instance in make()):
        canon = canonicalize(topo, csit)
        g, a = topo.gamma.tolist(), csit.alpha.tolist()
        form = _canonical(g, a, _domain(g, a)[0])
        assert canon.topology.gamma.tobytes() == np.asarray(form.gamma).tobytes()
        assert canon.csit.alpha.tobytes() == np.asarray(form.alpha).tobytes()


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} called")


def test_closed_forms_build_no_topology_csit_or_array(monkeypatch):
    instances = list(_relabelling_instances())
    made = []
    for cls in (Topology, CsitQuality):
        post_init = cls.__post_init__

        def counted(self, post_init=post_init):
            made.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    for module in (topology_module, gdof_module):
        monkeypatch.setattr(module, "np", _NoNumpy())
    for topo, csit in instances:
        canon = canonicalize(topo, csit)
        scheme_layout(canon)
        distributed_gdof(topo, csit)
        genie_outer_bound(topo, csit)
    assert made == []
    # The counter sees the arrays once they are read, made anew on each read.
    for module in (topology_module, gdof_module):
        monkeypatch.setattr(module, "np", np)
    for _ in range(2):
        canon.topology, canon.csit
    assert made == ["Topology", "CsitQuality"] * 2
    assert canon.topology.gamma is not canon.topology.gamma


_RULE_VALUES = _IN_RANGE + _OUT_OF_RANGE + [0.75, math.nextafter(0.5, 1.0)]
_ENTRIES = [(i, k) for i in (0, 1) for k in (0, 1)]


@st.composite
def _rule_inputs(draw):
    """Gamma and both TXs' alphas as nested float lists, on and just past
    the edges of the domain.  An alpha entry is often its gamma entry, and
    half the draws start TX 2's alpha as a copy of TX 1's, so entries in
    [0, gamma] and dominance ties are both common."""
    value = st.sampled_from(_RULE_VALUES) | st.floats(-0.5, 1.5)
    gamma = [[draw(value), draw(value)], [draw(value), draw(value)]]

    def alpha_entry(i, k):
        v = draw(st.none() | value)
        return gamma[i][k] if v is None else v

    a0 = [[alpha_entry(i, 0), alpha_entry(i, 1)] for i in (0, 1)]
    if draw(st.booleans()):
        a1 = [row[:] for row in a0]
        for _ in range(draw(st.integers(0, 2))):
            i, k = draw(st.sampled_from(_ENTRIES))
            a1[i][k] = draw(value)
    else:
        a1 = [[alpha_entry(i, 0), alpha_entry(i, 1)] for i in (0, 1)]
    return gamma, [a0, a1]


def _reference_range_violations(gamma, alphas, tx_ests):
    """Range violations, one entry and one comparison at a time."""
    found = []
    for i, k in _ENTRIES:
        if not (0.0 <= gamma[i][k] and gamma[i][k] <= 1.0):
            found.append(GammaOutOfRange(i, k, gamma[i][k]))
    for j, alpha in zip(tx_ests, alphas):
        for i, k in _ENTRIES:
            if not (0.0 <= alpha[i][k] and alpha[i][k] <= gamma[i][k]):
                found.append(AlphaOutOfRange(j, i, k, alpha[i][k], gamma[i][k]))
    return found


def _reference_dominates(x, y):
    return all(x[i][k] >= y[i][k] for i, k in _ENTRIES)


@settings(max_examples=500, deadline=None)
@given(instance=_rule_inputs())
def test_domain_rule_matches_per_entry_reference(instance):
    gamma, (a0, a1) = instance
    topo, csit = Topology(np.array(gamma)), CsitQuality(np.array([a0, a1]))
    dominance = (_reference_dominates(a0, a1), _reference_dominates(a1, a0))
    expected = _reference_range_violations(gamma, [a0, a1], (0, 1))
    if dominance == (False, False):
        expected.append(NoDominantTransmitter())
    got = validate(topo, csit).violations
    assert [_error_key(e) for e in got] == [_error_key(e) for e in expected]
    if expected:
        with pytest.raises(ValidationError) as info:
            _read(topo, csit)
        assert _error_key(info.value) == _error_key(expected[0])
    else:
        assert _domain(topo.gamma.tolist(), csit.alpha.tolist())[0] == dominance
        _read(topo, csit)
    # The centralized form checks gamma and its one alpha, with tx_est -1.
    shared = _reference_range_violations(gamma, [a0], (-1,))
    if shared:
        with pytest.raises(ValidationError) as info:
            centralized_gdof(topo, np.array(a0))
        assert _error_key(info.value) == _error_key(shared[0])
    else:
        centralized_gdof(topo, np.array(a0))


# The shared reading: distributed_gdof, genie_outer_bound and canonicalize
# read, check and relabel an instance once, keyed on its arrays' contents.


def _gdof_map_results(topo, csit):
    """The results of the gdof-map sequence on one instance, as a repr
    that tells -0.0 from 0.0."""
    dist = distributed_gdof(topo, csit)
    genie = genie_outer_bound(topo, csit)
    canon = canonicalize(topo, csit)
    return repr((dist, genie, canon, scheme_layout(canon)))


def _unread_results(topo, csit, monkeypatch):
    """``_gdof_map_results`` on copies of the arrays, with nothing read before."""
    monkeypatch.setattr(topology_module, "_last_read", (None, None))
    return _gdof_map_results(Topology(topo.gamma.copy()), CsitQuality(csit.alpha.copy()))


def _distinct_instances(seed, n):
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < n:
        topo, csit = dyadic_instance(rng)
        if not any(
            np.array_equal(topo.gamma, t.gamma) and np.array_equal(csit.alpha, c.alpha)
            for t, c in instances
        ):
            instances.append((topo, csit))
    return instances


def test_gdof_map_order_reads_each_instance_once(monkeypatch):
    instances = _distinct_instances(3, 40)
    calls = []
    domain = topology_module._domain

    def counted(*args):
        calls.append(1)
        return domain(*args)

    monkeypatch.setattr(topology_module, "_domain", counted)
    monkeypatch.setattr(topology_module, "_last_read", (None, None))
    for topo, csit in instances:
        distributed_gdof(topo, csit)
        genie_outer_bound(topo, csit)
        scheme_layout(canonicalize(topo, csit))
    assert len(calls) == len(instances)
    # Only the last instance is kept: alternating between two re-reads each time.
    (t1, c1), (t2, c2) = instances[:2]
    del calls[:]
    for entry in (distributed_gdof, genie_outer_bound, canonicalize):
        for topo, csit in ((t1, c1), (t2, c2), (t1, c1), (t2, c2)):
            entry(topo, csit)
    assert len(calls) == 12


def test_gdof_map_order_derives_effective_exponents_twice_per_instance(monkeypatch):
    # Once for the raw alpha (the genie's alpha_max), once for the canonical
    # form's alpha_prime, which distributed_gdof and scheme_layout share.
    instances = _distinct_instances(5, 40)
    calls = []
    effective = topology_module._effective

    def counted(a):
        calls.append(1)
        return effective(a)

    monkeypatch.setattr(topology_module, "_effective", counted)
    monkeypatch.setattr(topology_module, "_last_read", (None, None))
    for topo, csit in instances:
        distributed_gdof(topo, csit)
        genie_outer_bound(topo, csit)
        scheme_layout(canonicalize(topo, csit))
    assert len(calls) == 2 * len(instances)
    topo, csit = instances[-1]
    assert canonicalize(topo, csit) is canonicalize(topo, csit)
    assert len(calls) == 2 * len(instances)


def _zero_instance():
    """Gamma and both alphas hold +0.0 at (0, 1), where a -0.0 shows in
    the canonical lists."""
    gamma = np.array([[1.0, 0.0], [0.5, 0.75]])
    return Topology(gamma), CsitQuality(np.stack([gamma * 0.5, gamma * 0.25]))


def test_reading_sees_in_place_edits(monkeypatch):
    topo, csit = _zero_instance()
    before = _gdof_map_results(topo, csit)
    topo.gamma[1, 0] = 0.625
    edited = _gdof_map_results(topo, csit)
    assert edited != before
    assert edited == _unread_results(topo, csit, monkeypatch)

    topo.gamma[0, 1] = -0.0
    csit.alpha[:, 0, 1] = -0.0
    flipped = _gdof_map_results(topo, csit)
    assert flipped != edited and "-0.0" in flipped
    assert flipped == _unread_results(topo, csit, monkeypatch)

    csit.alpha[1, 1, 1] = 0.875  # above gamma[1, 1], and no TX dominates
    first = validate(topo, csit).violations[0]
    for _ in range(2):  # an error is never kept, so each call raises it again
        for entry in (distributed_gdof, genie_outer_bound, canonicalize):
            with pytest.raises(ValidationError) as info:
                entry(topo, csit)
            assert _error_key(info.value) == _error_key(first)
    csit.alpha[1, 1, 1] = 0.1875
    assert _gdof_map_results(topo, csit) == flipped


def test_reading_keys_on_dtype_and_shape():
    topo, csit = _zero_instance()
    before = _gdof_map_results(topo, csit)
    gamma, alpha = topo.gamma, csit.alpha
    for entry in (distributed_gdof, genie_outer_bound, canonicalize):
        topo.gamma = gamma.view(np.int64)  # the same bytes, read as huge ints
        with pytest.raises(GammaOutOfRange):
            entry(topo, csit)
        topo.gamma = gamma.reshape(4)
        with pytest.raises(ValueError):
            entry(topo, csit)
        topo.gamma = gamma
        csit.alpha = alpha.view(np.int64)
        with pytest.raises(AlphaOutOfRange):
            entry(topo, csit)
        csit.alpha = alpha.reshape(2, 4)
        with pytest.raises(ValueError):
            entry(topo, csit)
        csit.alpha = alpha
    assert _gdof_map_results(topo, csit) == before


def test_results_share_nothing_with_the_reading():
    topo, csit = _zero_instance()
    before = _gdof_map_results(topo, csit)
    canon = canonicalize(topo, csit)
    for name in ("gamma", "alpha", "alpha_prime", "active_tx"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(canon, name, None)
    for items in (canon.gamma, canon.gamma[1], canon.alpha[0][1], canon.alpha_prime):
        with pytest.raises(TypeError):
            items[0] = 9.0
    canon.topology.gamma[...] = 9.0
    canon.csit.alpha[0, 1] = 9.0
    canon.csit.alpha[1] = canon.csit.alpha[1, ::-1]
    for value in (distributed_gdof(topo, csit), genie_outer_bound(topo, csit)):
        value.value = value.d1 = value.d2 = 9.0
        value.branch = "d9"
    assert _gdof_map_results(topo, csit) == before


@pytest.mark.parametrize("container", ["lists", "arrays"])
def test_a_hand_built_form_keeps_nothing_of_its_callers(container):
    # Built from lists or arrays, a form holds float tuples of its own, so
    # an edit of the caller's exponents leaves alpha_prime and the layout
    # those of a form made afresh.
    gamma = [[1.0, 0.8], [0.8, 1.0]]
    alpha = [[[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]]
    fresh = canonicalize(Topology.parallel(0.8), CsitQuality.uniform(0.5, 0.0))
    if container == "arrays":
        gamma, alpha = np.array(gamma), [np.array(a) for a in alpha]
    form = CanonicalForm(gamma, alpha, False, False, 0)
    alpha[0][0][0] = 0.0
    gamma[1][0] = 0.0
    assert form == fresh
    assert type(form.gamma[0][0]) is float and type(form.alpha[1][1][1]) is float
    assert form.alpha_prime == fresh.alpha_prime == (0.5, 0.5)
    assert scheme_layout(form).rate_total() == scheme_layout(fresh).rate_total() == 1.7


def test_two_threads_read_their_own_instances(monkeypatch):
    # Each thread has its own objects, holding the same three instances in
    # turn, so one thread often reads an instance the other has half read.
    instances = _distinct_instances(11, 3) * 20
    copies = [(Topology(t.gamma.copy()), CsitQuality(c.alpha.copy())) for t, c in instances]
    sets = [instances, copies]
    serial = [[_gdof_map_results(*instance) for instance in group] for group in sets]
    got = [[], []]
    failures = []

    def work(k):
        try:
            for _ in range(20):
                got[k].append([_gdof_map_results(*instance) for instance in sets[k]])
        except BaseException as error:  # re-raised in the main thread
            failures.append(error)

    # Let the other thread run in the middle of every reading.
    domain = topology_module._domain

    def yielding(*args):
        time.sleep(0)
        return domain(*args)

    monkeypatch.setattr(topology_module, "_domain", yielding)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if failures:
        raise failures[0]
    for k in (0, 1):
        assert got[k] == [serial[k]] * 20
