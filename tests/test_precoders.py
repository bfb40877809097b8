import math

import numpy as np
import pytest

from apzf import (
    NORMALS_PER_DRAW,
    CsitQuality,
    Topology,
    apzf,
    matched,
    multicast,
    sample_channel,
    sample_csit,
)
from apzf.checks import _P_GRID, _fitted_exponent
from apzf.precoders import (
    _abs2,
    _amplitude,
    _cmul,
    _cmul_conj,
    _naive,
    _normalised,
    _zf_direction,
)
from conftest import as_complex, as_kernel, assert_same_bits


def _power(t):
    return np.sum(np.abs(t) ** 2, axis=-1)


def _conj(x):
    """Reference: the conjugate of ``x`` as a copy."""
    return np.array((x[0], -x[1]))


def _scaled(w, tau, p):
    """Reference: vectors ``w`` rescaled to norm sqrt(P**tau) in one step,
    all-zero vectors kept zero."""
    a = _abs2(w)
    n = np.sqrt(a[0] + a[1])
    with np.errstate(divide="ignore"):
        s = np.where(n == 0.0, 0.0, math.sqrt(p**tau) / n)
    return w * s


def _signed_zero_parts(rng, shape):
    """About half signed zeros, the rest Gaussian, so both the rounding
    and the sign of every zero result are compared."""
    zeros = rng.choice([0.0, -0.0], shape)
    return np.where(rng.random(shape) < 0.5, zeros, rng.standard_normal(shape))


def _one(est):
    """A single complex 2x2 estimate as a kernel batch of one."""
    return as_kernel(np.asarray(est)[np.newaxis])


def _centralized(estimate, target_rx, tau, p):
    """The centralized ZF vectors, as ``scheme._private_pair`` builds
    them: one estimate's direction, normalised whole."""
    return _normalised(*_zf_direction(estimate, target_rx, p), _amplitude(tau, p))


def _naive_pair(estimates, target_rx, tau, p):
    """The naive ZF vectors, as ``scheme._private_pair`` builds them:
    TX j's direction from its own estimate ``estimates[:, j]``, entry j
    of it normalised alone."""
    directions = [_zf_direction(estimates[:, j], target_rx, p) for j in (0, 1)]
    return _naive(directions, _amplitude(tau, p))


def _geomean_exponent(per_draw_power, draws, seed):
    """Fit the exponent of the geometric-mean power across ``_P_GRID``.

    ``per_draw_power(p, z)`` maps the (draws, NORMALS_PER_DRAW) normals
    of one P to the per-draw powers.  The active AP-ZF coefficient is a
    ratio of Gaussians; its arithmetic mean is heavy-tailed, so the mean
    of logs is the stable statistic for an order-of-growth fit.
    """
    rng = np.random.default_rng(seed)
    acc = np.zeros(len(_P_GRID))
    for ip, p in enumerate(_P_GRID):
        z = rng.standard_normal((draws, NORMALS_PER_DRAW))
        acc[ip] = np.mean(np.log2(per_draw_power(p, z)))
    return _fitted_exponent(acc)


CMUL_SHAPES = [
    ((2, 5), (2, 5)),
    ((2, 2, 5), (2, 1, 5)),
    ((2, 2, 2, 5), (2, 2, 1, 5)),
    ((2, 2, 2, 5), (2, 2, 2, 1)),
]


@pytest.mark.parametrize("a_shape, b_shape", CMUL_SHAPES)
def test_cmul_is_the_two_expression_formula_bit_for_bit(a_shape, b_shape):
    rng = np.random.default_rng(31)
    a, b = _signed_zero_parts(rng, a_shape), _signed_zero_parts(rng, b_shape)
    ref = np.array((a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]))
    assert_same_bits(_cmul(a, b), ref)


@pytest.mark.parametrize("a_shape, b_shape", CMUL_SHAPES)
def test_cmul_conj_is_cmul_of_a_conjugate_copy_bit_for_bit(a_shape, b_shape):
    # The copy-free product must round, and sign every zero, exactly as
    # the product with a conjugated copy does.
    rng = np.random.default_rng(31)
    a, b = _signed_zero_parts(rng, a_shape), _signed_zero_parts(rng, b_shape)
    assert_same_bits(_cmul_conj(a, b), _cmul(a, _conj(b)))
    assert_same_bits(_cmul_conj(b, a), _cmul(b, _conj(a)))


@pytest.mark.parametrize("p", [1e6, 0.49, 1e-2, 1e-30])
def test_normalised_is_the_scaled_conjugate_bit_for_bit(p):
    # The normalisation step conjugates after scaling; it must equal
    # rescaling a conjugated copy, for the whole vector and for one entry.
    rng = np.random.default_rng(41)
    est = _signed_zero_parts(rng, (2, 2, 2, 300))
    est[..., :3] = 0.0  # all-zero rows: zero directions, norm 0
    est[1, ..., 3] = -0.0
    for target in (0, 1):
        w, n = _zf_direction(est, target, p)
        ref = _scaled(_conj(w), 0.7, p)
        assert_same_bits(_normalised(w, n, _amplitude(0.7, p)), ref)
        for j in (0, 1):
            assert_same_bits(_normalised(w[:, j], n, _amplitude(0.7, p)), ref[:, j])
    assert_same_bits(matched(est, 0.3, p), _scaled(_conj(est[:, 0]), 0.3, p))


@pytest.mark.parametrize("active", [0, 1])
def test_apzf_active_coefficient_is_the_conjugate_product_bit_for_bit(active):
    # The active coefficient is formed with no conjugate copy; it must
    # equal -conj(e_act) * e_pas, scaled, with every zero signed alike.
    rng = np.random.default_rng(43)
    est = _signed_zero_parts(rng, (2, 2, 2, 400))
    topo = Topology(np.array([[1.0, 0.8], [0.7, 1.0]]))
    p, tau = 1e4, 0.6
    for target in (0, 1):
        itf, passive = 1 - target, 1 - active
        x = tau - max(float(topo.gamma[itf, passive] - topo.gamma[itf, active]), 0.0)
        e_act, e_pas = est[:, itf, active], est[:, itf, passive]
        ref = _cmul(-_conj(e_act), e_pas) * (math.sqrt(p**x) / (_abs2(e_act) + 1.0 / p))
        t = apzf(est, target, tau, topo, p, active_tx=active)
        assert_same_bits(t[:, active], ref)


def test_apzf_passive_coefficient_is_deterministic():
    # Interfered row (1.0, 0.8), active TX 0: the passive coefficient is
    # the real constant sqrt(P^tau) because the active link is stronger.
    topo = Topology(np.array([[1.0, 0.8], [1.0, 0.8]]))
    est = (np.ones((2, 2)) + 1j * np.ones((2, 2))) * 0.3
    p = 1e6
    t = as_complex(apzf(_one(est), 0, 1.0, topo, p))[0]
    assert t[1] == pytest.approx(math.sqrt(p))
    assert t[1].imag == 0.0

    # Interfered row (0.6, 0.9): passive link stronger by 0.3, so the
    # passive power backs off to P^(tau - 0.3).
    topo2 = Topology(np.array([[1.0, 0.9], [0.6, 0.9]]))
    t2 = as_complex(apzf(_one(est), 0, 0.7, topo2, p))[0]
    assert abs(t2[1]) ** 2 == pytest.approx(p**0.4)


def test_apzf_respects_active_tx_argument():
    topo = Topology.parallel(0.8)
    est = np.array([[0.3 + 0.1j, 0.2 - 0.4j], [0.5 + 0.2j, -0.1 + 0.3j]])
    t = as_complex(apzf(_one(est), 0, 0.7, topo, 1e6, active_tx=1))[0]
    # TX 0 is passive now: real constant; TX 1 adapts.
    assert t[0].imag == 0.0 and t[0].real > 0.0
    assert t[1].imag != 0.0


def test_apzf_zero_active_estimate_is_finite():
    topo = Topology.parallel(0.8)
    est = np.zeros((2, 2), dtype=complex)
    est[1, 1] = 0.5
    t = as_complex(apzf(_one(est), 0, 0.7, topo, 1e6))[0]
    assert t[0] == 0.0 and np.isfinite(t).all()


def test_apzf_exact_cancellation_with_perfect_csit():
    # At P = 1e100 the 1/P regularizer's share of the residual is about
    # P**-0.6 here, far below float64 rounding.
    rng = np.random.default_rng(21)
    topo = Topology(np.array([[1.0, 0.7], [0.9, 0.6]]))
    h_kernel = sample_channel(topo, 1e100, rng.standard_normal((300, 8)))
    h = as_complex(h_kernel)
    for target in (0, 1):
        for act in (0, 1):
            t = as_complex(apzf(h_kernel, target, 0.8, topo, 1e100, active_tx=act))
            resid = np.abs((h @ t[..., None])[:, 1 - target, 0])
            scale = np.linalg.norm(h[:, 1 - target], axis=-1) * np.linalg.norm(t, axis=-1)
            assert np.all(resid <= 1e-12 * scale)


def test_apzf_active_coefficient_exponents():
    # Fits of the adaptive coefficient's power across the P grid.
    csit = CsitQuality.uniform(0.5, 0.0)

    topo = Topology(np.array([[1.0, 0.8], [1.0, 0.8]]))

    def case_a(p, z):
        h_hat = sample_csit(sample_channel(topo, p, z), topo, csit, p, z)
        return np.abs(as_complex(apzf(h_hat[:, 0], 0, 1.0, topo, p))[:, 0]) ** 2

    assert _geomean_exponent(case_a, 1500, 10) == pytest.approx(0.8, abs=0.05)

    topo_b = Topology(np.array([[1.0, 0.9], [0.6, 0.9]]))

    def case_b(p, z):
        h_hat = sample_csit(sample_channel(topo_b, p, z), topo_b, csit, p, z)
        return np.abs(as_complex(apzf(h_hat[:, 0], 0, 0.7, topo_b, p))[:, 0]) ** 2

    assert _geomean_exponent(case_b, 1500, 11) == pytest.approx(0.7, abs=0.05)


def test_apzf_exactly_one_coefficient_reaches_budget():
    # Of the two coefficient powers, exactly one concentrates at P^tau
    # (geometric mean within a factor 2) and the other sits a positive
    # exponent below, provided the interfered row is not degenerate.
    rng = np.random.default_rng(14)
    p = 1e8
    for _ in range(6):
        while True:
            g = 0.3 + 0.7 * rng.random((2, 2))
            if abs(g[1, 0] - g[1, 1]) >= 0.15:
                break
        topo = Topology(g)
        csit = CsitQuality(np.stack([g * rng.random((2, 2)), np.zeros((2, 2))]))
        tau = 0.5 + 0.5 * rng.random()
        draws = 3000
        z = rng.standard_normal((draws, NORMALS_PER_DRAW))
        h_hat = sample_csit(sample_channel(topo, p, z), topo, csit, p, z)
        acc = np.log(np.abs(as_complex(apzf(h_hat[:, 0], 0, tau, topo, p))) ** 2).sum(axis=0)
        c = np.exp(acc / draws) / p**tau
        assert sum(0.5 <= ci <= 2.0 for ci in c) == 1


def test_multicast_residual_power():
    p = 1e6
    t = as_complex(multicast(p - p**0.7 - p**0.2))[0]
    assert _power(t) == pytest.approx(p - p**0.7 - p**0.2)
    assert t[0] == t[1]


def test_multicast_dominates_at_high_snr():
    p = 1e12
    assert _power(as_complex(multicast(p - p**0.7))[0]) / p == pytest.approx(1.0, abs=1e-3)


def test_matched_power_and_direction():
    p = 1e6
    est = np.array([[0.3 + 0.4j, -0.2 + 0.1j], [0.7 - 0.2j, 0.5 + 0.5j]])
    t = as_complex(matched(_one(est), 0.2, p))[0]
    assert _power(t) == pytest.approx(p**0.2)
    direction = np.conj(est[0]) / np.linalg.norm(est[0])
    cos = abs(np.vdot(direction, t)) / np.linalg.norm(t)
    assert cos == pytest.approx(1.0)


def test_centralized_zf_norm_and_consistency():
    est = np.array([[0.9 + 0.2j, -0.3 + 0.6j], [0.1 - 0.5j, 0.8 + 0.1j]])
    p = 1e6
    t = as_complex(_centralized(_one(est), 1, 0.7, p))[0]
    assert _power(t) == pytest.approx(p**0.7)
    # Naive with both TXs holding the same estimate collapses to it.
    same = as_complex(_naive_pair(_one(np.stack([est, est])), 1, 0.7, p))[0]
    np.testing.assert_allclose(same, t, rtol=1e-12)


def test_centralized_zf_residual_on_noise_floor():
    # Residual interference of the shared-estimate ZF pair stays below
    # tau - 1 + min(gamma row) - alpha as an exponent (here 0).
    topo = Topology.parallel(0.8)
    csit = CsitQuality.uniform(0.5, 0.0)

    def resid(p, z):
        h = sample_channel(topo, p, z)
        t = as_complex(_centralized(sample_csit(h, topo, csit, p, z)[:, 0], 0, 0.7, p))
        return np.abs((as_complex(h) @ t[..., None])[:, 1, 0]) ** 2

    bound = 0.7 - 1.0 + 0.8 - 0.5
    assert _geomean_exponent(resid, 1500, 12) <= bound + 0.1


def test_naive_zf_keeps_full_strength_interference():
    # With one blind TX the two locally computed inverses disagree and
    # the residual grows like tau - 1 + gamma_cross (no cancellation).
    topo = Topology.parallel(0.8)
    csit = CsitQuality.uniform(0.5, 0.0)

    def resid(p, z):
        h = sample_channel(topo, p, z)
        t = as_complex(_naive_pair(sample_csit(h, topo, csit, p, z), 1, 0.7, p))
        return np.abs((as_complex(h) @ t[..., None])[:, 0, 0]) ** 2

    assert _geomean_exponent(resid, 1500, 13) == pytest.approx(0.5, abs=0.15)


def _zf_reference(estimate, target_rx, tau, p):
    """Column ``target_rx`` of H^H (H H^H + I/P)^-1 per draw, norm sqrt(P**tau)."""
    est_h = estimate.conj().swapaxes(-1, -2)
    w = (est_h @ np.linalg.inv(estimate @ est_h + np.eye(2) / p))[:, :, target_rx]
    return w * (math.sqrt(p**tau) / np.linalg.norm(w, axis=1))[:, None]


@pytest.mark.parametrize("p", [1e-18, 1e-2, 0.49, 1e2, 1e6, 1e8, 1e18])
def test_zf_matches_matrix_inverse_reference(p):
    rng = np.random.default_rng(4242)
    est = rng.standard_normal((4000, 2, 2, 2)) + 1j * rng.standard_normal((4000, 2, 2, 2))
    tau = 0.7
    scale = math.sqrt(p**tau)
    for target in (0, 1):
        ref = _zf_reference(est[:, 0], target, tau, p)
        err = np.abs(as_complex(_centralized(as_kernel(est[:, 0]), target, tau, p)) - ref).max()
        assert err / scale <= 1e-10
        # TX j transmits entry j of the vector computed from its own estimate.
        t = as_complex(_naive_pair(as_kernel(est), target, tau, p))
        for j in (0, 1):
            ref = _zf_reference(est[:, j], target, tau, p)
            assert np.abs(t[:, j] - ref[:, j]).max() / scale <= 1e-10


def test_golden_regression_vectors():
    topo = Topology.parallel(0.8)
    csit = CsitQuality.uniform(0.5, 0.0)
    z = np.random.default_rng(2026).standard_normal((1, NORMALS_PER_DRAW))
    h_hat = sample_csit(sample_channel(topo, 1e6, z), topo, csit, 1e6, z)

    v_apzf = as_complex(apzf(h_hat[:, 0], 0, 0.7, topo, 1e6))[0]
    np.testing.assert_allclose(
        v_apzf,
        [95.12514703598615 + 1.4474593168881225j, 31.622776601683793 + 0j],
        rtol=1e-12,
    )
    v_czf = as_complex(_centralized(h_hat[:, 0], 0, 0.7, 1e6))[0]
    np.testing.assert_allclose(
        v_czf,
        [-94.66732437361846 - 72.8710465604468j, -31.831505806735176 - 23.740164949136506j],
        rtol=1e-12,
    )
    v_naive = as_complex(_naive_pair(h_hat, 0, 0.7, 1e6))[0]
    np.testing.assert_allclose(
        v_naive,
        [-94.66732437361846 - 72.8710465604468j, -58.614033753141264 - 22.001206363366776j],
        rtol=1e-12,
    )
    # TX 0's coefficient agrees with the centralized one computed from
    # its estimate; TX 1's comes from a different matrix and does not.
    assert v_naive[0] == v_czf[0]
    assert v_naive[1] != v_czf[1]
