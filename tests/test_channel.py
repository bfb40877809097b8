import math

import numpy as np
import pytest

from apzf import NORMALS_PER_DRAW, CsitQuality, Topology, sample_channel, sample_csit
from conftest import as_complex


def _draws(topology, csit, p, n, seed):
    """Channels and estimates as complex arrays with a leading draw axis."""
    z = np.random.default_rng(seed).standard_normal((n, NORMALS_PER_DRAW))
    h = sample_channel(topology, p, z)
    return as_complex(h), as_complex(sample_csit(h, topology, csit, p, z))


def test_draws_are_the_complex_formula_bit_for_bit():
    # Each part of the kernel's arrays is bit-equal to the complex draws
    # scale * ((re + 1j*im) / sqrt(2)), with the draw axis moved last, and
    # is C-contiguous, at a float P and at a column of powers (whose
    # slice at each point is that point's draws).
    topo = Topology(np.array([[1.0, 0.8], [0.6, 0.3]]))
    csit = CsitQuality([[[0.5, 0.7], [0.2, 0.3]], [[0.1, 0.0], [0.2, 0.3]]])
    powers = [10.0**4.5, 10.0**2, 10.0**6]
    z = np.random.default_rng(6).standard_normal((5000, NORMALS_PER_DRAW))
    for p in (powers[0], np.array(powers)[:, None]):
        h = sample_channel(topo, p, z)
        h_hat = sample_csit(h, topo, csit, p, z)
        for i, q in enumerate(np.ravel(p)):
            scale = np.sqrt(q ** (topo.gamma - 1.0))
            ref_h = scale * ((z[:, 0:4] + 1j * z[:, 4:8]) / math.sqrt(2.0)).reshape(-1, 2, 2)
            err_scale = np.sqrt(q ** (-csit.alpha)) * scale
            err = ((z[:, 8:16] + 1j * z[:, 16:24]) / math.sqrt(2.0)).reshape(-1, 2, 2, 2)
            ref_h_hat = ref_h[:, np.newaxis] + err_scale * err
            for got, ref in ((h, ref_h), (h_hat, ref_h_hat)):
                assert got.dtype == np.float64 and got.flags.c_contiguous
                got = got[..., i, :] if np.ndim(p) else got
                assert np.array_equal(got[0], np.moveaxis(ref.real, 0, -1))
                assert np.array_equal(got[1], np.moveaxis(ref.imag, 0, -1))


@pytest.mark.parametrize("draws", [1, 3])
@pytest.mark.parametrize("p", [1e3, np.array([[1e3], [1e5]])], ids=["float", "column"])
def test_sampling_leaves_the_normals_alone(draws, p):
    # The normals are scaled in a copy of them; a one-draw batch, whose
    # transpose is already C-contiguous, must not be scaled in place.
    topo = Topology(np.array([[1.0, 0.8], [0.6, 0.3]]))
    csit = CsitQuality([[[0.5, 0.7], [0.2, 0.3]], [[0.1, 0.0], [0.2, 0.3]]])
    z = np.random.default_rng(8).standard_normal((draws, NORMALS_PER_DRAW))
    before = z.copy()
    sample_csit(sample_channel(topo, p, z), topo, csit, p, z)
    np.testing.assert_array_equal(z, before)


def test_channel_moments_match_pathloss():
    p = 1e6
    topo = Topology(np.array([[1.0, 0.8], [0.6, 0.3]]))
    h, _ = _draws(topo, CsitQuality.uniform(0.0, 0.0), p, 100_000, seed=0)
    emp = np.mean(np.abs(h) ** 2, axis=0)
    expected = p ** (topo.gamma - 1.0)
    assert np.all(np.abs(emp / expected - 1.0) < 0.05)
    # gamma = 0.8 at P = 1e6 pins the variance at 10**-1.2
    np.testing.assert_allclose(emp[0, 1], 10.0**-1.2, rtol=0.05)


def test_estimate_error_moments():
    p = 1e4
    topo = Topology.parallel(0.8)
    csit = CsitQuality.uniform(0.5, 0.2)
    h, hh = _draws(topo, csit, p, 100_000, seed=1)
    err = hh - h[:, np.newaxis, :, :]
    emp = np.mean(np.abs(err) ** 2, axis=0)
    expected = p ** (-csit.alpha) * p ** (topo.gamma - 1.0)
    assert np.all(np.abs(emp / expected - 1.0) < 0.05)


def test_estimate_error_independent_across_txs():
    p = 1e4
    topo = Topology(np.ones((2, 2)))
    csit = CsitQuality.uniform(1.0, 1.0)
    h, hh = _draws(topo, csit, p, 100_000, seed=2)
    err = hh - h[:, np.newaxis, :, :]
    for i in range(2):
        for k in range(2):
            a, b = err[:, 0, i, k], err[:, 1, i, k]
            corr = np.mean(a * np.conj(b)) / (np.std(a) * np.std(b))
            assert abs(corr) < 0.02


def test_estimate_error_independent_of_channel():
    p = 1e4
    topo = Topology(np.ones((2, 2)))
    csit = CsitQuality.uniform(0.5, 0.5)
    h, hh = _draws(topo, csit, p, 100_000, seed=3)
    err = hh[:, 0] - h
    corr = np.mean(h * np.conj(err), axis=0) / (np.std(h, axis=0) * np.std(err, axis=0))
    assert np.all(np.abs(corr) < 0.02)


def test_perfect_quality_error_variance():
    # alpha = gamma = 1 at P = 1e6 puts the error variance at 1e-6.
    p = 1e6
    topo = Topology(np.ones((2, 2)))
    csit = CsitQuality.uniform(1.0, 1.0)
    h, hh = _draws(topo, csit, p, 20_000, seed=4)
    emp = np.mean(np.abs(hh[:, 0] - h) ** 2)
    assert abs(emp / 1e-6 - 1.0) < 0.1


def test_seeded_determinism():
    topo = Topology.parallel(0.5)
    csit = CsitQuality.uniform(0.4, 0.1)
    za = np.random.default_rng(42).standard_normal((3, NORMALS_PER_DRAW))
    zb = np.random.default_rng(42).standard_normal((3, NORMALS_PER_DRAW))
    a = sample_channel(topo, 1e4, za)
    b = sample_channel(topo, 1e4, zb)
    assert np.array_equal(a, b)
    ea = sample_csit(a, topo, csit, 1e4, za)
    eb = sample_csit(b, topo, csit, 1e4, zb)
    assert np.array_equal(ea, eb)
    # A draw does not depend on the batch it is made in.
    assert np.array_equal(sample_channel(topo, 1e4, za[1:2]), a[..., 1:2])
    assert np.array_equal(sample_csit(a[..., 1:2], topo, csit, 1e4, za[1:2]), ea[..., 1:2])


def test_channel_full_rank():
    z = np.random.default_rng(5).standard_normal((100, 8))
    topo = Topology.parallel(0.8)
    h = as_complex(sample_channel(topo, 1e4, z))
    assert np.all(np.linalg.matrix_rank(h) == 2)
