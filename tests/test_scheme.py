import math

import numpy as np
import pytest

from apzf import (
    NORMALS_PER_DRAW,
    CsitQuality,
    Topology,
    achievable_rates,
    apzf,
    build_layers,
    canonicalize,
    fit_exponent,
    multicast,
    plan_layout,
    sample_channel,
    sample_csit,
    scheme_layout,
)
import apzf.scheme as scheme
from apzf.precoders import _abs2, _cmul
from conftest import as_complex, as_kernel, assert_same_bits, reference_instance
from test_golden import INSTANCES as GOLDEN_INSTANCES


def _canon_reference():
    topo, csit = reference_instance()
    return canonicalize(topo, csit)


def _canon_four_band():
    """Case-1 instance whose apzf layout carries s0, s1/s2 and z1."""
    topo = Topology(np.array([[1.0, 0.7], [0.5, 0.9]]))
    a1 = np.array([[0.4, 0.4], [0.3, 0.3]])
    return canonicalize(topo, CsitQuality(np.stack([a1, np.zeros((2, 2))])))


def _draw(canon, p, rng, draws=1):
    z = rng.standard_normal((draws, NORMALS_PER_DRAW))
    h = sample_channel(canon.topology, p, z)
    return h, sample_csit(h, canon.topology, canon.csit, p, z)


def _draw_layers(canon, kind, p, rng, draws=1):
    """Channels and the layers of ``kind`` on ``draws`` fresh draws."""
    h, h_hat = _draw(canon, p, rng, draws)
    layers, _ = build_layers(canon, h_hat, kind, p)
    return h, layers


def _received(h, layers):
    """Per-layer received power ``|h_i t|**2``, (draws, 2), from complex matmuls."""
    h = as_complex(h)
    return {tag: np.abs((h @ as_complex(t)[..., None])[..., 0]) ** 2 for tag, t in layers.items()}


def test_an_unknown_scheme_name_is_a_value_error():
    canon = _canon_reference()
    _, h_hat = _draw(canon, 1e4, np.random.default_rng(0))
    assert list(scheme._BANDS) == ["apzf", "centralized_zf", "naive_zf", "no_csit"]
    with pytest.raises(ValueError, match="unknown scheme 'dirty_paper'"):
        plan_layout(canon, "dirty_paper")
    with pytest.raises(ValueError, match="unknown scheme 'dirty_paper'"):
        build_layers(canon, h_hat, "dirty_paper", 1e4)


def test_plan_layout_naive_uses_worst_quality():
    canon = _canon_reference()
    assert plan_layout(canon, "apzf") == scheme_layout(canon)
    naive = plan_layout(canon, "naive_zf")
    # Worst TX is blind here, so the naive layout degrades to the
    # no-quality split: rho = 1 - 0.8, common rate 0.8.
    assert naive.rho == pytest.approx(0.2)
    assert naive.rate_exp["s0"] == pytest.approx(0.8)
    assert naive.rate_total() == pytest.approx(1.2)


@pytest.mark.parametrize("dominant", [0, 1])
def test_naive_layout_is_the_weaker_tx_layout(dominant):
    # The z1 sweep instance, whose weaker TX is not blind.
    topo = Topology(np.array([[1.0, 0.6], [0.9, 0.5]]))
    a1 = np.array([[0.6, 0.4], [0.5, 0.3]])
    a2 = np.array([[0.2, 0.1], [0.1, 0.0]])
    pair = (a1, a2) if dominant == 0 else (a2, a1)
    canon = canonicalize(topo, CsitQuality(np.stack(pair)))
    naive = plan_layout(canon, "naive_zf")
    assert naive == scheme_layout(canonicalize(topo, CsitQuality([a2, a2])))
    assert naive.case_id == "case2" and naive.rho == 0.0
    assert naive.rate_exp["z1"] == pytest.approx(0.1)
    # s1 carries no rate and z1 is apzf's alone, so only s0 is sent.
    _, h_hat = _draw(canon, 1e4, np.random.default_rng(12), draws=5)
    assert list(build_layers(canon, h_hat, "naive_zf", 1e4)[0]) == ["s0"]


def test_build_layers_reference_has_three_layers():
    canon = _canon_reference()
    rng = np.random.default_rng(0)
    h, h_hat = _draw(canon, 1e6, rng)
    layout = plan_layout(canon, "apzf")
    layers, _ = build_layers(canon, h_hat, "apzf", 1e6)
    assert list(layers) == ["s0", "s1", "s2"]
    assert "z1" not in layers
    # s1 is the AP-ZF vector aimed at RX 1 (index 0).
    tau = layout.power_exp["s1"]
    aimed = apzf(h_hat[:, 0], 0, tau, canon.topology, 1e6)
    np.testing.assert_array_equal(layers["s1"], aimed)


def test_build_layers_four_layer_case():
    canon = _canon_four_band()
    layout = plan_layout(canon, "apzf")
    assert layout.power_exp["s1"] == pytest.approx(0.7)
    rng = np.random.default_rng(1)
    _, layers = _draw_layers(canon, "apzf", 1e6, rng)
    assert list(layers) == ["s0", "s1", "s2", "z1"]
    # The z layer is an AP-ZF-scheme refinement; baselines skip it.
    _, layers_czf = _draw_layers(canon, "centralized_zf", 1e6, rng)
    assert list(layers_czf) == ["s0", "s1", "s2"]


def test_build_layers_no_csit_single_full_power_layer():
    canon = _canon_reference()
    rng = np.random.default_rng(2)
    _, layers = _draw_layers(canon, "no_csit", 1e6, rng)
    assert list(layers) == ["s0"]
    assert np.sum(np.abs(layers["s0"]) ** 2) == pytest.approx(1e6)


def _canon_s0_rate_zero():
    """Case-1 instance whose apzf layout gives s0 no rate, and s1 and z1 some."""
    topo = Topology(np.array([[1.0, 0.25], [0.25, 0.75]]))
    return canonicalize(topo, CsitQuality.uniform(0.25, 0.0))


def _canon_blind():
    """Unit links and two blind TXs: the layout gives s0 all the rate."""
    return canonicalize(Topology(np.ones((2, 2))), CsitQuality.uniform(0.0, 0.0))


_P4 = 1e6 - 1e6**0.7 - 1e6**0.1  # s0's power when s1 and z1 both carry rate


@pytest.mark.parametrize(
    "instance, kind, zero_rates, p, tags, s0_power",
    [
        (_canon_four_band, "apzf", (), 1e6, ["s0", "s1", "s2", "z1"], _P4),
        # The baselines never send z1, so it takes none of their power.
        (_canon_four_band, "centralized_zf", (), 1e6, ["s0", "s1", "s2"], 1e6 - 1e6**0.7),
        # s0 carries no rate only where s1's power exponent is 1 or more,
        # which leaves it no power: here 1e6 - 1e6**1.0 - 1e6**0.25 < 0.
        (_canon_s0_rate_zero, "apzf", ("s0",), 1e6, ["s0", "s1", "s2", "z1"], 0.0),
        (_canon_reference, "apzf", ("z1",), 1e6, ["s0", "s1", "s2"], 1e6 - 1e6**0.7),
        (_canon_blind, "apzf", ("s1", "s2", "z1"), 1e6, ["s0"], 1e6),
        (_canon_four_band, "no_csit", (), 1e6, ["s0"], 1e6),
        # 1.5 - 1.5**0.7 - 1.5**0.1 < 0: no power is left, so s0 is sent at 0.
        (_canon_four_band, "apzf", (), 1.5, ["s0", "s1", "s2", "z1"], 0.0),
    ],
    ids=[
        "four-band",
        "centralized-zf",
        "s0-rate-zero",
        "z1-rate-zero",
        "s1-and-z1-rate-zero",
        "no-csit",
        "negative-residual",
    ],
)
def test_build_layers_tags_and_common_power(instance, kind, zero_rates, p, tags, s0_power):
    canon = instance()
    rates = plan_layout(canon, kind).rate_exp
    assert tuple(tag for tag in ("s0", "s1", "s2", "z1") if rates.get(tag, 0.0) == 0.0) == zero_rates
    _, h_hat = _draw(canon, p, np.random.default_rng(11), draws=20)
    layers, _ = build_layers(canon, h_hat, kind, p)
    assert list(layers) == tags
    assert np.sum(np.abs(layers["s0"]) ** 2) == pytest.approx(s0_power, rel=1e-12)


@pytest.mark.parametrize("kind", ["apzf", "centralized_zf", "naive_zf", "no_csit"])
def test_build_layers_tags_do_not_depend_on_p(kind):
    # At P = 1.5 no power is left for s0; it is sent anyway, at amplitude 0.
    canon = _canon_four_band()
    tags = {}
    for p in (1.5, 1e6):
        _, h_hat = _draw(canon, p, np.random.default_rng(11), draws=20)
        tags[p] = list(build_layers(canon, h_hat, kind, p)[0])
    assert tags[1.5] == tags[1e6]
    assert tags[1.5][0] == "s0"


def test_achievable_rates_zero_channel():
    canon = _canon_reference()
    rng = np.random.default_rng(3)
    _, layers = _draw_layers(canon, "apzf", 1e4, rng)
    silent = as_kernel(np.zeros((1, 2, 2), dtype=complex))
    rates = achievable_rates(silent, layers)
    assert list(rates) == ["s0", "s1", "s2"]
    r0, r1, r2 = rates.values()
    assert r0 == r1 == r2 == sum(rates.values()) == 0.0


def test_achievable_rates_diagonal_shannon():
    # Two interference-free private layers on a diagonal channel reduce
    # to the scalar Shannon rates.
    p = 1e4
    h = np.diag([0.9 + 0.3j, -0.4 + 1.1j])
    layers = {
        "s1": as_kernel(np.array([[math.sqrt(p), 0j]])),
        "s2": as_kernel(np.array([[0j, math.sqrt(p)]])),
    }
    rates = {tag: float(r[0]) for tag, r in achievable_rates(as_kernel(h[np.newaxis]), layers).items()}
    # no s0 or z1 is sent, so neither has a rate
    assert list(rates) == ["s1", "s2"]
    assert rates["s1"] == pytest.approx(math.log2(1 + p * abs(h[0, 0]) ** 2))
    assert rates["s2"] == pytest.approx(math.log2(1 + p * abs(h[1, 1]) ** 2))
    assert sum(rates.values()) == pytest.approx(rates["s1"] + rates["s2"])


def _einsum_rates(h, layers):
    """The decoding chain's rates ``{tag: rate}`` from complex received
    amplitudes, by np.einsum; a layer not sent has power 0."""
    h = as_complex(h)
    none = np.zeros((len(h), 2))
    q = {
        tag: np.abs(np.einsum("dik,dk->di", h, np.broadcast_to(as_complex(t), (len(h), 2)))) ** 2
        for tag, t in layers.items()
    }
    s0, s1, s2, z1 = (q.get(tag, none) for tag in ("s0", "s1", "s2", "z1"))
    sinr0 = np.minimum(*(s0[:, rx] / (1.0 + s1[:, rx] + s2[:, rx] + z1[:, rx]) for rx in (0, 1)))
    return {
        "s0": np.log2(1.0 + sinr0),
        "s1": np.log2(1.0 + s1[:, 0] / (1.0 + z1[:, 0] + s2[:, 0])),
        "s2": np.log2(1.0 + s2[:, 1] / (1.0 + s1[:, 1] + z1[:, 1])),
        "z1": np.log2(1.0 + z1[:, 0] / (1.0 + s2[:, 0])),
    }


@pytest.mark.parametrize("snr_db", [20.0, 40.0, 60.0])
@pytest.mark.parametrize("instance", sorted(GOLDEN_INSTANCES))
def test_achievable_rates_match_complex_einsum_reference(instance, snr_db):
    # The kernel's split-real received powers against plain complex
    # arithmetic, on the golden sweeps' instances and SNR range; the
    # rates are keyed exactly like the layers.
    gamma, alpha, _ = GOLDEN_INSTANCES[instance]
    canon = canonicalize(Topology(gamma), CsitQuality(alpha))
    p = 10.0 ** (snr_db / 10.0)
    h, h_hat = _draw(canon, p, np.random.default_rng(17), draws=1000)
    for kind in ("apzf", "centralized_zf", "naive_zf", "no_csit"):
        layers, _ = build_layers(canon, h_hat, kind, p)
        got, ref = achievable_rates(h, layers), _einsum_rates(h, layers)
        assert list(got) == list(layers)
        for tag in layers:
            np.testing.assert_allclose(got[tag], ref[tag], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("snr_db", [20.0, 40.0, 60.0])
@pytest.mark.parametrize("instance", ["reference", "z1_case2"])
def test_common_layer_power_is_the_general_product_bit_for_bit(instance, snr_db):
    # _received forms s0's power from its one real amplitude; the general
    # complex product differs from it only in terms that are exact zeros.
    gamma, alpha, _ = GOLDEN_INSTANCES[instance]
    canon = canonicalize(Topology(gamma), CsitQuality(alpha))
    p = 10.0 ** (snr_db / 10.0)
    h, h_hat = _draw(canon, p, np.random.default_rng(19), draws=5000)
    layers, _ = build_layers(canon, h_hat, "apzf", p)
    y = _cmul(h, layers["s0"][:, None])
    np.testing.assert_array_equal(scheme._received(h, layers)["s0"], _abs2(y[:, :, 0] + y[:, :, 1]))


def _signed_zeros(rng, x, share=0.3):
    """``x`` with about ``share`` of its entries replaced by 0.0 or -0.0."""
    return np.where(rng.random(x.shape) < share, rng.choice([0.0, -0.0], x.shape), x)


def _golden_powers(instance, column):
    """The golden sweep's instance, and its first SNR point's P or its whole grid's column."""
    gamma, alpha, grid = GOLDEN_INSTANCES[instance]
    powers = 10.0 ** (np.array(grid) / 10.0)
    p = powers[:, None] if column else powers[0]
    return canonicalize(Topology(gamma), CsitQuality(alpha)), p


@pytest.mark.parametrize("column", [False, True])
@pytest.mark.parametrize("instance", ["reference", "z1_case2"])
def test_received_power_is_the_cmul_formula_bit_for_bit(instance, column):
    # _received forms each layer's signal one half and one TX term at a
    # time, with no (2, 2, 2, ...) product array; it must round, and sign
    # every zero, as _cmul's product summed over the TXs and squared by
    # _abs2 does.
    canon, p = _golden_powers(instance, column)
    rng = np.random.default_rng(37)
    h, h_hat = _draw(canon, p, rng, draws=400)
    layers, _ = build_layers(canon, h_hat, "apzf", p)
    h = _signed_zeros(rng, h)
    layers = {tag: t if tag == "s0" else _signed_zeros(rng, t) for tag, t in layers.items()}
    got = scheme._received(h, layers)
    assert list(got) == list(layers)
    for tag, t in layers.items():
        y = _cmul(h, t[:, None])
        assert_same_bits(got[tag], _abs2(y[:, :, 0] + y[:, :, 1]))


def _out_of_place_backoff(layers, p):
    """Reference: the back-off with each adaptive layer scaled into a new array."""
    adaptive = [tag for tag in layers if tag != "s0"]
    budget = p - _abs2(layers["s0"])
    totals = sum(_abs2(layers[tag]) for tag in adaptive)
    over = totals > budget
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.where(over, budget / totals, np.inf)
    scale = np.where(over[0] | over[1], np.sqrt(np.maximum(np.minimum(b[0], b[1]), 0.0)), 1.0)
    return {tag: layers[tag] * scale for tag in adaptive}, over[0] | over[1]


@pytest.mark.parametrize("column", [False, True])
@pytest.mark.parametrize("instance", ["reference", "z1_case2"])
def test_in_place_backoff_is_the_out_of_place_product_bit_for_bit(instance, column):
    # _cap_to_budget scales the adaptive layers in place; on the draws it
    # backs off, and on the others, every bit and every signed zero must
    # be those of the product written into a new array.
    canon, p = _golden_powers(instance, column)
    rng = np.random.default_rng(41)
    shape = np.broadcast_shapes(np.shape(p), (400,))
    layers = {"s0": multicast(0.25 * p)}
    for tag in ("s1", "s2", "z1"):
        # about a third of the draws overshoot the budget
        layers[tag] = _signed_zeros(rng, rng.standard_normal((2, 2) + shape) * np.sqrt(0.15 * p))
    expected, expected_mask = _out_of_place_backoff(layers, p)
    pairs = {tag: [t, _abs2(t)] for tag, t in layers.items()}
    mask = scheme._cap_to_budget(pairs, p, shape)
    assert 0 < mask.sum() < mask.size
    np.testing.assert_array_equal(mask, expected_mask)
    for tag, t in expected.items():
        assert_same_bits(layers[tag], t)
    # The pairs hold each layer's power after the back-off.
    for tag, (t, power) in pairs.items():
        assert t is layers[tag]
        assert_same_bits(power, _abs2(t))


def test_a_draw_over_the_budget_after_the_backoff_raises(monkeypatch):
    # The reference instance at P = 1e4 backs off on some of 1,000 draws;
    # with a back-off that scales nothing, the budget check must raise.
    canon, p = _canon_reference(), 1e4
    _, h_hat = _draw(canon, p, np.random.default_rng(17), 1000)
    _, mask = build_layers(canon, h_hat, "apzf", p)
    assert 0 < mask.sum() < mask.size
    monkeypatch.setattr(scheme, "_cap_to_budget", lambda layers, p, shape: np.zeros(shape, dtype=bool))
    with pytest.raises(scheme.PowerInfeasible, match="per-TX power exceeds budget P = 10000.0"):
        build_layers(canon, h_hat, "apzf", p)


_KINDS = ("apzf", "centralized_zf", "naive_zf", "no_csit")


@pytest.mark.parametrize("points", ["column", "lone", "float"])
@pytest.mark.parametrize("instance", ["reference", "z1_case2"])
def test_every_array_of_a_pass_is_c_contiguous(instance, points):
    # The layout of apzf.channel is a kernel invariant: ufuncs give their
    # output their inputs' memory order, so one array with its points axis
    # above (i, k) in memory would stride every array made from it.  A
    # pass as a sweep runs it, on the golden grid's column, on its first
    # point's (1, 1) column, and on that point's float P; apzf backs off
    # on some draws at that point, so its layers are checked after an
    # in-place scaling.
    canon, p = _golden_powers(instance, points == "column")
    if points == "lone":
        p = np.array([[p]])
    z = np.random.default_rng(53).standard_normal((2000, NORMALS_PER_DRAW))
    h = sample_channel(canon.topology, p, z)
    estimates = [sample_csit(h, canon.topology, canon.csit, p, z, j) for j in (0, 1)]
    layouts = {kind: plan_layout(canon, kind) for kind in _KINDS}
    arrays = {"h": h, "h_hat[0]": estimates[0], "h_hat[1]": estimates[1]}
    backed_off = {}
    passes = scheme._build_pass(canon, estimates.__getitem__, layouts, p, h.shape[3:])
    for kind, (layers, mask) in zip(layouts, passes):
        backed_off[kind] = mask.any()
        powers, rates = scheme._received(h, layers), achievable_rates(h, layers)
        for name, out in (("layer", layers), ("power", powers), ("rate", rates)):
            arrays.update({f"{kind} {name} {tag}": a for tag, a in out.items()})
    assert backed_off["apzf"]
    assert "apzf layer z1" in arrays or instance == "reference"
    for name, a in arrays.items():
        assert a.flags.c_contiguous, (name, a.shape, a.strides)


def _layers_mask_rates(canon, kind, p, z):
    """A scheme's layers, back-off mask and rates on the normals ``z`` at ``p``."""
    h = sample_channel(canon.topology, p, z)
    h_hat = sample_csit(h, canon.topology, canon.csit, p, z)
    layers, mask = build_layers(canon, h_hat, kind, p)
    return layers, mask, achievable_rates(h, layers)


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("instance", sorted(GOLDEN_INSTANCES))
def test_a_column_slice_is_its_points_float_p_bit_for_bit(instance, kind):
    # A sweep runs every pass on a (points, 1) column of powers, a lone
    # point's too, while the library and apzf.checks run on a float P.
    # Each point's slice of the column's layers, mask and rates must be
    # what its float P gives.  The grid reaches P = 0.01, where the ZF
    # directions are rescaled, and crosses 0 dB, below which s0 gets no
    # power.
    gamma, alpha, _ = GOLDEN_INSTANCES[instance]
    canon = canonicalize(Topology(gamma), CsitQuality(alpha))
    powers = [10.0 ** (snr / 10.0) for snr in (-20.0, -3.0, 0.0, 0.5, 10.0, 30.0)]
    z = np.random.default_rng(43).standard_normal((500, NORMALS_PER_DRAW))
    col_layers, col_mask, col_rates = _layers_mask_rates(canon, kind, np.array(powers)[:, None], z)
    for i, q in enumerate(powers):
        layers, mask, rates = _layers_mask_rates(canon, kind, q, z)
        assert list(col_layers) == list(layers) and list(col_rates) == list(rates)
        for tag, t in layers.items():
            assert_same_bits(col_layers[tag][..., i, :], t)
        np.testing.assert_array_equal(col_mask[i], mask)
        for tag, r in rates.items():
            assert_same_bits(col_rates[tag][i], r)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(np.float64).eps, reason="long double is float64 here"
)
@pytest.mark.parametrize("column", [False, True])
@pytest.mark.parametrize("instance", sorted(GOLDEN_INSTANCES))
def test_long_double_normals_give_long_double_layers_and_rates(instance, column):
    # The kernel keeps its input's dtype: no layer it adapts, and no rate,
    # may be rounded to float64 on the way.
    canon, p = _golden_powers(instance, column)
    z = np.random.default_rng(47).standard_normal((300, NORMALS_PER_DRAW)).astype(np.longdouble)
    for kind in _KINDS:
        layers, _, rates = _layers_mask_rates(canon, kind, p, z)
        for tag, t in layers.items():
            assert tag == "s0" or t.dtype == np.longdouble, (kind, tag)
        for tag, r in rates.items():
            assert r.dtype == np.longdouble, (kind, tag)


def test_rates_nonnegative_and_additive():
    canon = _canon_reference()
    rng = np.random.default_rng(4)
    for kind in ("apzf", "centralized_zf", "naive_zf", "no_csit"):
        h, layers = _draw_layers(canon, kind, 1e5, rng, draws=50)
        rates = achievable_rates(h, layers)
        r = np.array(list(rates.values()))
        assert r.shape == (len(layers), 50)
        assert r.min() >= 0.0
        np.testing.assert_allclose(sum(rates.values()), r.sum(axis=0), rtol=1e-6)


def test_tx_power_within_budget():
    # The adaptive coefficient occasionally overshoots at moderate SNR;
    # the back-off must keep every draw feasible.
    canon = _canon_reference()
    for p in (1e3, 1e4, 1e6):
        rng = np.random.default_rng(5)
        for kind in ("apzf", "centralized_zf", "naive_zf"):
            _, layers = _draw_layers(canon, kind, p, rng, draws=300)
            per_tx = sum(np.abs(as_complex(t)) ** 2 for t in layers.values())  # (draws, tx)
            assert np.all(per_tx <= p * (1.0 + 1e-9))


def test_backoff_scales_private_pairs_uniformly():
    # When a draw overshoots the per-TX budget, both private vectors must
    # be scaled by one common factor (cancellation directions intact) and
    # the common layer must be left alone.
    canon = _canon_reference()
    layout = plan_layout(canon, "apzf")
    tau = layout.power_exp["s1"]
    p = 1e3
    rng = np.random.default_rng(6)
    _, h_hat = _draw(canon, p, rng, draws=300)
    layers, backed_off = build_layers(canon, h_hat, "apzf", p)
    raw = [apzf(h_hat[:, 0], rx, tau, canon.topology, p, active_tx=0) for rx in (0, 1)]
    ratios = np.concatenate(
        [as_complex(layers[tag]) / as_complex(raw[i]) for i, tag in enumerate(("s1", "s2"))], axis=1
    )
    beta = ratios[:, :1]
    np.testing.assert_allclose(beta.imag, 0.0, atol=1e-12)
    assert np.all((0.0 < beta.real) & (beta.real <= 1.0 + 1e-12))
    np.testing.assert_allclose(ratios, np.broadcast_to(beta, ratios.shape), rtol=1e-12)
    capped = beta.real[:, 0] < 1.0 - 1e-9
    assert capped.sum() > 0
    np.testing.assert_array_equal(capped, backed_off)
    np.testing.assert_array_equal(layers["s0"], multicast(p - p**tau))


def test_decode_order_monotonicity():
    canon = _canon_reference()
    rng = np.random.default_rng(7)
    h, layers = _draw_layers(canon, "apzf", 1e5, rng, draws=100)
    got = _received(h, layers)
    for rx in (0, 1):
        full = got["s0"][:, rx] / (1.0 + got["s1"][:, rx] + got["s2"][:, rx])
        partial = got["s0"][:, rx] / (1.0 + got["s2"][:, rx])
        assert np.all(full <= partial)
    r0 = achievable_rates(h, layers)["s0"]
    assert np.all(r0 <= np.log2(1.0 + np.minimum(
        *(got["s0"][:, rx] / (1.0 + got["s2"][:, rx]) for rx in (0, 1))
    )))


def test_layer_sinr_exponents():
    canon = _canon_reference()
    grid = np.logspace(4, 8, 5)
    draws = 800
    rng = np.random.default_rng(99)
    acc0 = np.zeros(len(grid))
    acc1 = np.zeros(len(grid))
    for ip, p in enumerate(grid):
        h, h_hat = _draw(canon, p, rng, draws)
        layers, _ = build_layers(canon, h_hat, "apzf", p)
        got = _received(h, layers)
        acc0[ip] = np.mean(np.log(got["s0"][:, 0] / (1.0 + got["s1"][:, 0] + got["s2"][:, 0])))
        acc1[ip] = np.mean(np.log(got["s1"][:, 0] / (1.0 + got["s2"][:, 0])))
    # common layer SINR grows as gamma_22 - rho, private as rho
    assert fit_exponent(list(zip(grid, np.exp(acc0)))) == pytest.approx(0.3, abs=0.1)
    assert fit_exponent(list(zip(grid, np.exp(acc1)))) == pytest.approx(0.7, abs=0.1)


def test_apzf_outrates_naive_at_high_snr():
    canon = _canon_reference()
    p = 1e6
    means = {}
    for kind in ("apzf", "naive_zf"):
        h, layers = _draw_layers(canon, kind, p, np.random.default_rng(8), draws=2000)
        means[kind] = np.mean(sum(achievable_rates(h, layers).values()))
    assert means["apzf"] > means["naive_zf"]


def test_apzf_interference_stays_on_noise_floor():
    canon = _canon_reference()
    grid = np.logspace(4, 8, 5)
    draws = 800
    rng = np.random.default_rng(10)
    acc = np.zeros(len(grid))
    for ip, p in enumerate(grid):
        h, h_hat = _draw(canon, p, rng, draws)
        layers, _ = build_layers(canon, h_hat, "apzf", p)
        # s2 is aimed at RX 1, so its power at RX 0 is RX 0's residual interference.
        acc[ip] = np.mean(np.log(scheme._received(h, layers)["s2"][0]))
    assert abs(fit_exponent(list(zip(grid, np.exp(acc))))) <= 0.1
