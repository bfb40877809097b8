import copy
import dataclasses
import math
import pickle

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
    GdofValue,
    SchemeLayout,
    scheme_layout,
)
import apzf.checks as checks
from conftest import dyadic_instance, reference_instance


def test_centralized_perfect_csit_full_gdof():
    v = centralized_gdof(Topology(np.ones((2, 2))), np.ones((2, 2)))
    assert v.value == 2.0


def test_centralized_non_interfering_links():
    v = centralized_gdof(Topology(np.array([[1.0, 0.0], [0.0, 1.0]])), np.zeros((2, 2)))
    assert v.value == 2.0


def test_centralized_symmetric_half_quality():
    topo = Topology.parallel(0.8)
    v = centralized_gdof(topo, np.full((2, 2), 0.5))
    assert v.value == 1.7
    assert v.d1 == 1.7 and v.d2 == 1.7
    assert v.branch == "d1"  # tie goes to d1


def test_centralized_no_csit():
    v = centralized_gdof(Topology(np.ones((2, 2))), np.zeros((2, 2)))
    assert v.value == 1.0


def test_centralized_rejects_bad_alpha():
    with pytest.raises(AlphaOutOfRange):
        centralized_gdof(Topology.parallel(0.5), np.full((2, 2), 0.9))
    with pytest.raises(ValueError):
        centralized_gdof(Topology.parallel(0.5), np.zeros(3))


def test_centralized_reports_gamma_before_alpha():
    # The same order as validate: every gamma entry, then every alpha entry.
    gamma = Topology.parallel(0.5).gamma
    gamma[1, 1] = -0.1
    alpha = np.full((2, 2), 0.4)
    alpha[0, 1] = 0.6
    with pytest.raises(GammaOutOfRange) as info:
        centralized_gdof(Topology(gamma), alpha)
    assert (info.value.rx, info.value.tx) == (1, 1)


def test_distributed_reference_configuration():
    topo, csit = reference_instance()
    assert distributed_gdof(topo, csit).value == 1.7
    assert distributed_gdof(topo, CsitQuality.uniform(0.0, 0.0)).value == 1.2


def test_distributed_equal_qualities_match_centralized():
    rng = np.random.default_rng(3)
    for _ in range(50):
        topo, csit = dyadic_instance(rng)
        same = CsitQuality(np.stack([csit.alpha[0], csit.alpha[0]]))
        assert distributed_gdof(topo, same).value == centralized_gdof(topo, csit.alpha[0]).value


def test_distributed_asymmetric_example():
    topo = Topology(np.array([[1.0, 0.7], [0.5, 0.9]]))
    csit = CsitQuality.uniform(0.4, 0.3)
    assert distributed_gdof(topo, csit).value == 1.6


def test_distributed_rejects_non_dominant():
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 0.5
    a[1, 1, 1] = 0.5
    with pytest.raises(NoDominantTransmitter):
        distributed_gdof(Topology(np.ones((2, 2))), CsitQuality(a))


def _first_lattice_instance():
    topo, csit = next(checks.lattice(2))
    return f"gamma={topo.gamma.tolist()}, alpha={csit.alpha.tolist()}"


def test_closed_form_identity_reports_a_one_ulp_mismatch(monkeypatch):
    real = checks.genie_outer_bound

    def nudged(topo, csit):
        value = real(topo, csit)
        return dataclasses.replace(value, value=math.nextafter(value.value, math.inf))

    monkeypatch.setattr(checks, "genie_outer_bound", nudged)
    assert checks.closed_form_identity() == (False, f"mismatch at {_first_lattice_instance()}")


def test_closed_form_identity_tells_negative_zero_from_zero(monkeypatch):
    # The first lattice instance has all-zero gamma, so both values are 0.0
    # there; a -0.0 compares equal to it but is not the same bits.
    real = checks.genie_outer_bound

    def negated(topo, csit):
        value = real(topo, csit)
        return dataclasses.replace(value, value=-value.value)

    monkeypatch.setattr(checks, "genie_outer_bound", negated)
    assert checks.closed_form_identity() == (False, f"mismatch at {_first_lattice_instance()}")


def test_genie_degenerate_max():
    topo, csit = reference_instance()
    assert genie_outer_bound(topo, csit).value == centralized_gdof(topo, csit.alpha[0]).value
    perfect = CsitQuality.uniform(1.0, 0.0)
    assert genie_outer_bound(Topology(np.ones((2, 2))), perfect).value == 2.0


def test_gdof_value_is_min_of_bounds():
    rng = np.random.default_rng(17)
    for _ in range(200):
        topo, csit = dyadic_instance(rng)
        v = distributed_gdof(topo, csit)
        assert v.value == min(v.d1, v.d2)
        assert v.branch == ("d1" if v.d1 <= v.d2 else "d2")


def test_gdof_bounds():
    rng = np.random.default_rng(19)
    for _ in range(300):
        topo, csit = dyadic_instance(rng)
        v = distributed_gdof(topo, csit).value
        assert topo.gamma.max() - 1e-12 <= v <= 2.0 + 1e-12


def test_gdof_monotone_in_alpha():
    rng = np.random.default_rng(23)
    for _ in range(200):
        topo, csit = dyadic_instance(rng)
        base = distributed_gdof(topo, csit).value
        j, i, k = rng.integers(0, 2, size=3)
        bumped = csit.alpha.copy()
        room = topo.gamma[i, k] - bumped[j, i, k]
        if room <= 0:
            continue
        bumped[j, i, k] += room * 0.5
        # keep the dominance ordering intact
        other = 1 - j
        if not (
            np.all(bumped[j] >= bumped[other]) or np.all(bumped[other] >= bumped[j])
        ):
            continue
        assert distributed_gdof(topo, CsitQuality(bumped)).value >= base - 1e-12


def test_gdof_invariant_under_rx_relabel():
    rng = np.random.default_rng(29)
    for _ in range(200):
        topo, csit = dyadic_instance(rng)
        flipped = distributed_gdof(
            Topology(topo.gamma[::-1, :]), CsitQuality(csit.alpha[:, ::-1, :])
        )
        assert distributed_gdof(topo, csit).value == flipped.value


def test_layout_reference_configuration():
    topo, csit = reference_instance()
    layout = scheme_layout(canonicalize(topo, csit))
    assert layout.parallel and layout.case_id == "case1"
    assert layout.rho == pytest.approx(0.7)
    assert layout.rate_exp == pytest.approx({"s0": 0.3, "s1": 0.7, "s2": 0.7})
    assert layout.power_exp == pytest.approx({"s0": 1.0, "s1": 0.7, "s2": 0.7})
    assert "z1" not in layout.rate_exp
    assert layout.rate_total() == pytest.approx(1.7)


@pytest.mark.parametrize(
    "cross, alpha, general_rounds_alike", [(0.4, 0.4, False), (0.8, 0.5, True)]
)
def test_symmetric_layout_uses_the_shortcut_formula(cross, alpha, general_rounds_alike):
    # The shortcut is not redundant off the 1/1024 lattice: the general
    # case-1 branch computes 1.0 - cross + alpha, which can round differently
    # from 1.0 + alpha - cross (0.4, 0.4 gives 1.0 against 0.9999999999999999).
    layout = scheme_layout(canonicalize(Topology.parallel(cross), CsitQuality.uniform(alpha, 0.0)))
    rho = max(1.0 + alpha - cross, 0.0)
    assert layout.parallel and layout.case_id == "case1"
    assert layout.rho.hex() == rho.hex()
    assert [(k, v.hex()) for k, v in layout.power_exp.items()] == [
        ("s0", (1.0).hex()), ("s1", rho.hex()), ("s2", rho.hex())
    ]
    assert [(k, v.hex()) for k, v in layout.rate_exp.items()] == [
        ("s0", max(cross - alpha, 0.0).hex()), ("s1", rho.hex()), ("s2", rho.hex())
    ]
    assert layout.rate_total() == max(cross - alpha, 0.0) + rho + rho
    assert (1.0 - cross + alpha == rho) is general_rounds_alike


def test_layout_case1_example():
    topo = Topology(np.array([[1.0, 0.7], [0.5, 0.9]]))
    a1 = np.array([[0.4, 0.4], [0.3, 0.3]])
    csit = CsitQuality(np.stack([a1, np.zeros((2, 2))]))
    layout = scheme_layout(canonicalize(topo, csit))
    assert layout.case_id == "case1" and not layout.parallel
    assert layout.rho == pytest.approx(0.6)
    assert layout.rate_exp == pytest.approx({"s0": 0.3, "s1": 0.6, "s2": 0.6, "z1": 0.1})
    assert layout.power_exp["s1"] == pytest.approx(0.7)
    assert layout.power_exp["z1"] == pytest.approx(0.1)
    assert layout.rate_total() == pytest.approx(1.6)


def test_layout_case2_example():
    topo = Topology(np.array([[1.0, 0.8], [0.9, 0.6]]))
    # Row minima (0.5, 0.4), so alpha' = (0.5, 0.4).
    a1 = np.array([[0.5, 0.6], [0.4, 0.5]])
    layout = scheme_layout(canonicalize(topo, CsitQuality(np.stack([a1, np.zeros((2, 2))]))))
    assert layout.case_id == "case2"
    assert layout.rho == pytest.approx(0.4)
    assert layout.rate_exp == pytest.approx({"s0": 0.5, "s1": 0.4, "s2": 0.4, "z1": 0.1})
    assert layout.power_exp["s1"] == pytest.approx(0.4 + 1.0 - 0.9 + min(0.2, 0.3))
    assert layout.power_exp["z1"] == pytest.approx(0.1)
    assert layout.rate_total() == pytest.approx(1.4)


def test_layout_case_discriminator_and_tie():
    rng = np.random.default_rng(31)
    for _ in range(200):
        topo, csit = dyadic_instance(rng)
        canon = canonicalize(topo, csit)
        layout = scheme_layout(canon)
        g = canon.topology.gamma
        if layout.parallel:
            assert g[0, 0] == g[1, 1] == 1.0 and g[0, 1] == g[1, 0]
        elif g[1, 0] <= g[1, 1]:
            assert layout.case_id == "case1"
        else:
            assert layout.case_id == "case2"


@pytest.mark.parametrize(
    "nudge, failure",
    [(2e-12, "layout sum off by 2e-12"), (math.nan, "layout sum off by nan"), (None, None)],
    ids=["past-1e-12", "nan", "one-ulp"],
)
def test_layout_totals_reports_a_sum_off_by_more_than_1e_12(monkeypatch, nudge, failure):
    # The first lattice instance has all-zero exponents, so the nudge is
    # the whole difference there.
    real = checks.scheme_layout

    def nudged(canonical):
        layout = real(canonical)
        s0 = layout.rate_exp["s0"]
        layout.rate_exp["s0"] = math.nextafter(s0, math.inf) if nudge is None else s0 + nudge
        return layout

    monkeypatch.setattr(checks, "scheme_layout", nudged)
    got, detail = checks.layout_totals()
    if failure is None:
        assert got is True and detail.startswith("18704 lattice instances (1/2 grid), max |diff| = ")
    else:
        assert (got, detail) == (False, f"{failure} at {_first_lattice_instance()}")


def test_layout_exponent_ranges():
    rng = np.random.default_rng(41)
    for _ in range(300):
        topo, csit = dyadic_instance(rng)
        layout = scheme_layout(canonicalize(topo, csit))
        assert all(r >= 0.0 for r in layout.rate_exp.values())
        assert all(x <= 1.0 + 1e-12 for x in layout.power_exp.values())
        assert set(layout.rate_exp) == set(layout.power_exp)


@pytest.mark.parametrize("cls", [GdofValue, SchemeLayout, Topology, CsitQuality])
def test_slotted_results_behave_as_values(cls):
    # The parallel reference instance, and case 1 and case 2 with a z1 layer.
    a1 = np.array([[0.4, 0.4], [0.3, 0.3]])
    instances = [reference_instance()] + [
        (Topology(np.array(gamma)), CsitQuality(np.stack([a, np.zeros((2, 2))])))
        for gamma, a in (([[1.0, 0.7], [0.5, 0.9]], a1), ([[1.0, 0.8], [0.9, 0.6]], a1 + 0.1))
    ]
    names = [f.name for f in dataclasses.fields(cls)]

    def fields(value):
        # An array field as its dtype, shape and bytes, any other as its repr.
        return [
            (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else repr(v)
            for v in (getattr(value, n) for n in names)
        ]

    # Protocols 0 and 1 cannot pickle a slotted class without __getstate__.
    protocols = range(2, pickle.HIGHEST_PROTOCOL + 1)
    for topo, csit in instances:
        made = {
            GdofValue: [distributed_gdof(topo, csit), genie_outer_bound(topo, csit)],
            SchemeLayout: [scheme_layout(canonicalize(topo, csit))],
            Topology: [topo],
            CsitQuality: [csit],
        }[cls]
        for value in made:
            assert type(value) is cls and not hasattr(value, "__dict__")
            with pytest.raises(AttributeError):
                value.not_a_field = 0
            for other in (
                *(pickle.loads(pickle.dumps(value, protocol)) for protocol in protocols),
                copy.copy(value),
                dataclasses.replace(value),
            ):
                assert type(other) is cls and other == value
                assert fields(other) == fields(value)
                if cls is SchemeLayout:
                    assert other.rate_total().hex() == value.rate_total().hex()
