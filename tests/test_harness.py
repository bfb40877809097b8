import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from apzf import (
    NORMALS_PER_DRAW,
    ConfigError,
    CsitQuality,
    InsufficientPoints,
    PointStats,
    SweepConfig,
    SweepCurve,
    Topology,
    achievable_rates,
    build_layers,
    canonicalize,
    closed_forms,
    estimate_slope,
    fit_exponent,
    load_config,
    plan_layout,
    sample_channel,
    sample_csit,
    simulate_snr,
    sweep,
    write_csv,
    write_summary,
)
import apzf.harness as harness
from apzf.harness import _block_normals, _snr_key, _substream, config_from_dict, config_to_dict
from conftest import BAD_CONFIG_VALUES, reference_instance


def _config(**overrides):
    topo, csit = reference_instance()
    base = dict(
        topology=topo,
        csit=csit,
        schemes=("apzf", "naive_zf"),
        snr_db=(40.0, 50.0, 60.0),
        draws=20,
        seed=7,
    )
    base.update(overrides)
    return SweepConfig(**base)


def _draw_sum(cfg, canon, layout, p, snr_db, d):
    """Sum rate of apzf on draw d of a point, from its substream alone."""
    z = _substream(cfg.seed, snr_db, d).standard_normal((1, NORMALS_PER_DRAW))
    h = sample_channel(canon.topology, p, z)
    h_hat = sample_csit(h, canon.topology, canon.csit, p, z)
    layers, _ = build_layers(canon, h_hat, layout, "apzf", p)
    r0, r1, r2, rz = achievable_rates(h, layers)
    return float((r0 + r1 + r2 + rz)[0])


# ---------------------------------------------------------------- points


def test_substream_key_is_seed_snr_millidb_draw():
    a = _substream(7, 45.0, 3).random(4)
    b = np.random.default_rng([7, 45000, 3]).random(4)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 23, 2**32, 2**64 + 3])
@pytest.mark.parametrize("snr_db", [0.0, -0.001])  # SNR keys 0 and 2**31 - 1
def test_block_normals_match_substreams(seed, snr_db):
    # The kernel's blocks for 4098 draws; rows at both block edges must be
    # their draws' substreams bit for bit.  2**64 + 3 is three entropy
    # words, so with the key and the draw index it overflows the 4-word pool.
    key = _snr_key(snr_db)
    assert key in (0, 2**31 - 1)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        first = _block_normals(seed, key, range(0, harness._BLOCK_DRAWS))
        second = _block_normals(seed, key, range(harness._BLOCK_DRAWS, harness._BLOCK_DRAWS + 2))
    assert first.shape == (4096, NORMALS_PER_DRAW) and second.shape == (2, NORMALS_PER_DRAW)
    for d, row in ((0, first[0]), (4095, first[4095]), (4096, second[0]), (4097, second[1])):
        expected = _substream(seed, snr_db, d).standard_normal(NORMALS_PER_DRAW)
        np.testing.assert_array_equal(row, expected)


def test_block_normals_cover_the_largest_draw_index():
    z = _block_normals(5, 45000, range(2**32 - 2, 2**32))
    for i, d in enumerate((2**32 - 2, 2**32 - 1)):
        np.testing.assert_array_equal(z[i], _substream(5, 45.0, d).standard_normal(NORMALS_PER_DRAW))


def _apzf_point(cfg, snr_db):
    """apzf's PointStats at one SNR point, simulated on its own."""
    return simulate_snr(dataclasses.replace(cfg, schemes=("apzf",)), snr_db)["apzf"]


def test_simulate_snr_reproducible_and_single_draw():
    cfg = _config(draws=1)
    pt = _apzf_point(cfg, 50.0)
    assert pt.stderr == 0.0
    assert _apzf_point(cfg, 50.0) == pt

    # one draw must match a by-hand reconstruction of the same substream
    canon = canonicalize(cfg.topology, cfg.csit)
    layout = plan_layout(canon, "apzf")
    p = 10.0 ** (50.0 / 10.0)
    manual = _draw_sum(cfg, canon, layout, p, 50.0, 0)
    assert pt.mean == pytest.approx(manual, rel=1e-15)


def test_simulate_snr_mean_prefix_consistent():
    # Substreams are keyed by draw index, so a longer run reuses the
    # shorter run's draws exactly.
    m5 = _apzf_point(_config(draws=5), 40.0).mean
    cfg10 = _config(draws=10)
    m10 = _apzf_point(cfg10, 40.0).mean
    # reconstruct the 10-draw mean from two disjoint halves
    canon = canonicalize(cfg10.topology, cfg10.csit)
    layout = plan_layout(canon, "apzf")
    p = 10.0 ** (40.0 / 10.0)
    tail = [_draw_sum(cfg10, canon, layout, p, 40.0, d) for d in range(5, 10)]
    assert m10 == pytest.approx((5 * m5 + sum(tail)) / 10.0, rel=1e-12)


def _point_with_draw_sums(monkeypatch, cfg, snr_db):
    """``simulate_snr``'s result and, per scheme, the sum rate of every draw."""
    sums = []

    def recording(h, layers):
        rates = achievable_rates(h, layers)
        sums.append(sum(rates))
        return rates

    monkeypatch.setattr(harness, "achievable_rates", recording)
    out = harness.simulate_snr(cfg, snr_db)
    n = len(cfg.schemes)  # calls run block by block, scheme by scheme
    return out, [np.concatenate(sums[i::n]) for i in range(n)]


@pytest.mark.parametrize(
    "draws, block", [(23, 1), (23, 5), (23, 7), (8203, 4097), (8203, 8203)]
)
def test_block_size_does_not_change_results(monkeypatch, draws, block):
    # A point's draws are evaluated in blocks; a draw's sum rate, and so
    # every statistic of the point, must not depend on the block it is in.
    # Blocks of 8,192 draws or more catch numpy's complex multiply, which
    # is not bit-commutative and has its operands swapped on large arrays.
    cfg = _config(schemes=("apzf", "centralized_zf", "naive_zf", "no_csit"), draws=draws)
    whole, whole_sums = _point_with_draw_sums(monkeypatch, cfg, 40.0)
    monkeypatch.setattr(harness, "_BLOCK_DRAWS", block)
    out, sums = _point_with_draw_sums(monkeypatch, cfg, 40.0)
    assert out == whole
    for a, b in zip(sums, whole_sums):
        np.testing.assert_array_equal(a, b)


def _z1_case2_config():
    """The asymmetric case-2 instance whose apzf layout carries a z1 layer."""
    return SweepConfig(
        topology=Topology([[1.0, 0.6], [0.9, 0.5]]),
        csit=CsitQuality([[[0.6, 0.4], [0.5, 0.3]], [[0.2, 0.1], [0.1, 0.0]]]),
        schemes=("apzf", "centralized_zf", "naive_zf", "no_csit"),
        snr_db=(20.0, 40.0),
        draws=300,
        seed=23,
    )


@pytest.mark.parametrize("scheme", ["apzf", "centralized_zf", "naive_zf", "no_csit"])
def test_point_stats_do_not_depend_on_the_other_schemes(scheme):
    # At 20 dB apzf and centralized_zf back off on many draws, so
    # backoff_frac is compared too.
    cfg = _z1_case2_config()
    for snr in cfg.snr_db:
        alone = simulate_snr(dataclasses.replace(cfg, schemes=(scheme,)), snr)
        assert alone[scheme] == simulate_snr(cfg, snr)[scheme]


def test_naive_zf_sends_what_no_csit_sends_when_its_s1_carries_no_rate():
    # The naive layout holds the weaker TX's alphas, so its s1 carries no
    # rate here; z1 is apzf's alone, so naive_zf's s0 takes all of P.
    cfg = _z1_case2_config()
    canon = canonicalize(cfg.topology, cfg.csit)
    assert plan_layout(canon, "naive_zf").rate_exp["s1"] == 0.0
    assert plan_layout(canon, "naive_zf").rate_exp["z1"] > 0.0
    for snr in cfg.snr_db:
        out = simulate_snr(cfg, snr)
        assert out["naive_zf"] == out["no_csit"]
        p = 10.0 ** (snr / 10.0)
        z = _block_normals(cfg.seed, _snr_key(snr), range(cfg.draws))
        h_hat = sample_csit(sample_channel(canon.topology, p, z), canon.topology, canon.csit, p, z)
        naive, _ = build_layers(canon, h_hat, plan_layout(canon, "naive_zf"), "naive_zf", p)
        blind, _ = build_layers(canon, h_hat, plan_layout(canon, "no_csit"), "no_csit", p)
        assert list(naive) == list(blind) == ["s0"]
        np.testing.assert_array_equal(naive["s0"], blind["s0"])


def test_stderr_shrinks_like_sqrt_draws():
    se_small = _apzf_point(_config(draws=100), 30.0).stderr
    se_big = _apzf_point(_config(draws=10000), 30.0).stderr
    assert 5.0 < se_small / se_big < 20.0


def test_no_csit_rate_tracks_log2p():
    topo = Topology(np.ones((2, 2)))
    csit = CsitQuality.uniform(1.0, 1.0)
    cfg = SweepConfig(
        topology=topo,
        csit=csit,
        schemes=("no_csit",),
        snr_db=(80.0, 90.0, 100.0),
        draws=400,
        seed=3,
        window_db=(80.0, 100.0),
    )
    curve = sweep(cfg)
    assert curve.slopes["no_csit"] == pytest.approx(1.0, abs=0.1)
    # the ratio approaches 1 like O(1/log2 P): the min over the two
    # receivers costs a constant ~1.7 bits
    log2p = 100.0 * math.log2(10.0) / 10.0
    assert curve.points["no_csit"][-1].mean / log2p == pytest.approx(1.0, abs=0.08)


# ---------------------------------------------------------------- sweeps


def test_sweep_orders_schemes_above_20db():
    cfg = _config(
        schemes=("apzf", "centralized_zf", "naive_zf", "no_csit"),
        snr_db=tuple(float(s) for s in range(0, 61, 10)),
        draws=400,
        seed=5,
    )
    curve = sweep(cfg)
    for i, snr in enumerate(cfg.snr_db):
        if snr >= 20.0:
            assert curve.points["apzf"][i].mean > curve.points["naive_zf"][i].mean
            assert curve.points["apzf"][i].mean > curve.points["no_csit"][i].mean
    assert curve.slopes["apzf"] > curve.slopes["naive_zf"] + 0.2
    for s in cfg.schemes:
        assert 0.8 < curve.slopes[s] < 1.9
    assert curve.gdof == {"distributed": 1.7, "centralized": 1.7, "no_csit": 1.2}


def test_sweep_single_point_window_gives_none_slope():
    cfg = _config(snr_db=(50.0,), draws=3)
    curve = sweep(cfg)
    assert curve.slopes == {"apzf": None, "naive_zf": None}
    assert len(curve.points["apzf"]) == 1


def test_sweep_worker_count_does_not_change_results(tmp_path, monkeypatch):
    # Let a sweep this small use the pool, so both paths are compared.
    monkeypatch.setattr(harness, "_POOL_MIN_DRAWS", 1)
    serial = sweep(_config(draws=15, seed=11))
    parallel = sweep(_config(draws=15, seed=11, workers=2))
    assert serial.points == parallel.points
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(serial, f1)
    write_csv(parallel, f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_pool_size_needs_enough_draws_per_worker(monkeypatch):
    monkeypatch.setattr(harness, "_POOL_MIN_DRAWS", 100)
    # 3 points x 20 draws: too few for a second worker.
    assert harness._pool_size(_config(workers=2)) == 1
    # 3 x 70 = 210 draws: two workers get 100 each, a third would not.
    assert harness._pool_size(_config(draws=70, workers=4)) == 2
    # Never more workers than SNR points, nor than configured.
    assert harness._pool_size(_config(draws=1000, workers=8)) == 3
    assert harness._pool_size(_config(draws=1000, workers=1)) == 1


def test_small_sweep_forks_no_workers(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a small sweep started a process pool")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    curve = sweep(_config(draws=5, workers=2))
    assert len(curve.points["apzf"]) == 3


def test_sweep_repeat_is_byte_identical(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(sweep(_config(draws=10)), f1)
    write_csv(sweep(_config(draws=10)), f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_closed_forms_reference_values():
    forms = closed_forms(_config())
    assert forms == {"distributed": 1.7, "centralized": 1.7, "no_csit": 1.2}


# ---------------------------------------------------------------- fitting


def test_estimate_slope_recovers_exact_line():
    snrs = [40.0, 45.0, 50.0, 55.0, 60.0]
    pts = [(s, 1.7 * (s * math.log2(10.0) / 10.0) + 3.0) for s in snrs]
    assert estimate_slope(pts, (40.0, 60.0)) == pytest.approx(1.7, abs=1e-9)


def test_estimate_slope_two_points_is_difference_quotient():
    pts = [(40.0, 10.0), (60.0, 17.0)]
    dx = (60.0 - 40.0) * math.log2(10.0) / 10.0
    assert estimate_slope(pts, (40.0, 60.0)) == pytest.approx(7.0 / dx, rel=1e-12)


def test_estimate_slope_window_edges_inclusive():
    pts = [(39.999, 1.0), (40.0, 2.0), (60.0, 3.0), (60.001, 4.0)]
    dx = 20.0 * math.log2(10.0) / 10.0
    assert estimate_slope(pts, (40.0, 60.0)) == pytest.approx(1.0 / dx, rel=1e-12)
    with pytest.raises(InsufficientPoints):
        estimate_slope([(39.999, 1.0), (60.001, 4.0)], (40.0, 60.0))


def test_fit_exponent_power_law_and_constant():
    grid = [1e2, 1e4, 1e6]
    assert fit_exponent([(p, p**0.4) for p in grid]) == pytest.approx(0.4, abs=1e-12)
    assert fit_exponent([(p, 2.5) for p in grid]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InsufficientPoints):
        fit_exponent([(1e4, 1.0), (1e4, 2.0)])


# ---------------------------------------------------------------- files


def test_write_csv_format(tmp_path):
    curve = SweepCurve(
        snr_db=(40.0, 50.0),
        points={
            "naive_zf": [PointStats(1.234567890123456, 0.01, 0.0), PointStats(2.0, 0.02, 0.0)],
            "apzf": [PointStats(3.5, 0.0, 0.0), PointStats(4.25, 0.125, 0.5)],
        },
        slopes={"naive_zf": None, "apzf": 1.7},
        gdof={},
    )
    path = tmp_path / "curve.csv"
    write_csv(curve, path)
    text = path.read_bytes().decode("utf-8")
    assert "\r" not in text
    lines = text.split("\n")
    assert lines[0] == "snr_db,scheme,sum_rate_mean,sum_rate_stderr"
    # config order is preserved, scheme-major then SNR
    assert lines[1] == "40,naive_zf,1.23456789012,0.01"
    assert lines[2] == "50,naive_zf,2,0.02"
    assert lines[3] == "40,apzf,3.5,0"
    assert lines[4] == "50,apzf,4.25,0.125"
    assert lines[5] == ""


def test_write_summary_format(tmp_path):
    cfg = _config(snr_db=(50.0,), draws=2)
    curve = sweep(cfg)
    path = tmp_path / "summary.json"
    write_summary(cfg, curve, path)
    raw = path.read_bytes().decode("utf-8")
    assert raw.endswith("}\n")
    data = json.loads(raw)
    assert set(data) == {"config", "slopes", "gdof_closed_form", "backoff_frac"}
    assert data["slopes"] == {"apzf": None, "naive_zf": None}
    assert set(data["backoff_frac"]) == {"apzf", "naive_zf"}
    assert all(len(f) == 1 and 0.0 <= f[0] <= 1.0 for f in data["backoff_frac"].values())
    assert data["gdof_closed_form"] == {
        "distributed": 1.7,
        "centralized": 1.7,
        "no_csit": 1.2,
    }
    assert data["config"]["draws"] == 2
    assert data["config"]["gamma"] == [[1.0, 0.8], [0.8, 1.0]]
    # keys are sorted for stable diffs
    assert raw.index('"backoff_frac"') < raw.index('"config"')
    assert raw.index('"config"') < raw.index('"gdof_closed_form"') < raw.index('"slopes"')


# ---------------------------------------------------------------- config


def test_config_dict_round_trip():
    cfg = _config(window_db=(30.0, 55.0), workers=3)
    back = config_from_dict(config_to_dict(cfg))
    np.testing.assert_array_equal(back.topology.gamma, cfg.topology.gamma)
    np.testing.assert_array_equal(back.csit.alpha, cfg.csit.alpha)
    assert back.schemes == cfg.schemes
    assert back.snr_db == cfg.snr_db
    assert (back.draws, back.seed) == (cfg.draws, cfg.seed)
    assert back.window_db == (30.0, 55.0)
    assert back.workers == 3


def test_load_config_file_round_trip(tmp_path):
    cfg = _config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    loaded = load_config(path)
    assert loaded.schemes == cfg.schemes
    assert loaded.snr_db == cfg.snr_db
    np.testing.assert_array_equal(loaded.topology.gamma, cfg.topology.gamma)


def test_config_defaults_when_optional_keys_absent():
    raw = config_to_dict(_config())
    del raw["window_db"], raw["workers"]
    cfg = config_from_dict(raw)
    assert cfg.window_db == (40.0, 60.0)
    assert cfg.workers == 1


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("seed"),
        lambda d: d.pop("gamma"),
        lambda d: d.__setitem__("schemes", ["apzf", "dirty_paper"]),
        lambda d: d.__setitem__("schemes", []),
        lambda d: d.__setitem__("snr_db", [50.0, 40.0]),
        lambda d: d.__setitem__("snr_db", [40.0, 40.0]),
        lambda d: d.__setitem__("snr_db", []),
        lambda d: d.__setitem__("draws", 0),
        lambda d: d.__setitem__("seed", -1),
        lambda d: d.__setitem__("window_db", [60.0, 40.0]),
        lambda d: d.__setitem__("workers", 0),
        lambda d: d.__setitem__("draws", "plenty"),
    ],
)
def test_config_rejections(mutate):
    raw = config_to_dict(_config())
    mutate(raw)
    with pytest.raises(ConfigError):
        config_from_dict(raw)


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_config_boundary_rejections(case):
    key, value = BAD_CONFIG_VALUES[case]
    raw = config_to_dict(_config())
    raw[key] = value
    with pytest.raises(ConfigError):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "window", [(40.0, 50.0, 60.0), (45.0,), 50.0, ("lo", "hi")], ids=["three", "one", "scalar", "words"]
)
def test_sweep_config_rejects_a_window_that_is_not_two_numbers(window):
    with pytest.raises(ConfigError, match="window_db must be two numbers"):
        _config(window_db=window)


def test_config_accepts_integral_floats():
    raw = config_to_dict(_config())
    raw.update(draws=20.0, seed=7.0, workers=2.0)
    cfg = config_from_dict(raw)
    assert (cfg.draws, cfg.seed, cfg.workers) == (20, 7, 2)
    assert all(type(v) is int for v in (cfg.draws, cfg.seed, cfg.workers))


def test_config_accepts_as_many_draws_as_one_index_word_holds():
    raw = config_to_dict(_config())
    raw["draws"] = 2**32
    assert config_from_dict(raw).draws == 2**32


def test_load_config_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)
    toplevel = tmp_path / "list.json"
    toplevel.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(toplevel)
