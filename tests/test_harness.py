import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from apzf import (
    NORMALS_PER_DRAW,
    ConfigError,
    CsitQuality,
    GdofValue,
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
import apzf.scheme as scheme
from apzf import checks
from apzf.harness import _CHUNK_DRAWS, _block_normals, _substream, config_from_dict, config_to_dict
from apzf.precoders import _zf_direction
from apzf.scheme import _build_pass
from conftest import BAD_CONFIG_VALUES, reference_instance

_PARALLEL_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "parallel.json"


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


def _chunk_row(seed, d):
    """Draw d's normals: row d % _CHUNK_DRAWS of its chunk's substream."""
    chunk, row = divmod(d, _CHUNK_DRAWS)
    return _substream(seed, chunk).standard_normal((row + 1, NORMALS_PER_DRAW))[row]


def _draw_sum(cfg, canon, p, d):
    """Sum rate of apzf on draw d at power p, from its chunk's substream alone."""
    z = _chunk_row(cfg.seed, d)[None, :]
    h = sample_channel(canon.topology, p, z)
    h_hat = sample_csit(h, canon.topology, canon.csit, p, z)
    layers, _ = build_layers(canon, h_hat, "apzf", p)
    return float(sum(achievable_rates(h, layers).values())[0])


# ---------------------------------------------------------------- points


def test_substream_key_is_seed_chunk():
    a = _substream(7, 3).random(4)
    b = np.random.default_rng([7, 3]).random(4)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 23, 2**32, 2**64 + 3, 2**96 + 3])
@pytest.mark.parametrize("snr_db", [0.0, -0.001])
def test_block_normals_match_substreams(seed, snr_db, monkeypatch):
    # The kernel's blocks for 4098 draws; rows at chunk and block edges
    # must be their chunks' rows bit for bit.  2**64 + 3 is three entropy
    # words, so with the chunk index it fills the 4-word pool; 2**96 + 3
    # is four, so it overflows it.
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        first = _block_normals(seed, range(0, harness._BLOCK_DRAWS))
        second = _block_normals(seed, range(harness._BLOCK_DRAWS, harness._BLOCK_DRAWS + 2))
    assert first.shape == (4096, NORMALS_PER_DRAW) and second.shape == (2, NORMALS_PER_DRAW)
    z = np.concatenate([first, second])
    for d in (0, 1023, 1024, 4095, 4096, 4097):
        np.testing.assert_array_equal(z[d], _chunk_row(seed, d))
    # The SNR is not in the key: a point at 0 dB and one at -0.001 dB (once
    # the keys 0 and 2**31 - 1) are both simulated on exactly these rows.
    seen = []

    def recorded(topology, p, normals):
        seen.append(normals)
        return sample_channel(topology, p, normals)

    monkeypatch.setattr(harness, "sample_channel", recorded)
    simulate_snr(_config(schemes=("apzf",), snr_db=(snr_db,), seed=seed, draws=4098), snr_db)
    np.testing.assert_array_equal(np.concatenate(seen), z)


def test_block_normals_cover_the_largest_draw_index():
    # The last chunk of the largest allowed draw count; its last two rows.
    z = _block_normals(5, range(2**32 - _CHUNK_DRAWS, 2**32))
    for d in (2**32 - 2, 2**32 - 1):
        np.testing.assert_array_equal(z[d - (2**32 - _CHUNK_DRAWS)], _chunk_row(5, d))


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
    p = 10.0 ** (50.0 / 10.0)
    manual = _draw_sum(cfg, canon, p, 0)
    assert pt.mean == pytest.approx(manual, rel=1e-15)


def test_simulate_snr_mean_prefix_consistent():
    # A chunk's first rows do not depend on how many are drawn, so a
    # longer run reuses the shorter run's draws exactly.
    m5 = _apzf_point(_config(draws=5), 40.0).mean
    cfg10 = _config(draws=10)
    m10 = _apzf_point(cfg10, 40.0).mean
    # reconstruct the 10-draw mean from two disjoint halves
    canon = canonicalize(cfg10.topology, cfg10.csit)
    p = 10.0 ** (40.0 / 10.0)
    tail = [_draw_sum(cfg10, canon, p, d) for d in range(5, 10)]
    assert m10 == pytest.approx((5 * m5 + sum(tail)) / 10.0, rel=1e-12)


def _point_with_draw_sums(monkeypatch, cfg, snr_db):
    """``simulate_snr``'s result and, per scheme, the sum rate of every draw."""
    sums = []

    def recording(h, layers):
        rates = achievable_rates(h, layers)
        sums.append(sum(rates.values()))
        return rates

    monkeypatch.setattr(harness, "achievable_rates", recording)
    out = harness.simulate_snr(cfg, snr_db)
    n = len(cfg.schemes)  # calls run block by block, scheme by scheme
    return out, [np.concatenate(sums[i::n], axis=-1) for i in range(n)]


@pytest.mark.parametrize("draws, block", [(8203, 1024), (8203, 2048), (8203, 8192)])
def test_block_size_does_not_change_results(monkeypatch, draws, block):
    # A point's draws are evaluated in blocks of whole chunks; a draw's sum
    # rate, and so every statistic of the point, must not depend on the
    # block it is in.  8,203 draws end in a partial chunk, so the last
    # block is short.
    cfg = _config(schemes=("apzf", "centralized_zf", "naive_zf", "no_csit"), draws=draws)
    whole, whole_sums = _point_with_draw_sums(monkeypatch, cfg, 40.0)
    monkeypatch.setattr(harness, "_BLOCK_DRAWS", block)
    out, sums = _point_with_draw_sums(monkeypatch, cfg, 40.0)
    assert out == whole
    for a, b in zip(sums, whole_sums):
        np.testing.assert_array_equal(a, b)


def test_point_stats_are_each_schemes_own_reductions(monkeypatch):
    # The per-draw sums of all schemes are reduced together along the
    # draw axis; each scheme's row must reduce as it would on its own.
    cfg = _config(schemes=("apzf", "centralized_zf", "naive_zf", "no_csit"), draws=8203)
    out, sums = _point_with_draw_sums(monkeypatch, cfg, 40.0)
    for s, row in zip(cfg.schemes, sums):
        np.testing.assert_array_equal(
            [out[s].mean, out[s].stderr], [row.mean(), row.std(ddof=1) / math.sqrt(cfg.draws)]
        )


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
        z = _block_normals(cfg.seed, range(cfg.draws))
        h_hat = sample_csit(sample_channel(canon.topology, p, z), canon.topology, canon.csit, p, z)
        naive, _ = build_layers(canon, h_hat, "naive_zf", p)
        blind, _ = build_layers(canon, h_hat, "no_csit", p)
        assert list(naive) == list(blind) == ["s0"]
        np.testing.assert_array_equal(naive["s0"], blind["s0"])


@pytest.mark.parametrize("batch", [1, 5, 7])
def test_a_draw_does_not_depend_on_its_batch(batch):
    # The kernel works on a batch of draws as array operations; each draw's
    # sum rate and back-off must be what it is in any other batch.  At
    # 20 dB apzf backs off on every draw, centralized_zf on some of them.
    cfg = _z1_case2_config()
    canon = canonicalize(cfg.topology, cfg.csit)
    p = 10.0 ** (20.0 / 10.0)
    z = _block_normals(cfg.seed, range(23))

    def kernel(normals):
        h = sample_channel(canon.topology, p, normals)
        h_hat = sample_csit(h, canon.topology, canon.csit, p, normals)
        out = {}
        for s in cfg.schemes:
            layers, mask = build_layers(canon, h_hat, s, p)
            out[s] = (sum(achievable_rates(h, layers).values()), mask)
        return out

    whole = kernel(z)
    parts = [kernel(z[i : i + batch]) for i in range(0, len(z), batch)]
    assert whole["apzf"][1].all()
    assert whole["centralized_zf"][1].any() and not whole["centralized_zf"][1].all()
    for s in cfg.schemes:
        for k in range(2):
            np.testing.assert_array_equal(np.concatenate([part[s][k] for part in parts]), whole[s][k])


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


def test_sweep_worker_count_does_not_change_results(tmp_path, small_pool):
    # 3,100 draws are four chunks, the last of 28 draws: two workers take
    # 2 + 2 chunks and three 1 + 1 + 2, so ranges start off a 4,096-draw
    # block boundary and end short of a chunk.
    grid = (40.0, 45.0, 50.0, 55.0, 60.0)
    configs = {w: _config(snr_db=grid, draws=3100, seed=11, workers=w) for w in (1, 2, 3)}
    curves = {}
    for w, cfg in configs.items():
        assert harness._pool_size(cfg) == w
        curves[w] = sweep(cfg)
        assert curves[w].points == curves[1].points
        write_csv(curves[w], tmp_path / f"{w}.csv")
    assert (tmp_path / "2.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
    assert (tmp_path / "3.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
    # simulate_snr uses the pool too, and on one point it still cuts the draws.
    one_point = dataclasses.replace(configs[3], snr_db=(grid[3],))
    assert harness._pool_size(one_point) == 3
    assert simulate_snr(configs[3], grid[3]) == {s: pts[3] for s, pts in curves[1].points.items()}


def test_a_point_does_not_depend_on_its_grid():
    # Draws are keyed by chunk alone, so a point's stats are the same
    # simulated on its own, in the full grid, or in a sub-grid.
    cfg = load_config(_PARALLEL_CONFIG)
    cfg = dataclasses.replace(cfg, draws=5000)
    full = sweep(cfg)
    for i, snr in enumerate(cfg.snr_db):
        alone = simulate_snr(cfg, snr)
        assert {s: full.points[s][i] for s in cfg.schemes} == alone
    odd = sweep(dataclasses.replace(cfg, snr_db=cfg.snr_db[1::2]))
    for s in cfg.schemes:
        assert odd.points[s] == full.points[s][1::2]


def test_a_sweep_draws_each_block_once(monkeypatch):
    # Blocks run first, SNR points second: 2 full blocks and a 3-draw
    # block give 3 calls for the whole 5-point grid, not 3 per point.
    calls = []

    def counted(seed, block):
        calls.append(block)
        return _block_normals(seed, block)

    monkeypatch.setattr(harness, "_block_normals", counted)
    b = harness._BLOCK_DRAWS
    sweep(_config(snr_db=(40.0, 45.0, 50.0, 55.0, 60.0), draws=2 * b + 3))
    assert calls == [range(0, b), range(b, 2 * b), range(2 * b, 2 * b + 3)]


def _counted_passes(monkeypatch):
    """Patch the per-pass layer builder to log, per pass, the shape of
    its powers and each scheme's layers as they are built."""
    passes = []

    def counted(canonical, estimate, layouts, p, *args):
        built = []
        passes.append((np.shape(p), built))
        for s, item in zip(layouts, _build_pass(canonical, estimate, layouts, p, *args)):
            built.append(s)
            yield item

    monkeypatch.setattr(harness, "_build_pass", counted)
    return passes


def test_a_pass_covers_a_group_of_points(monkeypatch):
    # A pass holds at most _PASS_DRAWS point-draws: 10 points of a
    # 1,000-draw block, so 9 points run in 1 pass, which builds every
    # scheme's layers once on a (9, 1) column of powers: 1 x 4 builds,
    # not 9 x 4.
    passes = _counted_passes(monkeypatch)
    schemes = ("apzf", "centralized_zf", "naive_zf", "no_csit")
    grid = tuple(np.arange(20.0, 61.0, 5.0))
    sweep(_config(schemes=schemes, snr_db=grid, draws=1000))
    assert passes == [((9, 1), list(schemes))]


def test_a_pass_computes_each_zf_direction_once(monkeypatch):
    # configs/parallel.json runs centralized_zf and naive_zf, which need
    # the ZF directions of both TX estimates for both receivers: 4 per
    # pass, the active TX's two shared between the schemes, not 2 + 4.
    directions = []

    def counted(estimate, target_rx, scales):
        directions.append(target_rx)
        return _zf_direction(estimate, target_rx, scales)

    monkeypatch.setattr(scheme, "_zf_direction", counted)
    passes = _counted_passes(monkeypatch)
    sweep(load_config(_PARALLEL_CONFIG))
    assert len(passes) == 1  # 5 points of a 2,000-draw block, 5 per pass
    assert sorted(directions) == [0] * 2 + [1] * 2  # 4 per pass, 2 per receiver


def test_a_pass_makes_each_tx_estimate_once(monkeypatch):
    # Every scheme of a pass runs on its draws, so TX j's estimate is one
    # quantity of the pass: apzf and centralized_zf share the active TX's,
    # and naive_zf adds only the passive TX's, so 2 per pass, not 3.
    calls = []

    def counted(h, topology, csit, p, z, tx=None):
        calls.append(tx)
        return sample_csit(h, topology, csit, p, z, tx=tx)

    monkeypatch.setattr(harness, "sample_csit", counted)
    passes = _counted_passes(monkeypatch)
    sweep(load_config(_PARALLEL_CONFIG))
    assert len(passes) == 1
    assert sorted(calls) == [0, 1]


def test_a_pass_makes_no_estimate_for_schemes_that_use_none(monkeypatch):
    # no_csit sends s0 alone, so a sweep of it makes no estimate: the
    # back-off mask takes its shape from the pass's channels.  3 points
    # of two 4,096-draw blocks run in 4 passes.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sample_csit(*args, **kwargs)

    monkeypatch.setattr(harness, "sample_csit", counted)
    passes = _counted_passes(monkeypatch)
    curve = sweep(_config(schemes=("no_csit",), snr_db=(40.0, 50.0, 60.0), draws=8192))
    assert len(passes) == 4
    assert calls == []
    assert [pt.backoff_frac for pt in curve.points["no_csit"]] == [0.0] * 3


@pytest.mark.parametrize("draws, points", [(1000, 9), (2000, 5), (300, 40), (4099, 3), (9000, 2)])
def test_no_pass_exceeds_the_pass_budget(monkeypatch, draws, points):
    # Each block's points are cut into the fewest passes of at most
    # _PASS_DRAWS // len(block) points (at least one), so a pass never
    # holds more than _PASS_DRAWS point-draws, since a block holds no
    # more than _BLOCK_DRAWS draws.  Every pass, a lone point's too, runs
    # on a (points, 1) column, so its channels have a points axis.
    assert harness._BLOCK_DRAWS <= harness._PASS_DRAWS
    passes = []  # (points, draws) of each pass, from its channels

    def recorded(topology, p, z):
        h = sample_channel(topology, p, z)
        passes.append(h.shape[3:])
        return h

    monkeypatch.setattr(harness, "sample_channel", recorded)
    sweep(_config(snr_db=tuple(20.0 + 2.5 * k for k in range(points)), draws=draws))
    assert all(len(shape) == 2 for shape in passes)
    assert all(math.prod(shape) <= harness._PASS_DRAWS for shape in passes)
    blocks = [min(harness._BLOCK_DRAWS, draws - s) for s in range(0, draws, harness._BLOCK_DRAWS)]
    per_block = []
    for block in blocks:
        covered = 0
        per_block.append(0)
        while covered < points:
            group, n = passes.pop(0)
            assert n == block
            covered += group
            per_block[-1] += 1
        assert covered == points
    assert passes == []
    assert per_block == [-(-points // max(1, harness._PASS_DRAWS // b)) for b in blocks]


@pytest.mark.parametrize("instance", ["reference", "z1_case2"])
def test_a_pass_frees_each_schemes_layers_before_building_the_next(monkeypatch, instance):
    # Only one scheme's layers need be alive at a time: when a scheme's
    # private pair is built, no layer array yielded for an earlier scheme
    # (of this pass or of an earlier one) may still be referenced.
    yielded = []  # weakrefs to every layer array yielded so far
    checked = []
    real_pair = scheme._private_pair

    def recording(*args):
        for layers, mask in _build_pass(*args):
            yielded.extend(weakref.ref(t) for t in layers.values())
            yield layers, mask
            del layers, mask  # this wrapper keeps none of them either

    def private_pair(*args):
        checked.append(len(yielded))
        assert [ref for ref in yielded if ref() is not None] == []
        return real_pair(*args)

    monkeypatch.setattr(harness, "_build_pass", recording)
    monkeypatch.setattr(scheme, "_private_pair", private_pair)
    schemes = ("apzf", "centralized_zf", "naive_zf", "no_csit")
    grid = (20.0, 30.0, 40.0, 50.0)
    if instance == "reference":
        cfg = _config(schemes=schemes, snr_db=grid, draws=3000)
    else:
        cfg = dataclasses.replace(_z1_case2_config(), snr_db=grid, draws=3000)
    sweep(cfg)
    assert len(checked) > 2 and checked[1] > 0


@pytest.mark.parametrize("draws", [1, 1000, 4097])
@pytest.mark.parametrize("instance", ["reference", "z1_case2"])
def test_grouped_points_equal_points_run_alone(instance, draws):
    # A sweep runs several points per pass on a (points, 1) column of
    # powers; simulate_snr runs its one point on a column of one.  Their
    # PointStats, back-off fractions included, must be equal bit for bit
    # (test_scheme holds each slice of a column to its point's float P).
    # The grid crosses 0 dB, so at some passes s0 has power left at some
    # points and none at others.
    grid = (-20.0, -3.0, 0.0, 0.5, 10.0, 30.0)
    schemes = ("apzf", "centralized_zf", "naive_zf", "no_csit")
    if instance == "reference":
        cfg = _config(schemes=schemes, snr_db=grid, draws=draws)
    else:
        cfg = dataclasses.replace(_z1_case2_config(), snr_db=grid, draws=draws)
    curve = sweep(cfg)
    for i, snr in enumerate(grid):
        assert {s: curve.points[s][i] for s in schemes} == simulate_snr(cfg, snr)


@pytest.mark.parametrize("instance", ["reference", "z1_case2"])
@pytest.mark.parametrize("snr", [-3000.0, 1541.0])
def test_rates_are_finite_at_extreme_snr(instance, snr):
    # At P = 1e-300 the ZF rows are large and 1/P is 1e300; their product
    # overflowed, and centralized_zf and naive_zf came out nan.  1541 dB is
    # just below the top of the accepted range, where P*P would overflow.
    base = load_config(_PARALLEL_CONFIG) if instance == "reference" else _z1_case2_config()
    cfg = dataclasses.replace(base, snr_db=(snr,), draws=300)
    out = simulate_snr(cfg, snr)
    for s, pt in out.items():
        assert math.isfinite(pt.mean) and math.isfinite(pt.stderr), s
    ok, detail = checks.determinism(cfg)
    assert ok, detail


def test_sweep_plans_once(monkeypatch):
    # The canonical form and the layouts do not depend on the SNR point,
    # and a serial sweep is one task, which plans once for its whole grid.
    calls = {"canonicalize": 0, "plan_layout": 0}

    def counted(name):
        real = getattr(harness, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name))
    schemes = ("apzf", "centralized_zf", "naive_zf", "no_csit")
    sweep(_config(schemes=schemes, snr_db=(40.0, 45.0, 50.0, 55.0, 60.0), draws=5))
    assert calls == {"canonicalize": 1, "plan_layout": len(schemes)}


def test_pool_size_needs_enough_draws_per_worker(small_pool, monkeypatch):
    monkeypatch.setattr(harness, "_POOL_MIN_EVALS", 6000)
    # 3 points x 2 schemes x 1,000 draws: too few evals for a second worker.
    assert harness._pool_size(_config(draws=1000, workers=2)) == 1
    # 3 x 2 x 2,100 = 12,600 evals in three chunks: two workers get
    # 6,000 each, a third would not.
    assert harness._pool_size(_config(draws=2100, workers=4)) == 2
    # Never more workers than chunks (each takes whole chunks), whatever
    # the grid; nor than configured.
    monkeypatch.setattr(harness, "_POOL_MIN_EVALS", 1)
    assert harness._pool_size(_config(draws=2049, workers=8)) == 3
    many = tuple(float(s) for s in range(0, 100, 2))
    assert harness._pool_size(_config(snr_db=many, draws=_CHUNK_DRAWS, workers=8)) == 1
    assert harness._pool_size(_config(draws=10**5, workers=1)) == 1


def test_pool_size_counts_evals_not_point_draws(monkeypatch):
    # A draw of four schemes costs about four of one, so the threshold
    # counts evals: configs/parallel.json's five points fork from 120,000
    # point-draws with four schemes, and from 480,000 with apzf alone,
    # where 204,800 would lose time.  Only _pool_size runs here.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    base = load_config(_PARALLEL_CONFIG)
    assert len(base.schemes) == 4 and len(base.snr_db) == 5
    for draws, workers in [(20_480, 1), (24_576, 2), (40_960, 2)]:
        assert harness._pool_size(dataclasses.replace(base, draws=draws, workers=2)) == workers
    for draws, workers in [(40_960, 1), (90_112, 1), (98_304, 2)]:
        apzf_alone = dataclasses.replace(base, schemes=("apzf",), draws=draws, workers=2)
        assert harness._pool_size(apzf_alone) == workers


def test_pool_size_is_capped_at_the_usable_cpus(monkeypatch):
    # Only _pool_size runs here: nothing forks.
    cfg = _config(draws=10**6, workers=500)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert harness._pool_size(cfg) == 2
    # Where the platform has no affinity mask, the CPU count caps it.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert harness._pool_size(cfg) == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._pool_size(cfg) == 1


def test_small_sweep_forks_no_workers(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a small sweep started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    curve = sweep(_config(draws=5, workers=2))
    assert len(curve.points["apzf"]) == 3


def test_importing_apzf_loads_no_process_pool():
    # The pool's module is imported only by a sweep that forks workers.
    code = "import sys, apzf; print('concurrent.futures.process' in sys.modules)"
    src = str(Path(harness.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_sweep_repeat_is_byte_identical(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(sweep(_config(draws=10)), f1)
    write_csv(sweep(_config(draws=10)), f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_closed_forms_reference_values():
    forms = closed_forms(_config())
    assert forms == {
        "distributed": GdofValue(1.7, "d1", 1.7, 1.7),
        "centralized": GdofValue(1.7, "d1", 1.7, 1.7),
        "no_csit": GdofValue(1.2, "d1", 1.2, 1.2),
    }


# ---------------------------------------------------------------- fitting


def test_estimate_slope_recovers_exact_line():
    snrs = [40.0, 45.0, 50.0, 55.0, 60.0]
    pts = [(s, 1.7 * (s * math.log2(10.0) / 10.0) + 3.0) for s in snrs]
    assert estimate_slope(pts, (40.0, 60.0)) == pytest.approx(1.7, abs=1e-9)
    # A mean log2 power: a power law's exponent, and 0 for a constant.
    powers = [(40.0, 1e4), (60.0, 1e6), (80.0, 1e8)]
    law = [(s, math.log2(p**0.4)) for s, p in powers]
    assert estimate_slope(law, (40.0, 80.0)) == pytest.approx(0.4, abs=1e-12)
    constant = [(s, math.log2(2.5)) for s, _ in powers]
    assert estimate_slope(constant, (40.0, 80.0)) == pytest.approx(0.0, abs=1e-12)


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


@pytest.mark.parametrize(
    "snrs", [(40.0, math.nextafter(40.0, 41.0)), (0.0, 1e-200)], ids=["one-ulp-apart", "squares-underflow"]
)
def test_estimate_slope_rejects_points_too_close_to_fit(snrs):
    # Grid points need only be distinct; a line through two that are this
    # close is poorly conditioned, or divides by a squared x that underflowed.
    with pytest.raises(InsufficientPoints, match="too close together"):
        estimate_slope([(snrs[0], 1.0), (snrs[1], 2.0)], (-1.0, 100.0))


def _well_spread_grid(rng):
    """2-9 SNRs spread over a 10-60 dB window that starts between -30 and
    100 dB, and their sum rates on a line of slope 0.5-3 plus noise."""
    n = int(rng.integers(2, 10))
    start, width = rng.uniform(-30.0, 100.0), rng.uniform(10.0, 60.0)
    snrs = start + width * (np.arange(n) + rng.uniform(-0.2, 0.2, n)) / (n - 1)
    rates = rng.uniform(0.5, 3.0) * snrs * harness._LOG2P_PER_DB + rng.uniform(-5.0, 5.0)
    return snrs.tolist(), (rates + rng.normal(0.0, 0.05, n)).tolist()


def test_estimate_slope_matches_polyfit_on_well_spread_grids():
    # np.polyfit, which the fit once called, is the reference.  The closed
    # form's rounding error grows like n * eps * mean(x)**2 / fsum(d*d); on
    # these grids it stays well below the tolerance.
    rng = np.random.default_rng(41)
    for _ in range(500):
        snrs, rates = _well_spread_grid(rng)
        reference = np.polyfit(np.array(snrs) * harness._LOG2P_PER_DB, rates, 1)[0]
        assert estimate_slope(zip(snrs, rates), (-math.inf, math.inf)) == pytest.approx(reference, rel=1e-12)


def test_estimate_slope_is_linear_in_the_values():
    rng = np.random.default_rng(43)
    for _ in range(200):
        snrs, u = _well_spread_grid(rng)
        v = rng.normal(0.0, 10.0, len(snrs)).tolist()
        a, b = rng.normal(0.0, 3.0, 2)
        slope = [estimate_slope(zip(snrs, y), (-math.inf, math.inf)) for y in (u, v)]
        mixed = estimate_slope(zip(snrs, [a * ui + b * vi for ui, vi in zip(u, v)]), (-math.inf, math.inf))
        scale = abs(a * slope[0]) + abs(b * slope[1])
        assert mixed == pytest.approx(a * slope[0] + b * slope[1], abs=1e-13 * scale)


def _rule_rejects(snrs) -> bool:
    """The rule the docstring of ``estimate_slope`` states for points too
    close together to fit."""
    x = [s * harness._LOG2P_PER_DB for s in snrs]
    mean = math.fsum(x) / len(x)
    d = [xi - mean for xi in x]
    return (max(x) - min(x) <= len(x) * sys.float_info.epsilon * max(map(abs, x))
            or math.fsum(di * di for di in d) < sys.float_info.min)


@pytest.mark.parametrize(
    "fixed, start",
    [
        ((40.0,), 40.0),
        ((-1500.0, -1500.0), -1500.0),
        ((0.0,), (1.0 - 1e-13) * math.sqrt(2.0 * sys.float_info.min) / harness._LOG2P_PER_DB),
    ],
    ids=["spread-2-points", "spread-3-points", "squares-below-normal"],
)
def test_estimate_slope_boundary_is_the_stated_rule(fixed, start):
    # The last SNR walks up one float at a time from ``start`` until the
    # rule stops rejecting: the grid before is rejected, the grid at it fits.
    last = [start]
    while _rule_rejects((*fixed, last[-1])):
        assert len(last) < 10_000
        last.append(math.nextafter(last[-1], math.inf))
    assert len(last) > 1
    with pytest.raises(InsufficientPoints, match="too close together"):
        estimate_slope([(s, 1.0) for s in fixed] + [(last[-2], 2.0)], (-math.inf, math.inf))
    assert math.isfinite(estimate_slope([(s, 1.0) for s in fixed] + [(last[-1], 2.0)], (-math.inf, math.inf)))


def test_sweep_with_points_too_close_to_fit_gives_none_slope():
    cfg = _config(schemes=("apzf",), snr_db=(0.0, 1.2673671092276572e-278), draws=1, window_db=(0.0, 1.0))
    assert sweep(cfg).slopes == {"apzf": None}


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
    "window",
    [(40.0, 50.0, 60.0), (45.0,), 50.0, ("lo", "hi"), b"46"],
    ids=["three", "one", "scalar", "words", "bytes"],
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


def test_config_accepts_draws_up_to_the_sums_budget():
    # 8 bytes of per-draw sums per draw, scheme and SNR point, within
    # _SUMS_BYTES; checked on the config alone, before anything is made.
    budget = harness._SUMS_BYTES // 8
    raw = config_to_dict(_config(schemes=("apzf",), snr_db=(40.0,)))
    raw["draws"] = budget
    assert config_from_dict(raw).draws == budget
    raw["draws"] = budget + 1
    with pytest.raises(ConfigError, match="per-draw sums"):
        config_from_dict(raw)
    raw.update(draws=budget // 4, schemes=["apzf", "naive_zf"], snr_db=[40.0, 50.0])
    assert config_from_dict(raw).draws == budget // 4
    raw["draws"] += 1
    with pytest.raises(ConfigError, match="per-draw sums"):
        config_from_dict(raw)


def test_load_config_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)
    toplevel = tmp_path / "list.json"
    toplevel.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(toplevel)
