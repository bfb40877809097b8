"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and enforces its tolerance and runtime budget:

1. closed-form values on the reference configuration are exact,
2. the two independently coded GDoF paths agree bit-exactly,
3. layout rate exponents sum to the closed form within 1e-12,
4. Monte Carlo sum-rate slopes over 40-60 dB match the closed forms,
5. fitted AP-ZF coefficient power exponents match their formulas,
6. fitted received-power exponents match / respect their bounds,
7. cancellation is exact under perfect CSIT with no regularizer,
8. sweeps are byte-identical across repeat runs and worker counts.
"""

import time

import numpy as np

from apzf import (
    NORMALS_PER_DRAW,
    CsitQuality,
    SweepConfig,
    Topology,
    apzf,
    canonicalize,
    centralized_gdof,
    distributed_gdof,
    fit_exponent,
    genie_outer_bound,
    sample_channel,
    sample_csit,
    scheme_layout,
    sweep,
    write_csv,
)
import apzf.harness as harness
from conftest import dyadic_instance, reference_instance

P_GRID = np.logspace(4, 8, 5)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def test_reference_closed_forms_are_exact():
    topo, csit = reference_instance()
    got = distributed_gdof(topo, csit).value
    blind = distributed_gdof(topo, CsitQuality.uniform(0.0, 0.0)).value
    ok = got == 1.7 and blind == 1.2
    _verdict(
        "reference closed forms exact",
        ok,
        f"quality (0.5, 0): {got!r}, quality (0, 0): {blind!r}",
    )


def test_both_gdof_paths_agree_bit_exactly():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    n = 1000
    mismatches = sum(
        distributed_gdof(t, c).value != genie_outer_bound(t, c).value
        for t, c in (dyadic_instance(rng) for _ in range(n))
    )
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 1.0
    _verdict(
        "case formulas equal the best-quality reference path",
        ok,
        f"{n} instances, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_layout_rate_totals_match_closed_form():
    rng = np.random.default_rng(3033)
    t0 = time.perf_counter()
    n = 1000
    worst = 0.0
    for _ in range(n):
        topo, csit = dyadic_instance(rng)
        total = scheme_layout(canonicalize(topo, csit)).rate_total()
        worst = max(worst, abs(total - distributed_gdof(topo, csit).value))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(
        "layout rate exponents sum to the closed form",
        ok,
        f"{n} instances, max |diff| = {worst:.2e}, {elapsed:.2f}s",
    )


def test_simulated_slopes_match_closed_form_gdof():
    topo, csit = reference_instance()
    cfg = SweepConfig(
        topology=topo,
        csit=csit,
        schemes=("apzf", "centralized_zf", "naive_zf"),
        snr_db=(40.0, 45.0, 50.0, 55.0, 60.0),
        draws=2000,
        seed=23,
        window_db=(40.0, 60.0),
        workers=1,
    )
    t0 = time.perf_counter()
    curve = sweep(cfg)
    elapsed = time.perf_counter() - t0
    s = curve.slopes
    ok = (
        1.6 <= s["apzf"] <= 1.8
        and abs(s["centralized_zf"] - s["apzf"]) <= 0.1
        and 1.05 <= s["naive_zf"] <= 1.35
        and elapsed <= 300.0
    )
    _verdict(
        "sum-rate slopes match closed-form GDoF",
        ok,
        f"apzf {s['apzf']:.4f}, centralized {s['centralized_zf']:.4f}, "
        f"naive {s['naive_zf']:.4f}, {elapsed:.0f}s",
    )


def test_pair_coefficient_power_exponents():
    rng = np.random.default_rng(501)
    t0 = time.perf_counter()
    draws = 1200
    worst = 0.0
    for _ in range(10):
        gamma = 0.3 + 0.7 * rng.random((2, 2))
        topo = Topology(gamma)
        csit = CsitQuality(np.stack([gamma * rng.random((2, 2)), np.zeros((2, 2))]))
        tau = 0.5 + 0.5 * rng.random()
        acc = np.zeros((len(P_GRID), 2, 2))
        for ip, p in enumerate(P_GRID):
            z = rng.standard_normal((draws, NORMALS_PER_DRAW))
            h_hat = sample_csit(sample_channel(topo, p, z), topo, csit, p, z)
            for tgt in (0, 1):
                t = apzf(h_hat[:, 0], tgt, tau, topo, p)
                acc[ip, tgt] = np.log(np.abs(t) ** 2).mean(axis=0)
        for tgt in (0, 1):
            victim = 1 - tgt
            for k in (0, 1):
                expected = tau - max(float(gamma[victim, k] - gamma[victim, 1 - k]), 0.0)
                slope = fit_exponent(list(zip(P_GRID, np.exp(acc[:, tgt, k]))))
                worst = max(worst, abs(slope - expected))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.05 and elapsed < 30.0
    _verdict(
        "coefficient power exponents",
        ok,
        f"10 topologies, worst |fit - formula| = {worst:.4f}, {elapsed:.0f}s",
    )


def test_received_power_exponents():
    rng = np.random.default_rng(601)
    t0 = time.perf_counter()
    draws = 1500
    worst_intended = 0.0
    worst_excess = -np.inf
    for _ in range(10):
        gamma = 0.3 + 0.7 * rng.random((2, 2))
        topo = Topology(gamma)
        a1 = np.empty((2, 2))
        for row in (0, 1):
            a1[row, :] = rng.uniform(0.0, gamma[row].min())
        csit = CsitQuality(np.stack([a1, np.zeros((2, 2))]))
        tau = 0.5 + 0.5 * rng.random()
        acc_int = np.zeros((len(P_GRID), 2))
        acc_itf = np.zeros((len(P_GRID), 2))
        for ip, p in enumerate(P_GRID):
            z = rng.standard_normal((draws, NORMALS_PER_DRAW))
            h = sample_channel(topo, p, z)
            h_hat = sample_csit(h, topo, csit, p, z)
            for tgt in (0, 1):
                t = apzf(h_hat[:, 0], tgt, tau, topo, p)
                received = np.log(np.abs((h @ t[..., None])[..., 0]) ** 2).mean(axis=0)
                acc_int[ip, tgt] = received[tgt]
                acc_itf[ip, tgt] = received[1 - tgt]
        for tgt in (0, 1):
            victim = 1 - tgt
            expected = tau - 1.0 + max(
                gamma[tgt, k] - max(float(gamma[victim, k] - gamma[victim, 1 - k]), 0.0)
                for k in (0, 1)
            )
            fit_int = fit_exponent(list(zip(P_GRID, np.exp(acc_int[:, tgt]))))
            worst_intended = max(worst_intended, abs(fit_int - expected))
            bound = tau - 1.0 + gamma[victim].min() - a1[victim].min()
            fit_itf = fit_exponent(list(zip(P_GRID, np.exp(acc_itf[:, tgt]))))
            worst_excess = max(worst_excess, fit_itf - bound)
    elapsed = time.perf_counter() - t0
    ok = worst_intended < 0.1 and worst_excess < 0.1 and elapsed < 60.0
    _verdict(
        "received power exponents",
        ok,
        f"10 topologies, worst intended |fit - formula| = {worst_intended:.4f}, "
        f"worst interference fit - bound = {worst_excess:.4f}, {elapsed:.0f}s",
    )


def test_exact_cancellation_with_perfect_csit():
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    n = 1000
    p = 1e6
    worst = 0.0
    for _ in range(n):
        topo, _ = dyadic_instance(rng)
        h = sample_channel(topo, p, rng.standard_normal((1, 8)))
        for tgt in (0, 1):
            t = apzf(h, tgt, 1.0, topo, p, regularize=False)
            resid = abs((h @ t[..., None])[0, 1 - tgt, 0])
            scale = np.linalg.norm(h[0, 1 - tgt]) * np.linalg.norm(t[0]) + 1e-300
            worst = max(worst, resid / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _verdict(
        "exact cancellation with perfect knowledge",
        ok,
        f"{n} draws, worst relative residual = {worst:.2e}, {elapsed:.2f}s",
    )


def test_sweeps_are_byte_identical_across_runs_and_workers(tmp_path, monkeypatch):
    # Let a sweep this small use the pool, so both paths are compared.
    monkeypatch.setattr(harness, "_POOL_MIN_DRAWS", 1)
    topo, csit = reference_instance()

    def run(workers: int, name: str) -> bytes:
        cfg = SweepConfig(
            topology=topo,
            csit=csit,
            schemes=("apzf", "naive_zf"),
            snr_db=(40.0, 50.0, 60.0),
            draws=10,
            seed=5,
            workers=workers,
        )
        path = tmp_path / name
        write_csv(sweep(cfg), path)
        return path.read_bytes()

    first = run(1, "a.csv")
    repeat = run(1, "b.csv")
    parallel = run(2, "c.csv")
    ok = first == repeat == parallel
    _verdict(
        "sweeps byte-identical across runs and worker counts",
        ok,
        f"{len(first)} bytes, repeat match {first == repeat}, "
        f"worker match {first == parallel}",
    )
