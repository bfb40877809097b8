"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and enforces its tolerance and runtime budget:

1. closed-form values on the reference configuration are exact,
2. the two independently coded GDoF paths agree bit-exactly,
3. layout rate exponents sum to the closed form within 1e-12,
4. Monte Carlo sum-rate slopes over 40-60 and 100-120 dB match the
   closed forms,
5. fitted AP-ZF coefficient and received-power exponents match their
   formulas / respect their bounds, on two seeded streams,
6. cancellation is exact under perfect CSIT, for the sweep's
   regularized AP-ZF at P = 1e100,
7. sweeps are byte-identical across repeat runs and worker counts.
"""

import time

import numpy as np
import pytest

from apzf import (
    CsitQuality,
    SweepConfig,
    distributed_gdof,
    sweep,
    write_csv,
)
import apzf.checks as checks
import apzf.harness as harness
from conftest import reference_instance


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def _timed_verdict(name: str, budget_s: float, check, *args) -> None:
    """Run a shared self-check on ``args``; it must pass within
    ``budget_s`` seconds."""
    t0 = time.perf_counter()
    ok, detail = check(*args)
    elapsed = time.perf_counter() - t0
    assert type(ok) is bool, f"{name}: verdict is {type(ok).__name__}, not bool"
    _verdict(name, ok and elapsed < budget_s, f"{detail}, {elapsed:.2f}s")


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
    name = "case formulas equal the best-quality reference path"
    _timed_verdict(name, 1.0, checks.closed_form_identity)


def test_layout_rate_totals_match_closed_form():
    name = "layout rate exponents sum to the closed form"
    _timed_verdict(name, 1.0, checks.layout_totals)


def _slopes(lo_db: float) -> dict:
    """Slopes on the reference instance over [lo_db, lo_db + 20] dB, seed 23."""
    topo, csit = reference_instance()
    cfg = SweepConfig(
        topology=topo,
        csit=csit,
        schemes=("apzf", "centralized_zf", "naive_zf"),
        snr_db=tuple(lo_db + 5.0 * i for i in range(5)),
        draws=2000,
        seed=23,
        window_db=(lo_db, lo_db + 20.0),
        workers=1,
    )
    return sweep(cfg).slopes


def test_simulated_slopes_match_closed_form_gdof():
    # At 40-60 dB apzf's slope has not yet reached its GDoF of 1.7 (1.599 to
    # 1.610 over seeds 1-12 and 23), so [1.6, 1.8] there would rest on the
    # seed; at 100-120 dB (1.696 to 1.700) it holds at every seed surveyed
    # (CHANGES.md).
    t0 = time.perf_counter()
    low, high = _slopes(40.0), _slopes(100.0)
    elapsed = time.perf_counter() - t0
    ok = (
        1.6 <= high["apzf"] <= 1.8
        and all(
            abs(s["centralized_zf"] - s["apzf"]) <= 0.1 and 1.05 <= s["naive_zf"] <= 1.35
            for s in (low, high)
        )
        and elapsed <= 300.0
    )
    _verdict(
        "sum-rate slopes match closed-form GDoF",
        ok,
        ", ".join(
            f"{window}: apzf {s['apzf']:.4f}, centralized {s['centralized_zf']:.4f}, "
            f"naive {s['naive_zf']:.4f}"
            for window, s in (("40-60 dB", low), ("100-120 dB", high))
        )
        + f", {elapsed:.0f}s",
    )


# One check covers the coefficient and received-power exponents; it runs
# here on both streams the two families were held to before.
@pytest.mark.parametrize(
    "seed, n_topologies, draws, budget_s", [(501, 10, 1200, 30.0), (601, 10, 1500, 60.0)], ids=["seed-501", "seed-601"]
)
def test_power_exponents(seed, n_topologies, draws, budget_s):
    name = f"power exponents at seed {seed}"
    _timed_verdict(name, budget_s, checks.power_exponents, np.random.default_rng(seed), n_topologies, draws)


def test_exact_cancellation_with_perfect_csit():
    name = "exact cancellation with perfect knowledge at P = 1e100"
    _timed_verdict(name, 1.0, checks.cancellation, np.random.default_rng(707), 1000)


def test_sweeps_are_byte_identical_across_runs_and_workers(tmp_path, small_pool):
    # 3,100 draws are four chunks, so two and three workers each get some.
    topo, csit = reference_instance()

    def run(workers: int, name: str) -> bytes:
        cfg = SweepConfig(
            topology=topo,
            csit=csit,
            schemes=("apzf", "naive_zf"),
            snr_db=(40.0, 50.0, 60.0),
            draws=3100,
            seed=5,
            workers=workers,
        )
        assert harness._pool_size(cfg) == workers
        path = tmp_path / name
        write_csv(sweep(cfg), path)
        return path.read_bytes()

    first = run(1, "a.csv")
    repeat = run(1, "b.csv")
    parallel = [run(w, f"{w}.csv") for w in (2, 3)]
    ok = first == repeat == parallel[0] == parallel[1]
    _verdict(
        "sweeps byte-identical across runs and worker counts",
        ok,
        f"{len(first)} bytes, repeat match {first == repeat}, "
        f"worker match {[first == p for p in parallel]}",
    )
