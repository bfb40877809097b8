"""The Monte Carlo self-checks of ``apzf.checks`` fail on a faulty AP-ZF.

Each test wraps ``checks.apzf``, the precoder the checks measure, with a
small fault, and runs the check on the seed and size that ``apzf
validate`` gives it at seed 0, where the unfaulted precoder passes
(``test_cli::test_validate_all_checks_pass``).
"""

import numpy as np

import apzf.checks as checks


def _faulty_apzf(monkeypatch, fault):
    """Make ``checks.apzf`` return ``fault(t, p)`` for each vector
    ``t[c, k, d]`` (TX 0 active) that it builds at power ``p``."""
    real = checks.apzf

    def apzf(*args, **kwargs):
        return fault(real(*args, **kwargs), args[4])

    monkeypatch.setattr(checks, "apzf", apzf)


def test_power_exponents_fails_on_a_passive_coefficient_off_by_p_to_the_0_1(monkeypatch):
    def fault(t, p):
        t[:, 1] *= p**0.1
        return t

    _faulty_apzf(monkeypatch, fault)
    assert checks.power_exponents(np.random.default_rng([0, 5]), 3, 1500)[0] is False


def test_cancellation_fails_on_an_active_coefficient_off_by_one_part_in_a_million(monkeypatch):
    def fault(t, p):
        t[:, 0] *= 1.0 + 1e-6
        return t

    _faulty_apzf(monkeypatch, fault)
    assert checks.cancellation(np.random.default_rng([0, 3]), 1000)[0] is False


def test_power_exponents_fails_on_the_leakage_bound_alone(monkeypatch):
    # Scaling the active coefficient by 1 + P**-0.05 leaves a residual of
    # relative size P**-0.05 at the victim: the coefficient and intended
    # fits stay within their tolerances, and the leakage fit alone rises
    # above its bound.
    def fault(t, p):
        t[:, 0] *= 1.0 + p**-0.05
        return t

    _faulty_apzf(monkeypatch, fault)
    ok, detail = checks.power_exponents(np.random.default_rng([0, 5]), 3, 1500)
    assert ok is False
    coef, intended, excess = (float(part.rsplit("= ", 1)[1]) for part in detail.split(", ")[1:])
    assert coef < 0.05 and intended < 0.1 and excess >= 0.1
