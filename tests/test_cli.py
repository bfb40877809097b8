import contextlib
import io
import argparse
import json
import tempfile
from pathlib import Path

import pytest
from conftest import BAD_CONFIG_VALUES
from hypothesis import given, settings
from hypothesis import strategies as st

import apzf.checks as checks
import apzf.harness as harness
from apzf.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    _apply_overrides,
    main,
)
from apzf.scheme import PowerInfeasible


@pytest.fixture
def config_path(tmp_path):
    raw = {
        "gamma": [[1.0, 0.8], [0.8, 1.0]],
        "alpha": [[[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]],
        "schemes": ["apzf", "naive_zf"],
        "snr_db": [40.0, 50.0, 60.0],
        "draws": 5,
        "seed": 7,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def test_gdof_prints_closed_forms_and_layout(config_path, capsys):
    assert main(["gdof", "--config", config_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "distributed GDoF : 1.7" in out
    assert "centralized GDoF : 1.7" in out
    assert "no-CSIT GDoF     : 1.2" in out
    assert "(parallel)" in out and "rho = 0.7" in out
    for row in ("s0", "s1", "s2"):
        assert f"\n  {row} " in out
    assert "z1" not in out


def test_simulate_prints_each_scheme(config_path, capsys):
    assert main([
        "simulate", "--config", config_path, "--snr-db", "50",
    ]) == EXIT_OK
    out = capsys.readouterr().out
    assert "snr_db = 50, draws = 5, seed = 7" in out
    lines = [l for l in out.splitlines() if "+/-" in l]
    assert [l.split()[0] for l in lines] == ["apzf", "naive_zf"]

    # repeat run produces identical text
    main(["simulate", "--config", config_path, "--snr-db", "50"])
    assert capsys.readouterr().out == out


def test_simulate_scheme_and_seed_overrides(config_path, capsys):
    assert main([
        "simulate", "--config", config_path, "--snr-db", "50", "--scheme", "apzf",
    ]) == EXIT_OK
    base = capsys.readouterr().out
    assert "naive_zf" not in base

    assert main([
        "simulate", "--config", config_path, "--snr-db", "50",
        "--scheme", "apzf", "--seed", "8",
    ]) == EXIT_OK
    reseeded = capsys.readouterr().out
    assert "seed = 8" in reseeded
    assert reseeded != base


def test_sweep_writes_deterministic_csv_and_summary(config_path, tmp_path, capsys):
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert main(["sweep", "--config", config_path, "--out", str(out1)]) == EXIT_OK
    assert main([
        "sweep", "--config", config_path, "--out", str(out2), "--workers", "2",
    ]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert f"wrote {out1}" in stdout

    assert out1.read_bytes() == out2.read_bytes()
    s1 = json.loads(out1.with_suffix(".json").read_text(encoding="utf-8"))
    s2 = json.loads(out2.with_suffix(".json").read_text(encoding="utf-8"))
    assert s1["slopes"] == s2["slopes"]
    assert s1["config"]["workers"] == 1 and s2["config"]["workers"] == 2

    header, *rows = out1.read_text(encoding="utf-8").strip().split("\n")
    assert header == "snr_db,scheme,sum_rate_mean,sum_rate_stderr"
    assert len(rows) == 6  # 2 schemes x 3 SNR points
    assert s1["gdof_closed_form"] == {
        "distributed": 1.7,
        "centralized": 1.7,
        "no_csit": 1.2,
    }


def test_sweep_window_and_scheme_overrides(config_path, tmp_path, capsys):
    out = tmp_path / "windowed.csv"
    assert main([
        "sweep", "--config", config_path, "--out", str(out),
        "--window", "45:60", "--scheme", "apzf",
    ]) == EXIT_OK
    summary = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    assert summary["config"]["window_db"] == [45.0, 60.0]
    assert summary["config"]["schemes"] == ["apzf"]
    assert list(summary["slopes"]) == ["apzf"]
    capsys.readouterr()


@pytest.mark.parametrize("window", ["45-60", "40:50:60"])
def test_sweep_rejects_malformed_window(config_path, tmp_path, window, capsys):
    code = main([
        "sweep", "--config", config_path, "--out", str(tmp_path / "x.csv"),
        "--window", window,
    ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


# x.json: the summary would overwrite the CSV; config.csv: the summary
# would overwrite the config; config.json: the CSV would.
@pytest.mark.parametrize("out", ["x.json", "config.csv", "config.json"])
def test_sweep_out_that_overwrites_an_input_or_itself_is_config_error(config_path, tmp_path, out, capsys):
    before = Path(config_path).read_bytes()
    assert main(["sweep", "--config", config_path, "--out", str(tmp_path / out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    assert Path(config_path).read_bytes() == before


def test_overrides_return_a_new_config_and_leave_the_loaded_one_unchanged(config_path):
    config = harness.load_config(config_path)
    before = harness.config_to_dict(config)
    args = argparse.Namespace(seed=8, scheme="apzf", window="45:60", workers=2)
    changed = harness.config_to_dict(_apply_overrides(config, args))
    assert harness.config_to_dict(config) == before
    assert changed == dict(before, seed=8, schemes=["apzf"], window_db=[45.0, 60.0], workers=2)


@pytest.mark.parametrize("schemes", ["dirty_paper", "apzf,apzf"])
def test_unknown_scheme_override_is_config_error(config_path, schemes, capsys):
    code = main([
        "simulate", "--config", config_path, "--snr-db", "50",
        "--scheme", schemes,
    ])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_scheme_override_outside_config_is_config_error(config_path, tmp_path, capsys):
    # no_csit is a known scheme, but the config does not list it.
    for argv in (
        ["simulate", "--config", config_path, "--snr-db", "50", "--scheme", "apzf,no_csit"],
        ["sweep", "--config", config_path, "--out", str(tmp_path / "x.csv"), "--scheme", "no_csit"],
    ):
        assert main(argv) == EXIT_CONFIG
        assert "not among the config's schemes" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_bad_config_value_exits_with_config_error(config_path, tmp_path, case, capsys):
    key, value = BAD_CONFIG_VALUES[case]
    raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
    raw[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def _nested(depth):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("value", [_nested(900), "7" * 100_000], ids=["nested-900", "long-string"])
@pytest.mark.parametrize("key", ["schemes", "draws", "seed", "workers", "window_db"])
def test_config_error_echoes_a_bounded_value(config_path, tmp_path, key, value, capsys):
    raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
    raw[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["gdof", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("snr", ["nan", "inf", "4000"])
def test_simulate_bad_snr_exits_with_config_error(config_path, snr, capsys):
    assert main(["simulate", "--config", config_path, "--snr-db", snr]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "content",
    [b"{oops", b'\xff\xfe{"gamma": 1}', b"[" * 100_000 + b"]" * 100_000, b"1" * 5000],
    ids=["malformed", "not-utf8", "deeply-nested", "integer-past-digit-limit"],
)
def test_malformed_json_is_config_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["gdof", "--config", str(bad)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_out_of_range_gamma_is_domain_error(tmp_path, capsys):
    raw = {
        "gamma": [[1.5, 0.8], [0.8, 1.0]],
        "alpha": [[[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]],
        "schemes": ["apzf"],
        "snr_db": [40.0, 60.0],
        "draws": 2,
        "seed": 0,
    }
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["gdof", "--config", str(path)]) == EXIT_DOMAIN
    assert "unsupported configuration" in capsys.readouterr().err


def test_power_infeasible_is_domain_error(config_path, tmp_path, monkeypatch, capsys):
    def infeasible(*args, **kwargs):
        raise PowerInfeasible("per-TX power exceeds budget P = 1e4")

    monkeypatch.setattr(harness, "build_layers", infeasible)
    code = main(["sweep", "--config", config_path, "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err == "unsupported configuration: per-TX power exceeds budget P = 1e4\n"
    assert not (tmp_path / "x.csv").exists()


def test_unwritable_output_is_io_error(config_path, tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = main(["sweep", "--config", config_path, "--out", str(missing_dir)])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_missing_required_argument_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gdof"])
    assert exc.value.code == EXIT_CONFIG
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gdof", "simulate", "sweep", "validate"])
def test_negative_seed_is_usage_error(command, config_path, capsys):
    required = {"gdof": ["--config", config_path], "validate": [],
                "simulate": ["--config", config_path, "--snr-db", "50"],
                "sweep": ["--config", config_path, "--out", "unwritten.csv"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, "--seed", "-1"])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--seed: must be a non-negative integer" in err and "Traceback" not in err


def test_validate_all_checks_pass(capsys):
    assert main(["validate"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 4
    assert all(l.startswith("PASS") for l in lines)


def test_validate_with_config_adds_determinism_check(config_path, capsys):
    assert main(["validate", "--config", config_path]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5
    assert lines[-1].startswith("PASS  deterministic re-simulation: 2 schemes")


def test_failed_check_exits_one_and_the_rest_still_run(monkeypatch, capsys):
    monkeypatch.setattr(checks, "layout_totals", lambda rng, n: (False, "forced"))
    assert main(["validate"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 4
    assert lines[1] == "FAIL  layout rate total == closed form: forced"
    assert all(l.startswith("PASS") for l in lines[:1] + lines[2:])


# ------------------------------------------------------- fuzzed configs

_EXPONENT = st.one_of(
    st.floats(-0.25, 1.25), st.sampled_from([0.0, 0.5, 1.0, float("nan"), float("inf")])
)
_PAIR = st.lists(_EXPONENT, min_size=2, max_size=2)
_SNR = st.one_of(
    st.floats(-60.0, 120.0), st.sampled_from([float("nan"), float("-inf"), 4000.0])
)
_SCHEMES = ["apzf", "centralized_zf", "naive_zf", "no_csit"]
_WELL_FORMED = st.fixed_dictionaries(
    {
        "gamma": st.just([[1.0, 0.8], [0.8, 1.0]]),
        "alpha": st.just([[[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]]),
        "schemes": st.lists(st.sampled_from(_SCHEMES), min_size=1, max_size=4, unique=True),
        "snr_db": st.lists(st.floats(-60.0, 120.0), min_size=1, max_size=3, unique=True).map(sorted),
        "draws": st.integers(1, 5),
        "seed": st.integers(0, 2**70),
    },
    optional={
        "window_db": st.lists(st.floats(-60.0, 120.0), min_size=2, max_size=2).map(sorted),
        "workers": st.integers(1, 3),
    },
)
# Values a hand-written config might hold instead, well-formed or not.
_WILD = {
    "gamma": st.lists(_PAIR, min_size=1, max_size=3),
    "alpha": st.lists(st.lists(_PAIR, min_size=2, max_size=2), min_size=1, max_size=3),
    "schemes": st.lists(st.sampled_from(_SCHEMES + ["dirty_paper"]), max_size=3),
    "snr_db": st.one_of(st.lists(_SNR, max_size=3), st.just(40.0)),
    "draws": st.sampled_from([0, 2.5, True, "5", None, 2**32 + 1]),
    "seed": st.sampled_from([-1, 1.5, "7", None]),
    "window_db": st.lists(st.floats(-60.0, 120.0), max_size=3),
    "workers": st.sampled_from([0, True, 1.5]),
}


@st.composite
def _configs(draw):
    """A well-formed sweep config with up to two keys replaced by wild values."""
    raw = draw(_WELL_FORMED)
    for key in draw(st.lists(st.sampled_from(sorted(_WILD)), max_size=2, unique=True)):
        raw[key] = draw(_WILD[key])
    return raw


@settings(max_examples=60, deadline=None)
@given(raw=_configs())
def test_fuzzed_sweep_config_exits_cleanly(raw):
    # Any config gets a clean exit: 0, or 2 for a bad value, or 3 for an
    # instance outside the supported domain; never 1 (self-check failed)
    # and never an uncaught exception.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["sweep", "--config", str(path), "--out", str(Path(tmp) / "out.csv")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN), err.getvalue()
    assert "Traceback" not in err.getvalue()


@settings(max_examples=100, deadline=None)
@given(content=st.binary(max_size=64))
def test_arbitrary_config_bytes_exit_cleanly(content):
    # A full config needs more than 64 bytes, so each of these exits 2 or 3.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["gdof", "--config", str(path)])
    assert code in (EXIT_CONFIG, EXIT_DOMAIN), err.getvalue()
    assert "Traceback" not in err.getvalue()
