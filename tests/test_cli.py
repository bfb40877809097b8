import json

import pytest
from conftest import BAD_CONFIG_VALUES

from apzf.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    main,
)


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


def test_sweep_rejects_malformed_window(config_path, tmp_path, capsys):
    code = main([
        "sweep", "--config", config_path, "--out", str(tmp_path / "x.csv"),
        "--window", "45-60",
    ])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unknown_scheme_override_is_config_error(config_path, capsys):
    code = main([
        "simulate", "--config", config_path, "--snr-db", "50",
        "--scheme", "dirty_paper",
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
    raw = json.loads(open(config_path, encoding="utf-8").read())
    raw[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("snr", ["nan", "inf", "4000"])
def test_simulate_bad_snr_exits_with_config_error(config_path, snr, capsys):
    assert main(["simulate", "--config", config_path, "--snr-db", snr]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""


def test_malformed_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
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
