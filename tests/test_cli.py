import contextlib
import ctypes
import io
import argparse
import dataclasses
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from conftest import BAD_CONFIG_VALUES
from hypothesis import example, given, settings
from hypothesis import strategies as st

import apzf
import apzf.checks as checks
import apzf.cli as cli
import apzf.harness as harness
from apzf.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOURCES,
    _apply_overrides,
    main,
)
from apzf.scheme import PowerInfeasible
from apzf.topology import GammaOutOfRange


# The reference instance at 3 points x 5 draws: far too few to fork a worker.
_SMALL_CONFIG = {
    "gamma": [[1.0, 0.8], [0.8, 1.0]],
    "alpha": [[[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]],
    "schemes": ["apzf", "naive_zf"],
    "snr_db": [40.0, 50.0, 60.0],
    "draws": 5,
    "seed": 7,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_SMALL_CONFIG), encoding="utf-8")
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


def test_gdof_output_on_a_case2_layout_with_z1(tmp_path, capsys):
    # The sweep-z1-pool benchmark instance: its layout carries a z1 row.
    raw = {
        "gamma": [[1.0, 0.6], [0.9, 0.5]],
        "alpha": [[[0.6, 0.4], [0.5, 0.3]], [[0.2, 0.1], [0.1, 0.0]]],
        "schemes": ["apzf", "centralized_zf", "naive_zf", "no_csit"],
        "snr_db": [20.0, 60.0],
        "draws": 1000,
        "seed": 23,
    }
    path = tmp_path / "z1.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["gdof", "--config", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "distributed GDoF : 1.3  (branch d1: d1=1.3, d2=1.3)\n"
        "centralized GDoF : 1.3  (branch d1: d1=1.3, d2=1.3)\n"
        "no-CSIT GDoF     : 1\n"
        "layout           : case2, rho = 0.3\n"
        "  layer  rate_exp  power_exp\n"
        "  s0     0.6       1\n"
        "  s1     0.3       0.8\n"
        "  s2     0.3       0.8\n"
        "  z1     0.1       0.1\n"
    )


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


# 39-41 dB holds one point of the first grid, and both of the second,
# which are distinct but too close together to fit a line.
@pytest.mark.parametrize(
    "snr_db", [[40.0, 50.0, 60.0], [40.0, 40.00000000000001]], ids=["one-window-point", "too-close-to-fit"]
)
def test_sweep_says_why_a_slope_is_missing(tmp_path, snr_db, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(_SMALL_CONFIG, snr_db=snr_db, schemes=["apzf"])), encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out), "--window", "39:41"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == (
        "apzf            slope over 39-41 dB: n/a (fewer than 2 window points, or too close together to fit)"
    )
    assert json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))["slopes"] == {"apzf": None}


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


@pytest.mark.parametrize("out", ["/", "", "."])
def test_sweep_out_that_names_no_file_is_config_error(config_path, tmp_path, out, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", config_path, "--out", out]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("case", ["directory", "summary-directory", "nul"])
def test_sweep_out_that_is_a_directory_or_holds_a_nul_is_config_error(
    config_path, tmp_path, case, monkeypatch, capsys
):
    # Rejected before anything is simulated, not after the whole grid.
    def no_sweep(config):
        raise AssertionError("simulated before --out was checked")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    (tmp_path / "d").mkdir()
    (tmp_path / "x.json").mkdir()
    out = {"directory": str(tmp_path / "d"), "summary-directory": str(tmp_path / "x.csv"),
           "nul": str(tmp_path / "a\x00b")}[case]
    assert main(["sweep", "--config", config_path, "--out", out]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "d", "x.json"]


def test_domain_error_in_a_pool_worker_is_domain_error(tmp_path, small_pool, monkeypatch, capsys):
    # The worker's exception reaches the parent pickled; it must arrive
    # as itself, not as a broken pool.
    def out_of_range(*args, **kwargs):
        raise GammaOutOfRange(0, 1, 1.5)

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(_SMALL_CONFIG, draws=3100)), encoding="utf-8")
    assert harness._pool_size(dataclasses.replace(harness.load_config(config_path), workers=2)) == 2
    monkeypatch.setattr(harness, "_build_pass", out_of_range)
    argv = ["sweep", "--config", str(config_path), "--out", str(tmp_path / "x.csv"), "--workers", "2"]
    assert main(argv) == EXIT_DOMAIN
    assert capsys.readouterr().err == "unsupported configuration: gamma[0,1] = 1.5 outside [0, 1]\n"


_REAL_POINT_TASK = harness._point_task


def _killed_in_a_worker(args):
    """``harness._point_task``, but a pool worker that runs it is killed,
    as the OOM killer would kill it."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_POINT_TASK(args)


def test_a_dead_pool_worker_is_a_resource_error(tmp_path, small_pool, monkeypatch, capfd):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(_SMALL_CONFIG, draws=3100)), encoding="utf-8")
    monkeypatch.setattr(harness, "_point_task", _killed_in_a_worker)
    argv = ["sweep", "--config", str(config_path), "--out", str(tmp_path / "x.csv"), "--workers", "2"]
    assert main(argv) == EXIT_RESOURCES
    captured = capfd.readouterr()
    assert captured.err.startswith("out of resources: BrokenProcessPool(") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert multiprocessing.active_children() == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_memory_error_is_a_resource_error(config_path, tmp_path, monkeypatch, capsys):
    # A broken pool's error is a RuntimeError; no other RuntimeError is.
    error = MemoryError()

    def failing(config):
        raise error

    monkeypatch.setattr(cli, "sweep", failing)
    argv = ["sweep", "--config", config_path, "--out", str(tmp_path / "x.csv")]
    assert main(argv) == EXIT_RESOURCES
    assert capsys.readouterr().err == "out of resources: MemoryError()\n"
    error = RuntimeError("a fault of the program")
    with pytest.raises(RuntimeError, match="a fault of the program"):
        main(argv)


class _RecordingLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def _sweep_csv(config_path, out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", config_path, "--out", str(out)]) == EXIT_OK
    return out.read_bytes()


@pytest.fixture
def unset_heap_pad():
    """Forget that this process set the heap pad, before and after the test."""
    cli._keep_freed_heap.cache_clear()
    yield
    cli._keep_freed_heap.cache_clear()


def test_sweep_sets_the_heap_pad_through_mallopt(config_path, tmp_path, monkeypatch, unset_heap_pad):
    libc = _RecordingLibc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    _sweep_csv(config_path, tmp_path / "x.csv")
    assert libc.calls == [(-2, 64 << 20)]  # M_TOP_PAD in glibc's malloc.h


def test_the_heap_pad_is_set_once_per_process(config_path, monkeypatch, unset_heap_pad):
    loaded = []
    libc = _RecordingLibc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: loaded.append(name) or libc)
    for _ in range(2):
        assert main(["gdof", "--config", config_path]) == EXIT_OK
    assert (loaded, libc.calls) == (["libc.so.6"], [(-2, 64 << 20)])


@pytest.mark.parametrize("libc", ["no-libc", "no-mallopt"])
def test_sweep_runs_without_glibc_mallopt(config_path, tmp_path, libc, monkeypatch, unset_heap_pad):
    # Where the allocator cannot be tuned the sweep runs as it would anyway.
    expected = _sweep_csv(config_path, tmp_path / "ref.csv")

    def cdll(name):
        if libc == "no-libc":
            raise OSError(f"{name}: cannot open shared object file")
        return object()  # a library with no mallopt

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    cli._keep_freed_heap.cache_clear()
    assert _sweep_csv(config_path, tmp_path / "x.csv") == expected


# Prints the minor page faults of the third of three sweeps in one process.
_THIRD_SWEEP_FAULTS = """
import contextlib, io, resource, sys
import apzf.cli as cli
if sys.argv[1] == "unpadded":
    cli._keep_freed_heap = lambda: None
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--config", sys.argv[2], "--out", sys.argv[3]]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap pad is glibc's")
def test_the_heap_pad_spares_a_repeated_sweep_its_page_faults(tmp_path):
    # Without the pad glibc hands the heap a sweep freed back to the kernel,
    # and the next sweep faults it in again.  The third sweep is counted:
    # the second's count depends on where the first sweep's long-lived
    # allocations (lazy imports, numpy's cache of small buffers) land in
    # the heap, and so on the length of a path; by the third, the padded
    # heap is settled.  On configs/parallel.json the third sweep faults
    # 0-2 pages padded and 1,300-2,000 unpadded (glibc 2.36, numpy 2.4.6).
    config = Path(__file__).resolve().parents[1] / "configs" / "parallel.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(Path(apzf.__file__).parents[1])
    faults = {}
    for heap in ("padded", "unpadded"):
        argv = [sys.executable, "-c", _THIRD_SWEEP_FAULTS, heap, str(config), str(tmp_path / "x.csv")]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        faults[heap] = int(done.stdout)
    assert 4 * faults["padded"] < faults["unpadded"], faults


def test_importing_apzf_leaves_the_allocator_alone():
    # numpy imports ctypes itself, so what is checked is that no apzf
    # module binds it at import and that nothing calls into libc.
    code = """
import ctypes, numpy
calls = []
class Libc:
    def __getattr__(self, name):
        return lambda *args: calls.append((name, args))
ctypes.CDLL = lambda *args, **kwargs: Libc()
import apzf, apzf.checks, apzf.cli
assert calls == [], calls
import sys
bound = [name for name, m in sys.modules.items() if name.split(".")[0] == "apzf" and "ctypes" in vars(m)]
assert bound == [], bound
"""
    env = dict(os.environ, PYTHONPATH=str(Path(apzf.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and len(err) < 200


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


@pytest.mark.parametrize("snr", ["nan", "inf", "4000", "1600", "180.5", "-180.5"])
def test_simulate_bad_snr_exits_with_config_error(config_path, snr, capsys):
    assert main(["simulate", "--config", config_path, "--snr-db", snr]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""
    assert "[-180, 180] dB" in captured.err


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

    monkeypatch.setattr(harness, "_build_pass", infeasible)
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


def test_missing_output_directory_fails_before_simulating(config_path, tmp_path, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(cli, "sweep", lambda config: runs.append(config))
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["sweep", "--config", config_path, "--out", str(out)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error:") and captured.err.count("\n") == 1
    assert captured.out == "" and runs == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_parser_is_built_once_and_no_argument_leaks_between_calls(config_path, tmp_path, monkeypatch):
    seen = []
    for name in ("_cmd_gdof", "_cmd_simulate", "_cmd_sweep", "_cmd_validate"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or EXIT_OK)
    parser = cli._parser()
    out = str(tmp_path / "x.csv")
    calls = [
        ["sweep", "--config", config_path, "--out", out, "--seed", "3", "--scheme", "apzf",
         "--window", "40:60", "--workers", "2"],
        ["gdof", "--config", config_path],
        ["simulate", "--config", config_path, "--snr-db", "50", "--scheme", "naive_zf"],
        ["validate"],
        ["sweep", "--config", config_path, "--out", out],
    ]
    for argv in calls:
        assert main(argv) == EXIT_OK
    assert cli._parser() is parser
    common = {"config": config_path, "seed": None}
    assert seen == [
        {"command": "sweep", "config": config_path, "seed": 3, "out": out, "scheme": "apzf",
         "window": "40:60", "workers": 2},
        {"command": "gdof", **common},
        {"command": "simulate", **common, "snr_db": 50.0, "scheme": "naive_zf"},
        {"command": "validate", "config": None, "seed": None},
        {"command": "sweep", **common, "out": out, "scheme": None, "window": None, "workers": None},
    ]


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"], ["gdof", "--help"]])
def test_help_is_that_of_a_freshly_built_parser(argv, capsys):
    fresh = cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        fresh.parse_args(argv)
    assert exc.value.code == 0
    expected = capsys.readouterr().out
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == expected


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


def test_the_lattice_checks_print_the_same_lines_at_every_seed(capsys):
    lines = []
    for seed in ("0", "7"):
        assert main(["validate", "--seed", seed]) == EXIT_OK
        lines.append(capsys.readouterr().out.split("\n")[:2])
    assert lines[0] == lines[1]
    assert all("18704 lattice instances" in line for line in lines[0])


def test_determinism_check_fails_when_a_sweep_point_differs(config_path, monkeypatch, capsys):
    # A sweep whose points depended on the grid would disagree with the
    # point simulated on its own; stand one in by shifting the sweep's seed.
    real = checks.sweep
    monkeypatch.setattr(checks, "sweep", lambda cfg: real(dataclasses.replace(cfg, seed=cfg.seed + 1)))
    assert main(["validate", "--config", config_path]) == EXIT_CHECK_FAILED
    last = capsys.readouterr().out.strip().split("\n")[-1]
    assert last.startswith("FAIL  deterministic re-simulation: 2 schemes")
    assert last.endswith("equal to it in a two-point sweep: False")


# The order in which ``apzf validate --config`` runs the checks.
_VALIDATE_ORDER = ["closed_form_identity", "layout_totals", "cancellation", "power_exponents",
                   "determinism"]


@pytest.mark.parametrize("check", [name for name in checks.__all__ if name != "lattice"])
def test_failed_check_exits_one_and_the_rest_still_run(check, config_path, monkeypatch, capsys):
    # Every check in apzf.checks but the lattice generator is run by
    # validate, and its failure stops none of the others.
    monkeypatch.setattr(checks, check, lambda *args: (False, "forced"))
    assert main(["validate", "--config", config_path]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.strip().split("\n")
    index = _VALIDATE_ORDER.index(check)
    assert len(lines) == len(_VALIDATE_ORDER)
    assert lines[index].startswith("FAIL  ") and lines[index].endswith(": forced")
    assert all(l.startswith("PASS") for l in lines[:index] + lines[index + 1:])


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


# --out values relative to the example's temp dir: a file name (no "/",
# and no NUL, which a command line cannot carry), or a path naming no file.
_OUT = st.one_of(
    st.text(st.characters(exclude_characters="/\x00"), min_size=1, max_size=16).filter(
        lambda name: name not in (".", "..")
    ),
    st.sampled_from(["", "."]),
)
_WINDOW = st.one_of(
    st.text(max_size=12),
    st.tuples(st.floats(), st.floats()).map(lambda w: f"{w[0]}:{w[1]}"),
)
_SCHEME_ARG = st.one_of(
    st.text(max_size=12),
    st.lists(st.sampled_from(_SCHEMES + ["dirty_paper"]), max_size=3).map(",".join),
)
_INT_ARG = st.one_of(st.integers(-2, 2**70).map(str), st.text(max_size=6))


@settings(max_examples=60, deadline=None)
@given(
    out=_OUT,
    window=st.none() | _WINDOW,
    scheme=st.none() | _SCHEME_ARG,
    workers=st.none() | _INT_ARG,
    seed=st.none() | _INT_ARG,
)
@example(out="", window=None, scheme=None, workers=None, seed=None)
@example(out="\ud800", window=None, scheme=None, workers=None, seed=None)
def test_fuzzed_sweep_command_line_exits_cleanly(out, window, scheme, workers, seed):
    # A valid config with any --out, --window, --scheme, --workers and
    # --seed gets a clean exit (argparse's own SystemExit(2) counts as 2).
    argv = ["sweep", "--config", "config.json", f"--out={out}"]
    for name, value in (("window", window), ("scheme", scheme), ("workers", workers), ("seed", seed)):
        if value is not None:
            argv.append(f"--{name}={value}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        Path("config.json").write_text(json.dumps(_SMALL_CONFIG), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO), err.getvalue()
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
