"""Command-line front end.

Subcommands:

* ``gdof``      closed-form values and the layer table for a config
* ``simulate``  Monte Carlo mean sum rate at one SNR point
* ``sweep``     full curve to CSV plus a JSON summary next to it
* ``validate``  self-checks (closed-form identities, layout sums, cancellation,
                AP-ZF power exponents), one PASS/FAIL line each

Exit codes: 0 success, 1 validation-suite failure, 2 bad config or
usage, 3 config outside the supported domain, 4 I/O failure, 5 out of
resources (a sweep's worker process died, as under the OOM killer, or
memory ran out).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import checks
from .gdof import scheme_layout
from .harness import (
    ConfigError,
    closed_forms,
    load_config,
    simulate_snr,
    sweep,
    write_csv,
    write_summary,
)
from .scheme import PowerInfeasible
from .topology import ValidationError, canonicalize, validate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IO = 4
EXIT_RESOURCES = 5


def non_negative_int(text: str) -> int:
    """argparse type of ``--seed``: RNG seeds must be non-negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apzf",
        description="GDoF closed forms and sum-rate Monte Carlo for the "
        "2-user MISO BC with distributed CSIT",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument(
            "--config",
            required=config_required,
            help="JSON config (gamma, alpha, schemes, snr_db, draws, seed)",
        )
        p.add_argument("--seed", type=non_negative_int, default=None, help="override config seed")

    p = sub.add_parser("gdof", help="print closed-form GDoF values and the layer table")
    add_common(p)

    p = sub.add_parser("simulate", help="mean sum rate at one SNR point")
    add_common(p)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--scheme", default=None, help="comma-separated subset of config schemes")

    p = sub.add_parser("sweep", help="simulate the SNR grid, write CSV + JSON summary")
    add_common(p)
    p.add_argument("--out", required=True, help="output CSV path (summary goes to .json)")
    p.add_argument("--scheme", default=None, help="comma-separated subset of config schemes")
    p.add_argument("--window", default=None, help="slope-fit window, lo:hi in dB")
    p.add_argument("--workers", type=int, default=None,
                   help="most processes; each takes a range of whole 1,024-draw chunks")

    p = sub.add_parser("validate", help="run identity/cancellation/exponent self-checks")
    add_common(p, config_required=False)

    return parser


# main's parser, built once per process: each parse_args fills a fresh namespace.
_parser = functools.cache(build_parser)


def _apply_overrides(config, args):
    """A copy of ``config`` with the command-line overrides applied and validated."""
    changes = {}
    if getattr(args, "seed", None) is not None:
        changes["seed"] = args.seed
    if getattr(args, "scheme", None):
        chosen = tuple(s.strip() for s in args.scheme.split(","))
        extra = [s for s in chosen if s not in config.schemes]
        if extra:
            raise ConfigError(
                f"--scheme {','.join(extra)} is not among the config's schemes "
                f"({','.join(config.schemes)})"
            )
        changes["schemes"] = chosen
    if getattr(args, "window", None):
        try:
            changes["window_db"] = tuple(float(v) for v in args.window.split(":"))
        except ValueError:
            raise ConfigError(f"--window must be lo:hi in dB, got {args.window!r}") from None
    if getattr(args, "workers", None) is not None:
        changes["workers"] = args.workers
    return dataclasses.replace(config, **changes)


def _cmd_gdof(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    forms = closed_forms(config)
    layout = scheme_layout(canonicalize(config.topology, config.csit))
    for name in ("distributed", "centralized"):
        form = forms[name]
        print(f"{name} GDoF : {form.value:g}  "
              f"(branch {form.branch}: d1={form.d1:g}, d2={form.d2:g})")
    print(f"no-CSIT GDoF     : {forms['no_csit'].value:g}")
    print(f"layout           : {layout.case_id}"
          + (" (parallel)" if layout.parallel else "")
          + f", rho = {layout.rho:g}")
    print("  layer  rate_exp  power_exp")
    for tag, rate in layout.rate_exp.items():
        print(f"  {tag:5s}  {rate:<8g}  {layout.power_exp[tag]:g}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    results = simulate_snr(config, args.snr_db)
    print(f"snr_db = {args.snr_db:g}, draws = {config.draws}, seed = {config.seed}")
    for scheme, pt in results.items():
        print(f"{scheme:15s} sum_rate = {pt.mean:.6f} +/- {pt.stderr:.6f}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if "\0" in args.out:
        raise ConfigError(f"--out {args.out!r} contains a NUL byte")
    try:
        os.fsencode(args.out)
    except UnicodeEncodeError:
        # A lone surrogate that surrogateescape cannot map back to a byte.
        raise ConfigError(f"--out {args.out!r} cannot be encoded as a file name") from None
    out = Path(args.out)
    if not out.name:
        raise ConfigError(f"--out {args.out!r} names no file")
    summary_path = out.with_suffix(".json")
    for path in (out, summary_path):
        if path.is_dir():
            raise ConfigError(f"--out {args.out!r}: {str(path)!r} is a directory")
    if out.resolve() == summary_path.resolve():
        raise ConfigError(f"--out {out}: its .json summary would overwrite the CSV itself")
    if Path(args.config).resolve() in (out.resolve(), summary_path.resolve()):
        raise ConfigError(f"--out {out} would overwrite the config {args.config}")
    if not out.parent.is_dir():
        raise FileNotFoundError(f"--out {args.out!r}: no such directory {str(out.parent)!r}")
    curve = sweep(config)
    write_csv(curve, out)
    write_summary(config, curve, summary_path)
    for s in config.schemes:
        slope = curve.slopes[s]
        shown = f"{slope:.4f}" if slope is not None else "n/a (fewer than 2 distinct window points)"
        print(f"{s:15s} slope over {config.window_db[0]:g}-{config.window_db[1]:g} dB: {shown}")
    print(f"wrote {out} and {summary_path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    seed = args.seed if args.seed is not None else 0
    suite = [
        ("closed-form identity (distributed == centralized reference)", checks.closed_form_identity),
        ("layout rate total == closed form", checks.layout_totals),
        ("exact cancellation (perfect CSIT, no regularizer)",
         lambda: checks.cancellation(np.random.default_rng([seed, 3]), 1000)),
        ("AP-ZF coefficient and received power exponents",
         lambda: checks.power_exponents(np.random.default_rng([seed, 5]), 3, 1500)),
    ]
    if args.config:
        config = load_config(args.config)
        validate(config.topology, config.csit).raise_first()
        small = dataclasses.replace(config, draws=min(config.draws, 50), seed=seed)
        suite.append(("deterministic re-simulation", lambda: checks.determinism(small)))

    failed = 0
    for name, fn in suite:
        ok, detail = fn()
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed += 0 if ok else 1
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


# glibc's mallopt parameter M_TOP_PAD (malloc.h), and the heap it keeps.
_M_TOP_PAD = -2
_TOP_PAD_BYTES = 64 << 20


@functools.cache
def _keep_freed_heap() -> None:
    """Once per process, have glibc keep up to 64 MiB of freed heap instead
    of returning it.

    A sweep pass frees arrays of 0.1-1 MB that the next pass allocates
    again; by default glibc hands the freed top of the heap back to the
    kernel and the next pass faults it in afresh: about 1,000 minor page
    faults per repeated in-process sweep of configs/parallel.json, and
    none with the pad.  Forked pool workers inherit the setting.  Without
    glibc, or without ``mallopt``, this does nothing.

    Setting ``M_TOP_PAD`` also turns off glibc's dynamic mmap threshold
    (mallopt(3)), so it stays where it is: 128 KiB, unless a larger
    mmapped block was freed before the call.  An array past it is
    mmapped afresh, and faults in every page, unless the top of the heap
    can hold it.  The pad is what makes it fit: once a smaller allocation
    has grown the heap, its top holds 64 MiB, and a pass's larger arrays
    (up to about 0.66 MB each) are carved from it and reused.  Measured
    with numpy 2.4.6 on glibc 2.36: a 256 KiB array made and freed in a
    loop right after this call faults all 65 of its pages every time;
    after one 64 KiB array has grown the heap, only its first time.
    """
    import ctypes  # here, not at import: a library caller's allocator is its own

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _keep_freed_heap()
    handler = {
        "gdof": _cmd_gdof,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "validate": _cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValidationError, PowerInfeasible) as exc:
        print(f"unsupported configuration: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (MemoryError, RuntimeError) as exc:
        # Imported here: concurrent.futures costs about 5 ms and 0.4 MB,
        # which a sweep that starts no pool saves.  BrokenExecutor is a
        # RuntimeError.
        from concurrent.futures import BrokenExecutor

        if not isinstance(exc, (MemoryError, BrokenExecutor)):
            raise
        print(f"out of resources: {exc!r}", file=sys.stderr)
        return EXIT_RESOURCES


if __name__ == "__main__":
    sys.exit(main())
