"""Monte Carlo sum-rate sweeps, slope fitting, and result serialization.

A config's draws are split into chunks of ``_CHUNK_DRAWS``, and each
chunk gets its own RNG substream derived from the config seed and the
chunk index alone, so draw d is the same fading draw at every SNR point
and for every scheme (common random numbers across points and schemes).
A sweep task (``_point_task``) is a contiguous range of whole chunks over
the whole grid.  It evaluates its draws in blocks of at most
``_BLOCK_DRAWS`` (4,096 draws, four whole chunks), blocks first: each
block draws its chunks' normals once and evaluates every SNR point and
scheme on them as array operations, in passes of at most ``_PASS_DRAWS``
point-draws (10,240: ten points of a 1,000-draw block, five of a
2,000-draw one, two of a 4,096-draw one), each on a ``(points, 1)``
column of powers, one point's too.  With a pool each worker runs one
task, and this process joins the tasks' per-draw sums and reduces them
once.  A point's result therefore depends neither on the other points
in its grid or its pass nor on the number of workers.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import os
import reprlib
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .channel import NORMALS_PER_DRAW, sample_channel, sample_csit
from .gdof import centralized_gdof, distributed_gdof, genie_outer_bound
from .scheme import _BANDS, _build_pass, achievable_rates, plan_layout
from .topology import CsitQuality, Topology, canonicalize

__all__ = [
    "SweepConfig",
    "SweepCurve",
    "ConfigError",
    "InsufficientPoints",
    "PointStats",
    "simulate_snr",
    "sweep",
    "estimate_slope",
    "closed_forms",
    "write_csv",
    "write_summary",
    "load_config",
]

# Draws per substream (see ``_substream``).  Part of the substream
# contract: changing it changes every simulated number.
_CHUNK_DRAWS = 1024

# Draws per block of the kernel, in whole chunks.
_BLOCK_DRAWS = 4 * _CHUNK_DRAWS

# The most point-draws one pass over a block evaluates, at least
# _BLOCK_DRAWS: large enough that a pass's fixed cost (whatever its
# size: 0.3 ms with apzf alone, 0.85-1.1 ms with four schemes, on a
# 2-core Xeon with numpy 2.4.6) is spread thin, small enough that a
# pass's arrays stay at a few MB whatever the draw count and grid.  Ten
# chunks is the fewest that run each benchmark sweep's grid in one pass
# (configs/parallel.json's 5 x 2,000 point-draws, sweep-z1-pool's
# 9 x 1,000); past that the benchmark cannot tell budgets apart, and a
# pass's peak memory grows with its budget.
_PASS_DRAWS = 10 * _CHUNK_DRAWS

# Fewest evals (draws x points x schemes) a worker process must get
# before a sweep forks one.  A forked worker costs tens of ms and its own
# copy of the parent's pages (about 30 MB), and a draw costs more the
# more schemes run on it.  configs/parallel.json's five points, one
# process against two workers, each sweep in a fresh process (2-core
# Xeon shared with other load, numpy 2.4.6, interleaved pairs): with all
# four schemes two workers were faster in 5 of 66 pairs at
# 20,480-102,400 point-draws, 22 of 36 at 122,880, 16 of 26 at 163,840,
# and 27 of 28 at 204,800 and 307,200, so four schemes fork from 120,000
# point-draws.  With apzf alone they were faster in 0 of 20 pairs at
# 122,880 and 204,800, and 18 of 20 at 327,680 and 491,520; one scheme
# forks from 480,000, later than it would pay but never at a loss.
_POOL_MIN_EVALS = 240_000

# The most bytes of per-draw sums a sweep may hold: 8 per draw per scheme
# per SNR point.  The parent peaks at about three times that, while it
# holds a pool's parts, their join and the deviations of the standard
# error.  A pass's arrays do not grow with draws (see _PASS_DRAWS).
_SUMS_BYTES = 2**30

# log2(P) advances by this much per dB of SNR.
_LOG2P_PER_DB = math.log2(10.0) / 10.0


class ConfigError(ValueError):
    """Malformed or incomplete sweep configuration.

    The message may echo a bad value of any size, so it is cut to 160
    characters; sites echo values through ``reprlib.repr`` to bound depth.
    """

    def __init__(self, message: str):
        super().__init__(message if len(message) <= 160 else message[:157] + "...")


class InsufficientPoints(ValueError):
    """Not enough points to fit a slope."""


def _snr_power(snr_db: float) -> float:
    """P = 10**(snr_db / 10); ConfigError unless P is a normal float and
    P*P is finite (about -3076 to 1541 dB)."""
    try:
        p = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        p = math.inf
    # The 1/P regularizer bounds the active AP-ZF coefficient's power by
    # about P**2 times a squared Gaussian, so P*P must not overflow.
    if not (sys.float_info.min <= p and p * p < math.inf):
        raise ConfigError(
            f"snr_db {snr_db!r} is out of range: P = 10**(snr_db/10) must be "
            "a normal float with P*P finite"
        )
    return p


def _integer(name: str, value) -> int:
    """``value`` as an int; ConfigError for a bool or a non-integral value."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return int(value)


def _array(name: str, value, depth: int):
    """``value`` as floats in ``depth`` levels of nested tuples.

    ConfigError for a string, bytes or a mapping where a sequence belongs,
    and for anything but a real number that fits a float where a number
    belongs: ``float`` and ``np.asarray`` would read ``"2468"`` as four
    numbers, a mapping as its keys, ``"0.8"`` as a number and a bool as 0
    or 1, and an int past float's range would end in an OverflowError.
    """
    if depth == 0:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:
                pass
    elif _is_array(value):
        return tuple(_array(name, v, depth - 1) for v in value)
    what = "a number that fits a float" if depth == 0 else "an array"
    raise ConfigError(f"{name}: expected {what}, got {reprlib.repr(value)}")


def _is_array(value) -> bool:
    """Whether ``value`` may stand where a config array belongs."""
    return isinstance(value, Iterable) and not isinstance(value, (str, bytes, Mapping))


@dataclass
class SweepConfig:
    topology: Topology
    csit: CsitQuality
    schemes: tuple
    snr_db: tuple
    draws: int
    seed: int
    window_db: tuple = (40.0, 60.0)
    workers: int = 1

    def __post_init__(self):
        if not _is_array(self.schemes):
            raise ConfigError(f"schemes: expected an array, got {reprlib.repr(self.schemes)}")
        unknown = [s for s in self.schemes if not (isinstance(s, str) and s in _BANDS)]
        if unknown:
            raise ConfigError(f"unknown scheme: {reprlib.repr(unknown[0])}")
        self.schemes = tuple(self.schemes)
        self.snr_db = _array("snr_db", self.snr_db, 1)
        if not self.schemes:
            raise ConfigError("schemes must be non-empty")
        if len(set(self.schemes)) < len(self.schemes):
            raise ConfigError(f"schemes must not repeat: {','.join(self.schemes)}")
        for snr in self.snr_db:
            _snr_power(snr)
        if any(b <= a for a, b in zip(self.snr_db, self.snr_db[1:])):
            raise ConfigError("snr_db grid must be strictly increasing")
        if not self.snr_db:
            raise ConfigError("snr_db grid must be non-empty")
        self.draws = _integer("draws", self.draws)
        self.seed = _integer("seed", self.seed)
        self.workers = _integer("workers", self.workers)
        if self.draws < 1:
            raise ConfigError("draws must be >= 1")
        if self.draws * len(self.snr_db) * len(self.schemes) * 8 > _SUMS_BYTES:
            raise ConfigError(
                f"draws x snr_db points x schemes must be <= {_SUMS_BYTES // 8}, "
                "8 bytes of per-draw sums each"
            )
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        try:
            lo, hi = _array("window_db", self.window_db, 1)
        except ValueError as exc:
            raise ConfigError(f"window_db must be two numbers lo, hi; got {reprlib.repr(self.window_db)}") from exc
        if not lo < hi:
            raise ConfigError("window_db must satisfy lo < hi")
        self.window_db = (lo, hi)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


@dataclass(frozen=True)
class PointStats:
    """One scheme at one SNR point: the mean sum rate, its standard error,
    and the fraction of draws the power back-off scaled down."""

    mean: float
    stderr: float
    backoff_frac: float


@dataclass
class SweepCurve:
    """``points[scheme]`` holds one PointStats per ``snr_db`` entry."""

    snr_db: tuple
    points: dict
    slopes: dict
    gdof: dict


def _substream(seed: int, chunk: int) -> np.random.Generator:
    """The generator of one chunk of draws: the substream contract.

    Draw d is row ``d % _CHUNK_DRAWS`` of this generator's
    ``standard_normal((n, NORMALS_PER_DRAW))`` for chunk ``d // _CHUNK_DRAWS``,
    at every SNR point.
    """
    return np.random.default_rng([seed, chunk])


def _block_normals(seed: int, block: range) -> np.ndarray:
    """Normals of the draws in ``block``: row i is draw block[i]'s row of
    its chunk's ``_substream``.

    ``block`` must start on a chunk boundary (a multiple of
    ``_CHUNK_DRAWS``); each chunk in it is drawn from a fresh substream.
    A sweep task calls this once per block and shares the normals across
    all of its SNR points.
    """
    z = np.empty((len(block), NORMALS_PER_DRAW))
    for start in range(block.start, block.stop, _CHUNK_DRAWS):
        end = min(block.stop, start + _CHUNK_DRAWS)
        _substream(seed, start // _CHUNK_DRAWS).standard_normal(
            out=z[start - block.start : end - block.start]
        )
    return z


def simulate_snr(config: SweepConfig, snr_db: float) -> dict:
    """Every config scheme at one SNR point, all on the same draws.

    Draw d is always the same row of substream (seed, d // _CHUNK_DRAWS),
    whichever SNR points, draws and schemes run with it, so the result
    equals this point's in any ``sweep`` of the config, and it uses
    ``config.workers`` as a sweep does.  Returns ``{scheme: PointStats}``.
    """
    return {s: p[0] for s, p in _simulate(dataclasses.replace(config, snr_db=(snr_db,))).items()}


def _simulate(config: SweepConfig) -> dict:
    """``{scheme: [PointStats per SNR point]}``, the shape of
    ``SweepCurve.points``: one ``_point_task`` per worker (see
    ``_pool_size``), their per-draw sums joined and reduced here.
    """
    workers = _pool_size(config)
    cuts = _cuts(-(-config.draws // _CHUNK_DRAWS), workers)
    tasks = [(config, range(config.draws)[a * _CHUNK_DRAWS : b * _CHUNK_DRAWS]) for a, b in cuts]
    if workers > 1:
        # imported here: concurrent.futures.process costs about 1.7 MB of
        # RSS and tens of ms of import time, which runs without a pool save
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_point_task, tasks))
    else:
        parts = [_point_task(t) for t in tasks]
    # pool.map keeps task order, so the parts join in draw order.
    sums = parts[0][0] if len(parts) == 1 else np.concatenate([p[0] for p in parts], axis=-1)
    backed_off = sum(p[1] for p in parts)
    means = sums.mean(axis=-1)
    if config.draws > 1:
        stderrs = sums.std(axis=-1, ddof=1) / math.sqrt(config.draws)
    else:
        stderrs = np.zeros(sums.shape[:2])
    fracs = backed_off / config.draws
    return {
        s: [
            PointStats(float(means[j, i]), float(stderrs[j, i]), float(fracs[j, i]))
            for j in range(len(config.snr_db))
        ]
        for i, s in enumerate(config.schemes)
    }


def _point_task(args):
    """Per-draw sum rates ``(points, schemes, len(draws))`` and back-off
    counts ``(points, schemes)`` on ``draws``, a range of whole chunks.

    A block's points are cut into the fewest near-equal contiguous groups
    of at most ``_PASS_DRAWS // len(block)`` points (at least one), and
    each group is one pass on a ``(points, 1)`` column of powers, a group
    of one too: one ``scheme._build_pass`` over every scheme, which makes
    each TX's estimate and each ZF direction of the pass at most once,
    and one call per scheme of ``achievable_rates``.  A scheme's layers
    and mask are let go as soon as they are summed.
    """
    config, draws = args
    canon = canonicalize(config.topology, config.csit)
    topology, csit = canon.topology, canon.csit
    layouts = {s: plan_layout(canon, s) for s in config.schemes}
    powers = [_snr_power(snr) for snr in config.snr_db]
    sums = np.empty((len(powers), len(config.schemes), len(draws)))
    backed_off = np.zeros((len(powers), len(config.schemes)), dtype=np.int64)
    for start in range(0, len(draws), _BLOCK_DRAWS):
        block = draws[start : start + _BLOCK_DRAWS]
        z = _block_normals(config.seed, block)
        passes = -(-len(powers) // max(1, _PASS_DRAWS // len(block)))
        for a, b in _cuts(len(powers), passes):
            p = np.array(powers[a:b])[:, None]
            h = sample_channel(topology, p, z)
            estimate = functools.partial(sample_csit, h, topology, csit, p, z)
            # Not enumerate: its reused result tuple would keep one scheme's
            # layers alive while the generator builds the next scheme's.
            i = 0
            for layers, mask in _build_pass(canon, estimate, layouts, p, h.shape[3:]):
                sums[a:b, i, start : start + len(block)] = sum(achievable_rates(h, layers).values())
                backed_off[a:b, i] += mask.sum(axis=-1)
                del layers, mask  # freed before the next scheme's are built
                i += 1
    return sums, backed_off


def _cuts(n: int, parts: int) -> list:
    """``(start, stop)`` of ``parts`` near-equal contiguous slices of ``range(n)``."""
    edges = [n * k // parts for k in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _pool_size(config: SweepConfig) -> int:
    """Worker processes a sweep uses; 1 means it runs in this process.

    At most ``config.workers``, the CPUs this process may use, and one per
    chunk (each worker gets a contiguous range of whole chunks), and no
    more than give each worker ``_POOL_MIN_EVALS`` evals (draws x points
    x schemes).
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    chunks = -(-config.draws // _CHUNK_DRAWS)
    evals = config.draws * len(config.snr_db) * len(config.schemes)
    return max(1, min(config.workers, cpus, chunks, evals // _POOL_MIN_EVALS))


def closed_forms(config: SweepConfig) -> dict:
    """The three closed-form GDoF references for a config, as GdofValues."""
    return {
        "distributed": distributed_gdof(config.topology, config.csit),
        "centralized": genie_outer_bound(config.topology, config.csit),
        "no_csit": centralized_gdof(config.topology, np.zeros((2, 2))),
    }


def sweep(config: SweepConfig) -> SweepCurve:
    """Simulate every (scheme, SNR) point and fit per-scheme slopes.

    Runs on at most ``config.workers`` processes (see ``_pool_size``),
    each on a range of whole chunks over the whole grid; since draws are
    keyed by chunk alone, the result is identical for any worker count.
    Schemes whose window holds fewer than two grid points get slope None.
    """
    # First: they validate the instance in this process, before any worker starts.
    gdof = {name: form.value for name, form in closed_forms(config).items()}
    points = _simulate(config)
    slopes = {}
    for s, pts in points.items():
        try:
            slopes[s] = estimate_slope(
                [(snr, pt.mean) for snr, pt in zip(config.snr_db, pts)], config.window_db
            )
        except InsufficientPoints:
            slopes[s] = None
    return SweepCurve(config.snr_db, points, slopes, gdof)


def estimate_slope(points, window_db) -> float:
    """Least-squares slope of a log2-scale quantity against log2(P) inside
    a dB window: a sum rate, or a mean log2 power.

    ``points`` is a sequence of (snr_db, value) pairs; both window edges
    are inclusive.  With x = log2(P) and d = x - mean(x) over the n
    points inside, the slope is fsum(d*y) / fsum(d*d) in Python floats,
    so its bits depend on neither BLAS nor the CPU.  Raises
    InsufficientPoints when fewer than two points lie inside, or when
    they are too close together for a line: max(x) - min(x) <=
    n * eps * max|x|, or fsum(d*d) is below the smallest normal float.
    """
    lo, hi = window_db
    sel = [(snr * _LOG2P_PER_DB, y) for snr, y in points if lo <= snr <= hi]
    if len(sel) < 2:
        raise InsufficientPoints(
            f"need >= 2 points inside [{lo}, {hi}] dB, found {len(sel)}"
        )
    x, y = zip(*sel)
    mean = math.fsum(x) / len(x)
    d = [xi - mean for xi in x]
    sxx = math.fsum(di * di for di in d)
    if max(x) - min(x) <= len(x) * sys.float_info.epsilon * max(map(abs, x)) or sxx < sys.float_info.min:
        raise InsufficientPoints(f"points inside [{lo}, {hi}] dB are too close together to fit a slope")
    return math.fsum(di * yi for di, yi in zip(d, y)) / sxx


def write_csv(curve: SweepCurve, path) -> None:
    """One row per (scheme, SNR): snr_db,scheme,sum_rate_mean,sum_rate_stderr.

    Values carry 12 significant digits; rows are ordered by scheme (config
    order) then SNR, so equal configs produce byte-identical files.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("snr_db,scheme,sum_rate_mean,sum_rate_stderr\n")
        for s, pts in curve.points.items():
            for snr, pt in zip(curve.snr_db, pts):
                f.write(f"{snr:.12g},{s},{pt.mean:.12g},{pt.stderr:.12g}\n")


def summary_dict(config: SweepConfig, curve: SweepCurve) -> dict:
    return {
        "config": config_to_dict(config),
        "slopes": dict(curve.slopes),
        "gdof_closed_form": dict(curve.gdof),
        "backoff_frac": {s: [pt.backoff_frac for pt in pts] for s, pts in curve.points.items()},
    }


def write_summary(config: SweepConfig, curve: SweepCurve, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(summary_dict(config, curve), f, indent=2, sort_keys=True)
        f.write("\n")


# The config file holds the topology and the CSIT quality as their
# exponent matrices, Topology.gamma and CsitQuality.alpha; every other
# key is a SweepConfig field's name.
_MATRIX_KEYS = {"topology": "gamma", "csit": "alpha"}


def _config_fields() -> dict:
    """``{config key: SweepConfig field}``, in field order."""
    return {_MATRIX_KEYS.get(f.name, f.name): f for f in dataclasses.fields(SweepConfig)}


def config_to_dict(config: SweepConfig) -> dict:
    out = {}
    for key, f in _config_fields().items():
        value = getattr(config, f.name)
        if f.name in _MATRIX_KEYS:
            value = getattr(value, key).tolist()
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def config_from_dict(raw: dict) -> SweepConfig:
    fields = _config_fields()
    missing = [k for k, f in fields.items() if k not in raw and f.default is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"config missing keys: {', '.join(missing)}")
    unknown = [k for k in raw if k not in fields]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        kwargs = {fields[k].name: v for k, v in raw.items()}
        kwargs.update(
            topology=Topology(_array("gamma", raw["gamma"], 2)),
            csit=CsitQuality(_array("alpha", raw["alpha"], 3)),
        )
        return SweepConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def load_config(path) -> SweepConfig:
    """Parse a JSON sweep config; wraps every parse failure in ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8, bad JSON, or an integer past Python's digit limit.
        raise ConfigError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config_from_dict(raw)
