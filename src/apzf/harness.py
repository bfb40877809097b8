"""Monte Carlo sum-rate sweeps, slope fitting, and result serialization.

A config's draws are split into chunks of ``_CHUNK_DRAWS``, and each
chunk gets its own RNG substream derived from the config seed and the
chunk index alone, so draw d is the same fading draw at every SNR point
and for every scheme (common random numbers across points and schemes).
Draws are evaluated in blocks of at most ``_BLOCK_DRAWS`` (4,096 draws,
four whole chunks), blocks first: each block draws its chunks' normals
once and evaluates every SNR point and scheme on them as array
operations.  A block's points run in passes of up to
``_PASS_DRAWS // len(block)`` points each (at least one), with the
powers of a pass's points on an axis just before the draws (see
``apzf.channel``), so a pass never holds more than ``_PASS_DRAWS``
point-draws (10,240: ten points of a 1,000-draw block, five of a
2,000-draw one, two of a 4,096-draw one).  A pass builds every scheme's layers in one
``scheme._build_pass``, which computes each ZF direction of the pass
once and shares it between the schemes that use it, makes a
transmitter's estimate only for the schemes that use it, and lets each
scheme's arrays go before the next scheme's are built.  A point's
result therefore depends neither on the other points in its grid or its
pass nor on how the grid is split across worker processes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import reprlib
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import NORMALS_PER_DRAW, sample_channel, sample_csit
from .gdof import centralized_gdof, distributed_gdof, genie_outer_bound
from .scheme import SchemeKind, _build_pass, achievable_rates, plan_layout
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
    "fit_exponent",
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
# _BLOCK_DRAWS: large enough that a pass's fixed cost (0.4-0.9 ms,
# whatever its size) is spread thin, small enough that a pass's arrays
# stay at a few MB whatever the configured draw count and grid.  Ten
# chunks is the fewest that run each benchmark sweep's grid in one pass
# (configs/parallel.json's 5 x 2,000 point-draws, sweep-z1-pool's
# 9 x 1,000); past that the benchmark cannot tell budgets apart, and a
# pass's peak memory grows with its budget.
_PASS_DRAWS = 10 * _CHUNK_DRAWS

# Fewest point-draws a worker process must get before a sweep forks one.
# Each forked worker holds its own copy of the parent's pages (about
# 30 MB) and draws every block again.  Two points of configs/parallel.json's
# four schemes, one process against two workers (2-core Xeon shared with
# other load, numpy 2.4.6, medians of 10 interleaved pairs, two rounds):
# 10,000 draws each 0.038/0.038 s against 0.071/0.081 s (two workers
# faster in 1 and 1 pairs), 20,000 draws 0.075/0.096 s against
# 0.141/0.119 s (0 and 4), 40,000 draws 0.130/0.134 s against
# 0.137/0.269 s (7 and 1).  No break-even up to 40,000 is clear, so the
# value stays where quieter runs of earlier kernels put it.
_POOL_MIN_DRAWS = 20_000

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
        unknown = [s for s in self.schemes if s not in [k.value for k in SchemeKind]]
        if unknown:
            raise ConfigError(f"unknown scheme: {reprlib.repr(unknown[0])}")
        self.schemes = tuple(str(SchemeKind(s).value) for s in self.schemes)
        self.snr_db = tuple(float(s) for s in self.snr_db)
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
        if self.draws > 2**32:
            # a sweep task keeps 8 bytes per draw per scheme per SNR point
            # it holds: 32 GiB each here.  A pass's working arrays do not
            # grow with draws (at most _PASS_DRAWS point-draws at once).
            raise ConfigError("draws must be <= 2**32")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        try:
            lo, hi = (float(v) for v in self.window_db)
        except (TypeError, ValueError) as exc:
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
    equals this point's in any ``sweep`` of the config.  The per-draw
    sums take 8 bytes per draw per scheme.  Returns ``{scheme: PointStats}``.
    """
    return {s: pts[0] for s, pts in _simulate(config, (snr_db,)).items()}


def _simulate(config: SweepConfig, snr_db: tuple) -> dict:
    """``{scheme: [PointStats per point of snr_db]}``, the shape of
    ``SweepCurve.points``.

    Plans the config's canonical form and each scheme's layout, then runs
    blocks first and SNR points second: each block's normals are drawn
    once and evaluated at every point.  A block's points are cut into the
    fewest near-equal contiguous groups of at most
    ``_PASS_DRAWS // len(block)`` points (at least one), and each group
    is one pass on a ``(points, 1)`` column of powers, or on the float P
    of a lone point: one ``scheme._build_pass`` over every scheme, which
    computes each ZF direction of the pass once and makes each estimate
    as a scheme needs it, and one call per scheme of ``achievable_rates``.
    A scheme's layers and mask are let go as soon as they are summed.
    """
    canon = canonicalize(config.topology, config.csit)
    layouts = {s: plan_layout(canon, s) for s in config.schemes}
    powers = [_snr_power(snr) for snr in snr_db]
    sums = np.empty((len(powers), len(config.schemes), config.draws))
    backed_off = np.zeros((len(powers), len(config.schemes)), dtype=np.int64)
    for start in range(0, config.draws, _BLOCK_DRAWS):
        block = range(start, min(start + _BLOCK_DRAWS, config.draws))
        z = _block_normals(config.seed, block)
        passes = -(-len(powers) // max(1, _PASS_DRAWS // len(block)))
        for a, b in _cuts(len(powers), passes):
            # a lone point runs on its float P, several on a (points, 1) column
            p = powers[a] if b - a == 1 else np.array(powers[a:b])[:, None]
            h = sample_channel(canon.topology, p, z)
            estimate = functools.partial(sample_csit, h, canon.topology, canon.csit, p, z)
            # Not enumerate: its reused result tuple would keep one scheme's
            # layers alive while the generator builds the next scheme's.
            i = 0
            for layers, mask in _build_pass(canon, estimate, layouts, p):
                sums[a:b, i, block.start : block.stop] = sum(achievable_rates(h, layers).values())
                backed_off[a:b, i] += mask.sum(axis=-1)
                del layers, mask  # freed before the next scheme's are built
                i += 1
    means = sums.mean(axis=-1)
    if config.draws > 1:
        stderrs = sums.std(axis=-1, ddof=1) / math.sqrt(config.draws)
    else:
        stderrs = np.zeros(sums.shape[:2])
    fracs = backed_off / config.draws
    return {
        s: [
            PointStats(float(means[j, i]), float(stderrs[j, i]), float(fracs[j, i]))
            for j in range(len(powers))
        ]
        for i, s in enumerate(config.schemes)
    }


def _cuts(n: int, parts: int) -> list:
    """``(start, stop)`` of ``parts`` near-equal contiguous slices of ``range(n)``."""
    edges = [n * k // parts for k in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _point_task(args):
    return _simulate(*args)


def _pool_size(config: SweepConfig) -> int:
    """Worker processes a sweep uses; 1 means it runs in this process.

    At most ``config.workers`` and one per SNR point (each worker gets a
    contiguous slice of the grid), and no more than give each worker
    ``_POOL_MIN_DRAWS`` point-draws.
    """
    total = config.draws * len(config.snr_db)
    return max(1, min(config.workers, len(config.snr_db), total // _POOL_MIN_DRAWS))


def closed_forms(config: SweepConfig) -> dict:
    """The three closed-form GDoF references for a config, as GdofValues."""
    return {
        "distributed": distributed_gdof(config.topology, config.csit),
        "centralized": genie_outer_bound(config.topology, config.csit),
        "no_csit": centralized_gdof(config.topology, np.zeros((2, 2))),
    }


def sweep(config: SweepConfig) -> SweepCurve:
    """Simulate every (scheme, SNR) point and fit per-scheme slopes.

    A task is the config and a contiguous slice of its grid, covering all
    schemes and all draws.  Without a pool the whole grid is one task.
    With ``config.workers > 1`` and enough draws (see ``_pool_size``),
    the grid is cut into one slice per worker; since draws are keyed by
    chunk alone, the result is identical for any worker count.  Schemes
    whose window holds fewer than two grid points get slope None.
    """
    # First: they validate the instance in this process, before any worker starts.
    gdof = {name: form.value for name, form in closed_forms(config).items()}
    workers = _pool_size(config)
    tasks = [(config, config.snr_db[a:b]) for a, b in _cuts(len(config.snr_db), workers)]
    if workers > 1:
        # imported here: concurrent.futures.process costs about 1.7 MB of
        # RSS and tens of ms of import time, which runs without a pool save
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            slices = list(pool.map(_point_task, tasks))
    else:
        slices = [_point_task(t) for t in tasks]

    # pool.map keeps task order, so the slices join in grid order.
    points = {s: [pt for part in slices for pt in part[s]] for s in config.schemes}
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
    """Least-squares slope of sum rate against log2(P) inside a dB window.

    ``points`` is a sequence of (snr_db, mean_rate) pairs; both window
    edges are inclusive.  Raises InsufficientPoints when fewer than two
    points lie inside, or when they are too close together for a line
    (see ``_line_slope``).
    """
    lo, hi = window_db
    sel = [(snr, y) for snr, y in points if lo <= snr <= hi]
    if len(sel) < 2:
        raise InsufficientPoints(
            f"need >= 2 points inside [{lo}, {hi}] dB, found {len(sel)}"
        )
    x = np.array([snr * _LOG2P_PER_DB for snr, _ in sel])
    return _line_slope(x, np.array([y for _, y in sel]), f"points inside [{lo}, {hi}] dB")


def fit_exponent(samples) -> float:
    """Log-log slope of (P, power) pairs.

    Reliable only when the P values span a couple of decades; raises
    InsufficientPoints below two distinct P values, or when they are too
    close together for a line (see ``_line_slope``).
    """
    pts = [(p, v) for p, v in samples]
    if len({p for p, _ in pts}) < 2:
        raise InsufficientPoints("need >= 2 distinct P values")
    x = np.log([p for p, _ in pts])
    return _line_slope(x, np.log([v for _, v in pts]), "the P values")


def _line_slope(x: np.ndarray, y: np.ndarray, what: str) -> float:
    """Least-squares slope of ``y`` against ``x``; InsufficientPoints, naming
    ``what``, when numpy warns that the fit is poorly conditioned or a
    squared x underflows to 0 and it divides by zero."""
    with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise", over="raise"):
        warnings.simplefilter("error")
        try:
            return float(np.polyfit(x, y, 1)[0])
        except (Warning, FloatingPointError) as exc:
            raise InsufficientPoints(f"{what} are too close together to fit a slope") from exc


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
        kwargs.update(topology=Topology(raw["gamma"]), csit=CsitQuality(raw["alpha"]))
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
