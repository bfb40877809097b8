"""Monte Carlo sum-rate sweeps, slope fitting, and result serialization.

Each (SNR point, draw index) pair gets its own RNG substream derived
from the config seed, so results are independent of evaluation order and
of how points are distributed across worker processes.  One kernel call
per SNR point draws every substream once and evaluates all schemes on
those draws as array operations, so all schemes see the same fading
draws (common random numbers).
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import reprlib
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import NORMALS_PER_DRAW, sample_channel, sample_csit
from .gdof import centralized_gdof, distributed_gdof, genie_outer_bound
from .scheme import SchemeKind, achievable_rates, build_layers, plan_layout
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

# Draws per block of the per-point kernel: large enough that numpy's
# per-call overhead is spread thin, small enough that a block's arrays
# stay at a few MB whatever the configured draw count.
_BLOCK_DRAWS = 4096

# Fewest draws a worker process must get before a sweep forks one.  Each
# forked worker holds its own copy of the parent's pages (about 30 MB),
# and on a small sweep the few tenths of a second it saves are no larger
# than the run-to-run spread that scheduling the workers adds.  About
# half a second of kernel work per worker.
_POOL_MIN_DRAWS = 20_000

# log2(P) advances by this much per dB of SNR.
_LOG2P_PER_DB = math.log2(10.0) / 10.0


class ConfigError(ValueError):
    """Malformed or incomplete sweep configuration."""


class InsufficientPoints(ValueError):
    """Not enough points to fit a slope."""


def _snr_key(snr_db: float) -> int:
    """The SNR's part of a substream key: the SNR in milli-dB."""
    return int(round(snr_db * 1000.0)) % (2**31)


def _snr_power(snr_db: float) -> float:
    """P = 10**(snr_db / 10); ConfigError unless it is a finite normal float."""
    try:
        p = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        p = math.inf
    if not sys.float_info.min <= p < math.inf:
        raise ConfigError(f"snr_db {snr_db!r} does not give a finite normal P = 10**(snr_db/10)")
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
        if len({_snr_key(s) for s in self.snr_db}) < len(self.snr_db):
            raise ConfigError("snr_db points closer than 0.5 milli-dB would share draws")
        self.draws = _integer("draws", self.draws)
        self.seed = _integer("seed", self.seed)
        self.workers = _integer("workers", self.workers)
        if self.draws < 1:
            raise ConfigError("draws must be >= 1")
        if self.draws > 2**32:
            # _pcg64_states takes the draw index as one uint32 entropy word
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


def _substream(seed: int, snr_db: float, draw: int) -> np.random.Generator:
    """The generator of draw ``draw`` at one SNR point: the substream contract."""
    return np.random.default_rng([seed, _snr_key(snr_db), draw])


# numpy's SeedSequence hashing constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 2**32 - 1
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1


def _uint32_words(n: int) -> list:
    """A non-negative int as little-endian uint32 words, as SeedSequence splits it."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _pcg64_states(seed: int, snr_key: int, block: range) -> list:
    """``(state, inc)`` of ``default_rng([seed, snr_key, d]).bit_generator`` per d in block.

    Runs SeedSequence's entropy mixing and ``generate_state(4, uint64)``
    as wrap-around uint32 array ops over the draw axis (the seed and key
    words are the same for every draw; the draw index is one word, so
    ``block.stop <= 2**32``), then PCG64's seeding step on Python ints.
    """
    n = len(block)
    words = [np.full(n, w, dtype=np.uint32) for w in _uint32_words(seed) + _uint32_words(snr_key)]
    words.append(np.arange(block.start, block.stop, dtype=np.uint64).astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        r = x * _MIX_MULT_L - y * _MIX_MULT_R
        return r ^ (r >> _XSHIFT)

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):  # generate_state(4, uint64) draws 8 uint32 words
        v = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        v = v * hash_const
        state.append((v ^ (v >> _XSHIFT)).astype(np.uint64))
    # little-endian pairs of uint32 words make the 4 uint64 words w0..w3
    w = [(state[2 * j] | state[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)]
    out = []
    for w0, w1, w2, w3 in zip(*w):
        # pcg64_set_seed: inc = 2*initseq + 1, state = ((inc + s)*M + inc)
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        out.append((((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128, inc))
    return out


def _block_normals(seed: int, snr_key: int, block: range) -> np.ndarray:
    """(len(block), NORMALS_PER_DRAW) normals; row i comes from draw block[i]'s substream.

    Row i equals ``standard_normal(NORMALS_PER_DRAW)`` of that draw's
    ``_substream`` bit for bit.  One generator is reseeded per draw with
    its precomputed PCG64 state, which skips SeedSequence's per-draw
    construction cost.
    """
    z = np.empty((len(block), NORMALS_PER_DRAW))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for row, (state, inc) in zip(z, _pcg64_states(seed, snr_key, block)):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=row)
    return z


def simulate_snr(config: SweepConfig, snr_db: float) -> dict:
    """Every config scheme at one SNR point, all on the same draws.

    Draw d at this point always uses the substream (seed, snr, d),
    whichever draws and schemes run with it.  Draws are evaluated in
    blocks of at most ``_BLOCK_DRAWS``, which bounds the memory of the
    channel and layer arrays; the per-draw sums take 8 bytes per draw
    per scheme.  Returns ``{scheme: PointStats}``.
    """
    p = _snr_power(snr_db)
    key = _snr_key(snr_db)
    canon = canonicalize(config.topology, config.csit)
    layouts = {s: plan_layout(canon, s) for s in config.schemes}
    sums = {s: np.empty(config.draws) for s in config.schemes}
    backed_off = dict.fromkeys(config.schemes, 0)
    for start in range(0, config.draws, _BLOCK_DRAWS):
        block = range(start, min(start + _BLOCK_DRAWS, config.draws))
        z = _block_normals(config.seed, key, block)
        h = sample_channel(canon.topology, p, z)
        h_hat = sample_csit(h, canon.topology, canon.csit, p, z)
        for s in config.schemes:
            layers, mask = build_layers(canon, h_hat, layouts[s], s, p)
            r0, r1, r2, rz = achievable_rates(h, layers)
            sums[s][block.start : block.stop] = r0 + r1 + r2 + rz
            backed_off[s] += int(mask.sum())
    out = {}
    for s in config.schemes:
        mean = float(sums[s].mean())
        stderr = float(sums[s].std(ddof=1) / math.sqrt(config.draws)) if config.draws > 1 else 0.0
        out[s] = PointStats(mean, stderr, backed_off[s] / config.draws)
    return out


def _point_task(args):
    config, snr = args
    return simulate_snr(config, snr)


def _pool_size(config: SweepConfig) -> int:
    """Worker processes a sweep uses; 1 means it runs in this process.

    At most ``config.workers`` and one per SNR point, and no more than
    give each worker ``_POOL_MIN_DRAWS`` draws.
    """
    total = config.draws * len(config.snr_db)
    return max(1, min(config.workers, len(config.snr_db), total // _POOL_MIN_DRAWS))


def closed_forms(config: SweepConfig) -> dict:
    """The three closed-form GDoF references for a config."""
    return {
        "distributed": distributed_gdof(config.topology, config.csit).value,
        "centralized": genie_outer_bound(config.topology, config.csit).value,
        "no_csit": centralized_gdof(config.topology, np.zeros((2, 2))).value,
    }


def sweep(config: SweepConfig) -> SweepCurve:
    """Simulate every (scheme, SNR) point and fit per-scheme slopes.

    With ``config.workers > 1`` and enough draws (see ``_pool_size``),
    SNR points are farmed out to processes, one task per point covering
    all schemes; the per-draw substreams make the result identical for
    any worker count.  Schemes whose window holds fewer than two grid
    points get slope None.
    """
    tasks = [(config, snr) for snr in config.snr_db]
    workers = _pool_size(config)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_point_task, tasks))
    else:
        results = [_point_task(t) for t in tasks]

    # pool.map keeps task order, so results[i] is the point at snr_db[i].
    points = {s: [stats[s] for stats in results] for s in config.schemes}
    slopes = {}
    for s, pts in points.items():
        try:
            slopes[s] = estimate_slope(
                [(snr, pt.mean) for snr, pt in zip(config.snr_db, pts)], config.window_db
            )
        except InsufficientPoints:
            slopes[s] = None
    return SweepCurve(config.snr_db, points, slopes, closed_forms(config))


def estimate_slope(points, window_db) -> float:
    """Least-squares slope of sum rate against log2(P) inside a dB window.

    ``points`` is a sequence of (snr_db, mean_rate) pairs; both window
    edges are inclusive.
    """
    lo, hi = window_db
    sel = [(snr, y) for snr, y in points if lo <= snr <= hi]
    if len(sel) < 2:
        raise InsufficientPoints(
            f"need >= 2 points inside [{lo}, {hi}] dB, found {len(sel)}"
        )
    x = np.array([snr * _LOG2P_PER_DB for snr, _ in sel])
    y = np.array([y for _, y in sel])
    return float(np.polyfit(x, y, 1)[0])


def fit_exponent(samples) -> float:
    """Log-log slope of (P, power) pairs.

    Reliable only when the P values span a couple of decades; raises
    InsufficientPoints below two distinct P values.
    """
    pts = [(p, v) for p, v in samples]
    if len({p for p, _ in pts}) < 2:
        raise InsufficientPoints("need >= 2 distinct P values")
    x = np.log([p for p, _ in pts])
    y = np.log([v for _, v in pts])
    return float(np.polyfit(x, y, 1)[0])


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
