"""The three benchmark workloads: input generation, one run, and its gate.

Each workload writes its input from the seed (outside any timed region),
loads it the way a fresh ``apzf`` process would, runs the job once, and
checks the outputs.  ``load`` is also what the set-up probe times in a
fresh interpreter, so set-up and the measured run share one loader.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

# configs/parallel.json as of the benchmark's introduction, frozen here so
# a later edit of the example config does not silently change the workload.
SWEEP_REF = {
    "gamma": [[1.0, 0.8], [0.8, 1.0]],
    "alpha": [[[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]],
    "schemes": ["apzf", "centralized_zf", "naive_zf", "no_csit"],
    "snr_db": [40.0, 45.0, 50.0, 55.0, 60.0],
    "draws": 2000,
    "window_db": [40.0, 60.0],
    "workers": 1,
}

# Asymmetric case-2 instance with a live below-noise-floor z1 layer
# (closed form 1.3, z1 rate exponent 0.1), so matched() and the pool run.
SWEEP_Z1_POOL = {
    "gamma": [[1.0, 0.6], [0.9, 0.5]],
    "alpha": [[[0.6, 0.4], [0.5, 0.3]], [[0.2, 0.1], [0.1, 0.0]]],
    "schemes": ["apzf", "centralized_zf", "naive_zf", "no_csit"],
    "snr_db": [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0],
    "draws": 1000,
    "window_db": [40.0, 60.0],
    "workers": 2,
}

GDOF_MAP_INSTANCES = 20000

# Largest |slope - closed form| the sweep gate accepts for apzf and
# centralized_zf.  Over seeds 1-11 and 23 the gaps stayed within
# [-0.13, +0.05]; the tolerance leaves about twice that margin.
SLOPE_TOL = 0.25
GATED_SLOPES = {"apzf": "distributed", "centralized_zf": "centralized"}
LAYOUT_TOL = 1e-12


def import_apzf(root: Path):
    """Import the package from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "apzf" / "__init__.py").is_file():
        raise FileNotFoundError(f"no apzf package under {src}")
    sys.path.insert(0, str(src))
    import apzf

    if Path(apzf.__file__).resolve().parent != (src / "apzf").resolve():
        raise ImportError(f"apzf imported from {apzf.__file__}, not {src}")
    return apzf


class SweepWorkload:
    """``apzf sweep`` through ``cli.main``, so parsing and writes are timed."""

    def __init__(self, name, config, workdir: Path, seed: int):
        self.name = name
        self.config = dict(config, seed=seed)
        self.input_path = workdir / f"{name}.config.json"
        self.out_path = workdir / f"{name}.csv"
        self.workers = self.config["workers"]
        self.evals = len(config["schemes"]) * len(config["snr_db"]) * config["draws"]

    def write_input(self):
        self.input_path.write_text(json.dumps(self.config, indent=2) + "\n", encoding="utf-8")

    @staticmethod
    def load(path):
        from apzf.harness import load_config
        from apzf.topology import validate

        config = load_config(path)
        validate(config.topology, config.csit).raise_first()
        return config

    def prepare(self):
        self.load(self.input_path)

    def run(self, workers=None):
        """One sweep; returns its outputs for the gate."""
        import apzf.cli

        argv = ["sweep", "--config", str(self.input_path), "--out", str(self.out_path)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = apzf.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"apzf sweep exited with {code}")
        summary = json.loads(self.out_path.with_suffix(".json").read_text(encoding="utf-8"))
        return {"csv": self.out_path.read_bytes(), "summary": summary}

    def check(self, out):
        """Problems with one run's outputs; empty when the gate passes."""
        problems = []
        rows = out["csv"].decode("utf-8").splitlines()
        expected = 1 + len(self.config["schemes"]) * len(self.config["snr_db"])
        if rows[:1] != ["snr_db,scheme,sum_rate_mean,sum_rate_stderr"] or len(rows) != expected:
            problems.append(f"csv has {len(rows)} lines, expected {expected} with header")
        for row in rows[1:]:
            fields = row.split(",")
            try:
                values = [float(fields[0]), float(fields[2]), float(fields[3])]
            except (IndexError, ValueError):
                problems.append(f"unparsable csv row {row!r}")
                continue
            if len(fields) != 4 or not all(math.isfinite(v) for v in values):
                problems.append(f"bad csv row {row!r}")
        slopes = out["summary"]["slopes"]
        forms = out["summary"]["gdof_closed_form"]
        for scheme, form in GATED_SLOPES.items():
            slope = slopes.get(scheme)
            if slope is None or not abs(slope - forms[form]) <= SLOPE_TOL:
                problems.append(f"{scheme} slope {slope} vs closed form {forms[form]}")
        return problems

    def report(self, out):
        """Correctness figures printed next to the metrics."""
        slopes = out["summary"]["slopes"]
        forms = out["summary"]["gdof_closed_form"]
        fields = {"csv_sha256": hashlib.sha256(out["csv"]).hexdigest()}
        for scheme, form in GATED_SLOPES.items():
            fields[f"slope.{scheme}"] = slopes[scheme]
            fields[f"gap.{scheme}"] = slopes[scheme] - forms[form]
        fields["slope_tol"] = SLOPE_TOL
        return fields

    @staticmethod
    def same_output(a, b):
        return a["csv"] == b["csv"]


def dyadic_instances(seed: int, n: int, grid: int = 1024):
    """``n`` random instances on the 1/grid lattice with a dominant TX.

    Binary-fraction exponents keep the closed-form identities exact in
    float64, so the gate can demand bit equality.
    """
    rng = np.random.default_rng([seed, 7])
    gamma = rng.integers(0, grid + 1, size=(n, 2, 2)) / grid
    hi = rng.integers(0, (gamma * grid).astype(int) + 1) / grid
    lo = rng.integers(0, (hi * grid).astype(int) + 1) / grid
    first_dominates = (rng.random(n) < 0.5)[:, None, None, None]
    alpha = np.where(first_dominates, np.stack([hi, lo], axis=1), np.stack([lo, hi], axis=1))
    return gamma, alpha


class GdofMapWorkload:
    """Closed forms and layouts over a map of random instances."""

    def __init__(self, name, workdir: Path, seed: int, instances: int = GDOF_MAP_INSTANCES):
        self.name = name
        self.seed = seed
        self.n = instances
        self.input_path = workdir / f"{name}.npz"
        self.workers = 1
        self.evals = instances
        self.instances = None

    def write_input(self):
        gamma, alpha = dyadic_instances(self.seed, self.n)
        with open(self.input_path, "wb") as f:
            np.savez(f, gamma=gamma, alpha=alpha)

    @staticmethod
    def load(path):
        from apzf.topology import CsitQuality, Topology, validate

        with np.load(path) as data:
            pairs = [(Topology(g), CsitQuality(a)) for g, a in zip(data["gamma"], data["alpha"])]
        for topo, csit in pairs:
            validate(topo, csit).raise_first()
        return pairs

    def prepare(self):
        self.instances = self.load(self.input_path)

    def run(self, workers=None):
        import apzf.gdof as gdof
        import apzf.topology as topology

        out = []
        for topo, csit in self.instances:
            dist = gdof.distributed_gdof(topo, csit)
            genie = gdof.genie_outer_bound(topo, csit)
            layout = gdof.scheme_layout(topology.canonicalize(topo, csit))
            out.append((dist.value, genie.value, layout))
        return out

    def check(self, out):
        problems = []
        if len(out) != self.n:
            problems.append(f"{len(out)} results for {self.n} instances")
        for i, (dist, genie, layout) in enumerate(out):
            total = layout.rate_total()
            if dist != genie:
                problems.append(f"instance {i}: distributed {dist!r} != genie {genie!r}")
            elif not abs(total - dist) <= LAYOUT_TOL:
                problems.append(f"instance {i}: layout total {total!r} vs closed form {dist!r}")
            if len(problems) >= 5:
                break
        return problems

    def report(self, out):
        values = np.array([(d, g, layout.rate_total()) for d, g, layout in out])
        return {
            "results_sha256": hashlib.sha256(values.tobytes()).hexdigest(),
            "max_layout_gap": float(np.max(np.abs(values[:, 2] - values[:, 0]))),
        }

    @staticmethod
    def same_output(a, b):
        return a == b


WORKLOADS = ("sweep-ref", "sweep-z1-pool", "gdof-map")


def make(name, workdir: Path, seed: int):
    if name == "sweep-ref":
        return SweepWorkload(name, SWEEP_REF, workdir, seed)
    if name == "sweep-z1-pool":
        return SweepWorkload(name, SWEEP_Z1_POOL, workdir, seed)
    if name == "gdof-map":
        return GdofMapWorkload(name, workdir, seed)
    raise ValueError(f"unknown workload {name!r}")
