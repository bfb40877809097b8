"""Benchmark for apzf: end-to-end metrics, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload sweep-ref --seed 23 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Prints human-readable lines, then one JSON result as the last line.
With ``--trace 0`` the metrics are the end-to-end ones (timed without
any instrumentation); with ``--trace 1`` they are the per-layer ones
from a separate traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_run"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402

SETUP_PROBES = 2  # fresh-interpreter set-up probes before each repeat
MIN_REPS = 3
RSS_POLL_S = 0.25
TICK_S = 0.2  # a calibration slice runs every TICK_S of a repeat
SLICE_ITERS = 600
# A typical calibration slice on the reference machine (2-core Intel Xeon
# at 2.1 GHz, Python 3.11.7, numpy 2.4.6); see MachineSpeed.
SLICE_REF_S = 0.006
SCHEMES = ("apzf", "centralized_zf", "naive_zf", "no_csit")
PRECODERS = ("apzf", "centralized_zf", "naive_zf", "multicast", "matched")
GDOF_FUNCS = ("distributed_gdof", "genie_outer_bound", "scheme_layout", "centralized_gdof")
TOPOLOGY_FUNCS = ("validate", "canonicalize", "effective_alphas")
# Layers reported as <name>.calls and <name>.self_us (mean per call).
CALLS_AND_SELF = (
    ("harness.substream", "channel.sample_channel", "channel.sample_csit")
    + tuple(f"precoders.{n}" for n in PRECODERS)
    + tuple(f"gdof.{n}" for n in GDOF_FUNCS)
    + tuple(f"topology.{n}" for n in TOPOLOGY_FUNCS)
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, default=23, help="workload seed (23 is the ROADMAP's)")
    p.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def environment(seed, workers):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=False,
            )
            sha = done.stdout.strip() or None
        except OSError:
            pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "workers": workers,
        "seed": seed,
    }


def time_setup(wl):
    """Wall time of a fresh interpreter importing apzf and loading the input."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
        f"workloads.{type(wl).__name__}.load(sys.argv[3])"
    )
    argv = [sys.executable, "-c", code, str(ROOT / "src"), str(BENCH_DIR), str(wl.input_path)]
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _child_pids(pid):
    kids = []
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                with open(f"/proc/{entry.name}/stat", "rb") as f:
                    stat = f.read()
            except OSError:
                continue
            if int(stat[stat.rindex(b")") + 2:].split()[1]) == pid:
                kids.append(entry.name)
    return kids


def _hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ChildRss:
    """Peak summed VmHWM of this process's live children, polled in a thread.

    Pool workers keep a near-flat footprint once started, so polling
    their high-water marks every RSS_POLL_S misses little.
    """

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self):
        me = os.getpid()
        while not self._stop.wait(RSS_POLL_S):
            total = sum(_hwm_kb(pid) for pid in _child_pids(me))
            self.peak_kb = max(self.peak_kb, total)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def calibration_slice():
    """Fixed Python and small-array numpy work; returns its CPU time.

    CPU time of this thread, so a slice that shares the cores with pool
    workers is not charged for waiting its turn.  The collector is off
    during the slice, so its time does not depend on how many objects
    the interrupted program holds.
    """
    import numpy as np

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        rng = np.random.default_rng(0)
        acc = 0.0
        for _ in range(SLICE_ITERS):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            acc += float(np.abs(h @ h.conj().T).sum())
        return time.thread_time() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


class MachineSpeed:
    """Times a calibration slice every TICK_S while a repeat runs.

    On a shared host the speed at which this machine runs the same code
    drifts by 15-40% over tens of seconds.  The slices share no code with
    apzf and are interleaved with the repeat on a timer signal, so their
    median time tracks the speed the repeat ran at; dividing by it gives
    throughput at the reference machine speed.  The slices take about 4%
    of every repeat, on every workload alike.
    """

    def __init__(self):
        self.slices = []

    def _tick(self, signum, frame):
        self.slices.append(calibration_slice())

    def slowdown(self):
        return statistics.median(self.slices) / SLICE_REF_S

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.slices:
            self.slices.append(calibration_slice())


class Runs:
    """Outcome of the repeated runs of one workload."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.walls = []
        self.first = None
        self.problems = []

    def once(self, workers=None):
        """One timed run plus its gate; returns its wall seconds, or None if it failed."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = self.wl.run(workers)
            wall = time.perf_counter() - t0
        except Exception as exc:  # a run that raises counts as failed
            self.failed += 1
            self.problems.append(f"run raised {type(exc).__name__}: {exc}")
            return None
        problems = self.wl.check(out)
        if self.first is None:
            self.first = out
        elif not self.wl.same_output(self.first, out):
            problems.append("output differs from the first run with the same seed")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        self.walls.append(wall)
        return wall


def measure(wl, seconds):
    """Untraced end-to-end metrics over repeated runs for ``seconds``.

    Set-up probes run before every repeat, so their median spans the
    whole run like the repeats' does.  ``evals_per_s`` is the median over
    repeats of throughput at the reference machine speed (MachineSpeed).
    Returns the runs, the metrics, and the raw figures behind them.
    """
    wl.prepare()
    runs = Runs(wl)
    setup = []
    scaled = []
    slowdowns = []
    peak_children_kb = 0
    start = time.perf_counter()
    while True:
        setup += [time_setup(wl) for _ in range(SETUP_PROBES)]
        with ChildRss() as kids, MachineSpeed() as speed:
            wall = runs.once()
        peak_children_kb = max(peak_children_kb, kids.peak_kb)
        if wall is not None:
            slowdowns.append(speed.slowdown())
            scaled.append(wall / slowdowns[-1])
        elapsed = time.perf_counter() - start
        if runs.attempted >= MIN_REPS and elapsed * (runs.attempted + 1) / runs.attempted > seconds:
            break
    if not scaled:
        return runs, {}, {}
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "evals_per_s": (wl.evals / statistics.median(scaled), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": ((self_kb + peak_children_kb) / 1024.0, "MB"),
    }
    raw = {
        "evals_per_s_raw": wl.evals / statistics.median(runs.walls),
        "machine_slowdown": statistics.median(slowdowns),
    }
    return runs, metrics, raw


def _scheme_point(args, kwargs):
    scheme = args[1] if len(args) > 1 else kwargs.get("scheme_kind")
    scheme = str(getattr(scheme, "value", scheme))
    snr = args[2] if len(args) > 2 else kwargs.get("snr_db")
    return f"{scheme}@{snr:g}", scheme


def install_tracer(tracer, workload_workers):
    """Wrap each layer's entry points; returns the counters the hooks fill."""
    import pickle

    import apzf.channel as channel
    import apzf.cli  # noqa: F401  (loaded first so its imported names get wrapped too)
    import apzf.gdof as gdof
    import apzf.harness as harness
    import apzf.precoders as precoders
    import apzf.scheme as scheme
    import apzf.topology as topology

    hooks = {"backoff": {}, "csv_bytes": 0, "task_bytes": 0, "tasks": 0}
    per_tx_power = getattr(scheme, "per_tx_power", None)

    def on_plan(args, kwargs, plan):
        if per_tx_power is not None and max(per_tx_power(plan)) >= plan.p * (1.0 - 1e-12):
            group = tracer._group
            hooks["backoff"][group] = hooks["backoff"].get(group, 0) + 1

    def on_csv(args, kwargs, result):
        hooks["csv_bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    def on_task(args, kwargs, result):
        # Run in-process here; count what the configured pool would be sent.
        if workload_workers > 1:
            hooks["tasks"] += 1
            hooks["task_bytes"] = len(pickle.dumps(args[0]))

    tracer.wrap(harness, "_substream", "harness.substream")
    tracer.wrap(harness, "simulate_point", "harness.simulate_point", point_of=_scheme_point)
    tracer.wrap(harness, "estimate_slope", "harness.estimate_slope")
    tracer.wrap(harness, "write_csv", "harness.write_csv", on_return=on_csv)
    tracer.wrap(harness, "_point_task", "harness.point_task", on_return=on_task)
    for name in ("sample_channel", "sample_csit"):
        tracer.wrap(channel, name, f"channel.{name}")
    for name in PRECODERS:
        tracer.wrap(precoders, name, f"precoders.{name}")
    tracer.wrap(scheme, "build_plan", "scheme.build_plan", on_return=on_plan)
    tracer.wrap(scheme, "achievable_rates", "scheme.achievable_rates")
    tracer.wrap(scheme, "plan_layout", "scheme.plan_layout")
    for name in GDOF_FUNCS:
        tracer.wrap(gdof, name, f"gdof.{name}")
    for name in TOPOLOGY_FUNCS:
        tracer.wrap(topology, name, f"topology.{name}")
    return hooks


def layer_metrics(tracer, hooks, reps, overhead):
    """Per-layer metrics, per traced run, as {name: (value, unit)}."""
    m = {}

    def per_call_us(calls, ns):
        return ns / calls / 1e3 if calls else 0.0

    for name in CALLS_AND_SELF:
        calls, ns = tracer.stats(name)
        m[f"{name}.calls"] = (calls / reps, "count")
        m[f"{name}.self_us"] = (per_call_us(calls, ns), "us")
    for name in ("simulate_point", "estimate_slope", "write_csv"):
        m[f"harness.{name}.self_s"] = (tracer.stats(f"harness.{name}")[1] / 1e9 / reps, "s")
    m["harness.write_csv.bytes"] = (hooks["csv_bytes"] / reps, "B")
    m["harness.sweep.pool_tasks"] = (hooks["tasks"] / reps, "count")
    m["harness.sweep.task_bytes"] = (hooks["task_bytes"], "B")
    for s in SCHEMES:
        for name in ("build_plan", "achievable_rates"):
            m[f"scheme.{name}.self_us.{s}"] = (
                per_call_us(*tracer.stats(f"scheme.{name}", s)), "us")
    m["scheme.plan_layout.calls"] = (tracer.stats("scheme.plan_layout")[0] / reps, "count")
    for s in SCHEMES:
        plans = tracer.stats("scheme.build_plan", s)[0]
        m[f"scheme.backoff_frac.{s}"] = (hooks["backoff"].get(s, 0) / plans if plans else 0.0, "frac")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


def measure_traced(wl, seconds):
    """Pairs of untraced and traced runs at one worker, for ``seconds``.

    Both runs of a pair go through the same gate, and each must reproduce
    the first run's output byte for byte.
    """
    from tracer import Tracer

    wl.prepare()
    runs = Runs(wl)
    tracer = Tracer()
    hooks = install_tracer(tracer, wl.workers)
    tracer.disable()
    overheads = []
    traced_reps = 0
    start = time.perf_counter()
    while True:
        plain = runs.once(workers=1)
        tracer.spans = []
        tracer.enable()
        try:
            traced = runs.once(workers=1)
        finally:
            tracer.disable()
        traced_reps += 1
        if plain is not None and traced is not None:
            overheads.append(traced / plain - 1.0)
        elapsed = time.perf_counter() - start
        if elapsed * (traced_reps + 1) / traced_reps > seconds:
            break
    tracer.write_spans(WORK_DIR / f"{wl.name}.spans.csv")
    overhead = statistics.median(overheads) if overheads else 0.0
    return runs, layer_metrics(tracer, hooks, traced_reps, overhead), tracer.absent


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    try:
        workloads.import_apzf(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, WORK_DIR, args.seed)
    wl.write_input()
    env = environment(args.seed, 1 if args.trace else wl.workers)
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        runs, metrics, absent = measure_traced(wl, args.seconds)
        if absent:
            print("absent (reported as zero calls): " + ", ".join(absent))
    else:
        runs, metrics, raw = measure(wl, args.seconds)
        if raw:
            print("raw " + json.dumps(raw, sort_keys=True))
    ok = runs.failed == 0 and runs.first is not None
    if runs.first is not None:
        print("gate " + json.dumps(wl.report(runs.first), sort_keys=True))
    for problem in runs.problems[:10]:
        print(f"FAIL {problem}")
    print(f"failed_frac {runs.failed / runs.attempted:g} ({runs.failed}/{runs.attempted} runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not metrics:
        print("perfbench: no run succeeded, nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": ok,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
