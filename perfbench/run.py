"""schurlab benchmark: one workload through the public CLI, checked and timed.

Run from the repository root:

    python3 perfbench/run.py --workload norms --seed 1 --seconds 40 --trace 0

The workload's configs come from --seed (see workloads.py).  They run in
this process as a closed loop with one client: each config goes through
``schurlab.cli.main`` with ``--jobs 1`` only after the previous report has
been written.  A pass runs every config once; passes repeat for --seconds
(at least two), and every pass after the first must reproduce the first
pass's reports byte for byte once wall_ms is stripped.

--trace 0 prints the end-to-end metrics: the pass time (each config's
fastest run over the passes, summed; for classify each pass is first
rescaled by the host speed, see REF_NOMINAL_S), the median
fresh-interpreter ``import schurlab.cli`` time and the peak RSS.
--trace 1 also runs one traced pass (spans from spans.py) and prints the
per-layer metrics, the import breakdown from ``-X importtime`` and the
tracing overhead (traced pass minus the median untraced pass).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  BLAS threads are left at their
default; the environment line records the count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_RUNS = 9
IMPORTTIME_RUNS = 3
MIN_PASSES = 2
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Host-speed control for the interpreter-bound classify workload: a fixed
# pure-Python loop that calls no schurlab code, timed before every config.
# On a shared 2-vCPU host the interpreter's speed drifted by up to 1.5x
# over minutes, longer than a run, so no statistic within a run removed it:
# over ten seeds, raw classify pass times (fastest run per config, summed)
# spread 0.21-0.32 (IQR/median) in five sets, and the same ten runs of one
# set spread 0.215 raw and 0.075 rescaled.  Each classify pass is rescaled
# to the loop's uncontended time REF_NOMINAL_S, so wall_s reads as seconds
# at that host speed; run.py also prints the raw figure.  A schurlab change
# cannot slow the loop.  norms (LAPACK) and checks (numpy, FFT) stayed
# within their bound raw and are not rescaled.
REF_LOOPS = 40_000
REF_NOMINAL_S = 0.0025
RESCALED = {"classify"}


def reference_time() -> float:
    t0 = time.perf_counter()
    acc = 0
    for k in range(REF_LOOPS):
        acc += k * k
    return time.perf_counter() - t0


def _import_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Setup:
    """Fresh-interpreter ``import schurlab.cli`` times.

    The host's speed drifts over seconds, so the samples are spread over
    the whole run (``pace`` between passes) rather than taken in a row."""

    def __init__(self, src, seconds):
        self.env = _import_env(src)
        self.seconds = seconds
        self.times = []

    def sample(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import schurlab.cli"], env=self.env, check=True)
        self.times.append(time.perf_counter() - t0)

    def pace(self, elapsed):
        """Take samples until their share of SETUP_RUNS matches the share
        of the run that has ``elapsed``."""
        due = SETUP_RUNS * min(1.0, elapsed / self.seconds) if self.seconds > 0 else 0
        while len(self.times) < due:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self.sample()
        return statistics.median(self.times)


def measure_imports(src, runs=IMPORTTIME_RUNS) -> dict:
    """import.* metrics from ``-X importtime``: self times summed over all
    modules, over scipy.*, numpy.* and schurlab.*; median of ``runs``."""
    env = _import_env(src)
    rows = {"import.total_s": [], "import.scipy_s": [], "import.numpy_s": [],
            "import.schurlab_self_s": []}
    prefixes = {"import.scipy_s": "scipy", "import.numpy_s": "numpy",
                "import.schurlab_self_s": "schurlab"}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import schurlab.cli"],
            env=env, check=True, capture_output=True, text=True,
        )
        sums = dict.fromkeys(rows, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            module = name.strip()
            sums["import.total_s"] += int(self_us) / 1e6
            for key, pre in prefixes.items():
                if module == pre or module.startswith(pre + "."):
                    sums[key] += int(self_us) / 1e6
        for key in rows:
            rows[key].append(sums[key])
    return {key: statistics.median(v) for key, v in rows.items()}


def environment() -> dict:
    import ctypes
    from importlib import metadata

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # numpy and scipy may each load their own OpenBLAS; record every one
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                threads[os.path.basename(path)] = int(getattr(lib, fn)())
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Runner:
    """Runs passes over a workload's jobs and checks every report."""

    def __init__(self, cli, jobs, work_dir, rescale=False):
        self.cli = cli
        self.jobs = jobs
        self.rescale = rescale
        self.speed = []  # per pass: REF_NOMINAL_S / median reference time
        self.first = {}  # job name -> stripped report of the first pass
        self.attempted = 0
        self.failures = []
        self.shortfall = 0.0
        self.argv = {}
        self.job_times = {job.name: [] for job in jobs}
        for job in jobs:
            cfg = os.path.join(work_dir, job.name + ".config.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(job.config, fh)
            out = os.path.join(work_dir, job.name + ".report." + job.fmt)
            self.argv[job.name] = (["--config", cfg, "--out", out, "--format", job.fmt,
                                    "--jobs", "1"], out)

    def run_pass(self, tracer=None) -> float:
        """One closed-loop pass; returns its wall time in seconds and
        records each config's time in ``job_times``."""
        codes = {}
        refs = []
        t0 = time.perf_counter()
        for job in self.jobs:
            if tracer is not None:
                tracer.job = job
            if self.rescale:
                refs.append(reference_time())
            argv, _ = self.argv[job.name]
            t_job = time.perf_counter()
            try:
                codes[job.name] = self.cli.main(argv)
            except Exception as exc:  # a traceback is a failed config, not a crash
                codes[job.name] = f"{type(exc).__name__}: {exc}"
            self.job_times[job.name].append(time.perf_counter() - t_job)
        wall = time.perf_counter() - t0 - sum(refs)
        self.speed.append(REF_NOMINAL_S / statistics.median(refs) if refs else 1.0)
        for job in self.jobs:
            self._check(job, codes[job.name])
        return wall

    def _check(self, job, code):
        self.attempted += 1
        _, out = self.argv[job.name]
        if code != 0:
            self.failures.append(f"{job.name}: exit {code}")
            return
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        os.unlink(out)
        try:
            errs = job.check(text)
        except (KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
            errs = [f"unreadable report: {type(exc).__name__}: {exc}"]
        stripped = workloads.strip_timing(text)
        if job.name not in self.first:
            self.first[job.name] = stripped
        elif stripped != self.first[job.name]:
            errs.append("report differs from the first pass")
        if job.oracle is not None:
            # a row that failed its checks still counts towards the shortfall
            try:
                lower_bound = float(json.loads(text)["schur_lb"])
            except (KeyError, ValueError, TypeError):
                pass
            else:
                self.shortfall = max(self.shortfall,
                                     workloads.shortfall(lower_bound, job.oracle))
        if errs:
            self.failures.append(f"{job.name}: {'; '.join(errs)}")

    def run_for(self, seconds, between=None) -> list:
        """Passes until the next one would end past ``seconds``; at least
        MIN_PASSES.  ``between``, if given, is called after each pass with
        the time elapsed.  Returns the pass wall times."""
        walls = []
        start = time.perf_counter()
        while len(walls) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(walls) <= seconds
        ):
            walls.append(self.run_pass())
            if between is not None:
                between(time.perf_counter() - start)
        return walls

    def pass_time(self, rescaled=True) -> float:
        """Time of one pass: each config's fastest run, summed, after
        rescaling each pass by its host speed when ``rescale`` is set.

        Slow phases of the host (seconds to tens of seconds) slow whole
        passes; taking each config's minimum over passes keeps them out
        of the figure."""
        speed = self.speed if rescaled else [1.0] * len(self.speed)
        return sum(min(t * f for t, f in zip(times, speed))
                   for times in self.job_times.values())


def measure(runner, src, seconds, trace, spans_path=None):
    """Run the passes and return (metrics, units, pass wall times).

    trace 0 gives the end-to-end metrics; trace 1 adds one traced pass and
    gives the per-layer metrics."""
    if not trace:
        setup = Setup(src, seconds)
        walls = runner.run_for(seconds, setup.pace)
        metrics = {
            "wall_s": runner.pass_time(),
            "setup_s": setup.median(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return metrics, UNITS, walls

    from spans import Tracer, layer_metrics, unit_of

    walls = runner.run_for(seconds)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    if spans_path:
        tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans)
    metrics.update(measure_imports(src))
    metrics["trace.overhead_s"] = traced - statistics.median(walls)
    metrics["fail_ratio"] = len(runner.failures) / runner.attempted
    metrics["bound_shortfall"] = runner.shortfall
    return metrics, {name: unit_of(name) for name in metrics}, walls


def load_cli(root):
    """Import schurlab.cli from ``root``/src, or return None if that tree
    holds no schurlab sources."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "schurlab", "cli.py")):
        return None
    sys.path.insert(0, src)
    from schurlab import cli

    return cli if os.path.abspath(cli.__file__).startswith(src + os.sep) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    cli = load_cli(root)
    if cli is None:
        print(f"error: no schurlab sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)

    out_dir = os.path.join(HERE, "_out")
    work_dir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        runner = Runner(cli, workloads.WORKLOADS[args.workload](args.seed), work_dir,
                        rescale=args.workload in RESCALED)
        metrics, units, walls = measure(
            runner, os.path.join(root, "src"), args.seconds, args.trace,
            os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"),
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for failure in runner.failures:
        print("FAIL " + failure, flush=True)
    print(f"passes {len(walls)}: " + " ".join(f"{w:.4f}" for w in walls) + " s", flush=True)
    if runner.rescale:
        print("host speed " + " ".join(f"{f:.3f}" for f in runner.speed)
              + f"; pass time not rescaled {runner.pass_time(rescaled=False):.4f} s", flush=True)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
