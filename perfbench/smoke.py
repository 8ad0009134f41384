"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke.py

It runs a shortened pass of each workload (its cheapest configs) in both
trace modes and asserts that every metric BENCHMARK.json names is emitted
with its unit.  It then feeds tampered reports to the checks: a flipped
verdict, an oracle row moved by 1%, a broken criterion-4 gate and a second
pass that differs from the first must each count as a failure, and the row
moved down by 1% must read as a bound_shortfall of 0.01.  Exits
non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

# cheap configs per workload, enough to reach every traced layer it uses
SHORT = {
    "norms": ("norms.triangular.p4", "norms.transfer.N64"),
    "classify": ("classify.r0.01.ball.2.1.0", "classify.r0.09.sphere_delta.2.0.3",
                 "classify.r0.expr0", "classify.r0.z0.ball.2"),
    "checks": ("checks.groupcheck.sl2r.sgn_c", "checks.squarefn.plancherel",
               "checks.transfer.N16.p4"),
}


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def short_runner(cli, workload, work_dir):
    jobs = [j for j in workloads.WORKLOADS[workload](1) if j.name in SHORT[workload]]
    check(len(jobs) == len(SHORT[workload]), f"{workload}: a short job is missing")
    return run.Runner(cli, jobs, work_dir, rescale=workload in run.RESCALED)


def assert_metrics(bench, root, cli, work_dir):
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in workloads.WORKLOADS:
        check(workload in {w["name"] for w in bench["workloads"]},
              f"{workload} missing from BENCHMARK.json")
        for trace in (0, 1):
            runner = short_runner(cli, workload, work_dir)
            metrics, units, walls = run.measure(runner, os.path.join(root, "src"), 0, trace)
            check(not runner.failures, f"{workload}: {runner.failures}")
            check(len(walls) >= run.MIN_PASSES, f"{workload}: {len(walls)} passes")
            check(set(metrics) == set(expected[trace]),
                  f"{workload} trace {trace}: emitted {sorted(set(metrics) ^ set(expected[trace]))}"
                  " differ from BENCHMARK.json")
            for name, unit in expected[trace].items():
                check(units[name] == unit, f"{name}: unit {units[name]} != {unit}")
                check(isinstance(metrics[name], (int, float)), f"{name} is not a number")
            print(f"ok  {workload} trace {trace}: {len(metrics)} metrics, {len(walls)} passes")


def tampered(runner, job, edit):
    """Run one pass for the reference reports, rerun ``job`` as a second
    pass would, edit its report and check it; return the failures."""
    runner.run_pass()
    check(not runner.failures, f"{job.name}: {runner.failures}")
    argv, out = runner.argv[job.name]
    check(runner.cli.main(argv) == 0, f"{job.name} failed to run")
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(edit(text))
    runner._check(job, 0)
    return runner.failures


def assert_tampering_counts(cli, work_dir):
    def job_named(workload, name):
        return next(j for j in workloads.WORKLOADS[workload](1) if j.name == name)

    # (workload, job, what, edit, the reason the check must give)
    cases = [
        ("classify", "classify.r0.09.sphere_delta.2.0.3", "flipped verdict",
         lambda t: t.replace('"CURVATURE_FAIL"', '"TRIANGULAR_MODEL"'), "verdict is"),
        ("checks", "checks.groupcheck.sl2r.sgn_c", "flipped group verdict",
         lambda t: t.replace('"PASS"', '"FAIL"'), "verdict is"),
        ("norms", "norms.transfer.N64", "oracle row moved down by 1%",
         lambda t: _scale_field(t, "schur_lb", 0.99), "short of exact"),
        ("norms", "norms.transfer.N64", "oracle row moved up by 1%",
         lambda t: _scale_field(t, "schur_lb", 1.01), "exceeds exact"),
        ("norms", "norms.triangular.p4", "p=4 plateau broken",
         lambda t: _scale_last_csv_bound(t, 1.5), "no p=4 plateau"),
        ("checks", "checks.squarefn.plancherel", "Plancherel case fails",
         lambda t: t.replace('"pass": true', '"pass": false'), "expected a pass"),
        ("classify", "classify.r0.expr0", "second pass differs from the first",
         lambda t: re.sub(r'"sections_used": (\d+)',
                          lambda m: f'"sections_used": {int(m.group(1)) + 1}', t),
         "differs from the first pass"),
    ]
    runners = {}
    for workload, name, what, edit, reason in cases:
        job = job_named(workload, name)
        runner = runners[what] = run.Runner(cli, [job], work_dir)
        failures = tampered(runner, job, edit)
        check(len(failures) == 1 and reason in failures[0], f"{what}: counted {failures}")
        print(f"ok  {what}: {failures[0]}")
    # the failed row still sets bound_shortfall
    shortfall = runners["oracle row moved down by 1%"].shortfall
    check(abs(shortfall - 0.01) < 1e-4, f"bound_shortfall {shortfall} for a row 1% short")
    print(f"ok  bound_shortfall of the row 1% short: {shortfall:.6f}")


def _scale_field(text, key, factor):
    report = json.loads(text)
    report[key] *= factor
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _scale_last_csv_bound(text, factor):
    lines = text.strip().split("\n")
    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) * factor)
    lines[-1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    cli = run.load_cli(root)
    check(cli is not None, "run from the repository root")
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(HERE, "_out"))
    try:
        assert_metrics(bench, root, cli, work_dir)
        assert_tampering_counts(cli, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
