"""Benchmark driver for superrotor.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rate-cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Load model: a closed loop with one client.  This process runs ops back to
back; every op spawns fresh child processes (perfbench/child.py), one per
job, so each job pays interpreter and import start-up the way a user's CLI
call or demo does.  Children run the program's defaults (SUPERROTOR_THREADS
is never set) with BLAS/OpenMP pinned to BLAS_THREADS threads.

The seed picks each op's input from the workload's family (workloads.py).
Ops start until --seconds have passed; every op's outputs are checked, and a
failed check counts the op as failed without stopping the run.  With
--trace 0 the last stdout line carries the end-to-end metrics; with --trace 1
every other op is traced and it carries the per-layer metrics named in
BENCHMARK.json.  Exits non-zero without a result when the program is absent
or cannot start.
"""

import argparse
import importlib.metadata
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from spans import LayerSummary
from workloads import WORKLOADS, check_op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = "1"
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The program could not be run at all; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.pop("SUPERROTOR_THREADS", None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def run_child(job, path, env):
    """Run one job in a fresh child; return (setup seconds, result, errors)."""
    path.write_text(json.dumps(job))
    out, err = path.with_suffix(".out"), path.with_suffix(".err")
    with open(out, "w") as fout, open(err, "w") as ferr:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(path)],
            cwd=path.parent, env=env, stdout=fout, stderr=ferr,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code is None:
        return None, None, ["%s timed out after %d s" % (path.name, CHILD_TIMEOUT_S)]
    errors = []
    if code != 0:
        tail = err.read_text().strip().splitlines()[-1:]
        errors.append("%s exited %d: %s" % (path.name, code, " ".join(tail)))
    for stream in (out, err):
        errors.extend(
            "%s: %s" % (path.name, line)
            for line in stream.read_text().splitlines() if line.startswith("flag:")
        )
    result_path = path.with_suffix(".result.json")
    if not result_path.exists():
        return None, None, errors or ["%s wrote no result" % path.name]
    result = json.loads(result_path.read_text())
    return result["t_main"] - spawn, result, errors


def run_op(workload, variant, opdir, env, op_id, traced):
    """One op: its children back to back, then the output checks."""
    opdir.mkdir(parents=True)
    op = {"variant": variant, "traced": traced, "setups": [], "rss_kb": [], "dumps": []}
    errors = []
    start = time.monotonic()
    for k, job in enumerate(workload.jobs(variant, opdir)):
        job = dict(job, op=op_id, trace=traced)
        setup, result, errs = run_child(job, opdir / ("job%d.json" % k), env)
        errors.extend(errs)
        if result is None:
            break
        op["setups"].append(setup)
        op["rss_kb"].append(result["maxrss_kb"])
        if traced:
            op["dumps"].append(result["trace"])
    op["wall_s"] = time.monotonic() - start
    if not errors:
        try:
            errors = check_op(workload, variant, opdir)
        except Exception as exc:  # a malformed output fails the op, not the run
            errors = ["output check raised %s: %s" % (type(exc).__name__, exc)]
    op["errors"] = errors
    shutil.rmtree(opdir)
    return op


def measure_setup(workdir, env):
    """Start-up samples from children that stop at the entry of cli.main.

    The first child after a checkout compiles bytecode, which users pay
    once, not on every run, so it is discarded.
    """
    samples = []
    for i in range(SETUP_PROBES + 1):
        setup, _result, errors = run_child({"op": -1, "trace": False}, workdir / ("probe%d.json" % i), env)
        if errors:
            raise BenchError("program does not start: %s" % "; ".join(errors))
        if i:
            samples.append(setup)
    return samples


def run_workload(workload, seed, seconds, trace, metric_names):
    workdir = WORK / ("%s-%d" % (workload.name, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    try:
        setups = measure_setup(workdir, env)
        rng = random.Random("%s:%d" % (workload.name, seed))
        ops = []
        min_ops = 2 if trace else 1
        start = time.monotonic()
        while len(ops) < min_ops or time.monotonic() - start < seconds:
            traced = bool(trace) and len(ops) % 2 == 0
            variant = rng.choice(workload.family)
            ops.append(run_op(workload, variant, workdir / ("op%d" % len(ops)), env, len(ops), traced))
        loop_s = time.monotonic() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    failed = [op for op in ops if op["errors"]]
    for op in failed:
        print("%s op %r failed: %s" % (workload.name, op["variant"], "; ".join(op["errors"])))
    plain = [op for op in ops if not op["traced"]]
    if trace:
        traced = [op for op in ops if op["traced"]]
        summaries = [LayerSummary(op["dumps"]) for op in traced]
        metrics = {
            name: statistics.median(s.metric(name) for s in summaries)
            for name in metric_names if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(op["wall_s"] for op in traced)
            / statistics.median(op["wall_s"] for op in plain)
        )
    else:
        setups = setups + [s for op in plain for s in op["setups"]]
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(op["wall_s"] for op in ops),
            "ops_per_s": (len(ops) - len(failed)) / loop_s,
            "peak_rss_mb": max((kb for op in ops for kb in op["rss_kb"]), default=0) / 1024.0,
        }
    summary = {
        "attempted": len(ops),
        "failed": len(failed),
        "loop_s": loop_s,
        "setup_samples": len(setups),
        "op_walls": [op["wall_s"] for op in ops],
    }
    return metrics, summary


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "nproc=%s python=%s numpy=%s scipy=%s blas=%s %s blas_threads=%s" % (
        os.cpu_count(), sys.version.split()[0], np.__version__,
        importlib.metadata.version("scipy"), blas["name"], blas["version"], BLAS_THREADS,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="|".join(list(WORKLOADS) + ["all"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "superrotor" / "cli.py").is_file():
        print("error: no superrotor sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = config["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    seconds = config["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error("unknown workload %r" % args.workload)

    print("environment: %s" % environment())
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            values, summary = run_workload(WORKLOADS[name], args.seed, seconds, args.trace, units)
        except BenchError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 3
        if set(values) != set(units):
            print("error: metrics %s do not match BENCHMARK.json" % sorted(values), file=sys.stderr)
            return 4
        print("%s seed=%d: %d ops in %.1f s, %d setup samples; op wall times (s): %s" % (
            name, args.seed, summary["attempted"], summary["loop_s"], summary["setup_samples"],
            " ".join("%.2f" % w for w in summary["op_walls"])))
        rows = dict(values, fail_ratio=summary["failed"] / summary["attempted"])
        for metric, value in rows.items():
            print("  %-52s %14.6g %s" % (metric, value, units.get(metric, "ratio")))
        prefix = "" if len(names) == 1 else name + "/"
        metrics.update(
            {prefix + m: {"value": v, "unit": units[m]} for m, v in values.items()}
        )
        attempted += summary["attempted"]
        failed += summary["failed"]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
