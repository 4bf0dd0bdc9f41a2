"""Regenerate the benchmark's reference outputs under perfbench/refs/.

Run from the root of a git checkout of the commit the references describe:

    python3 perfbench/make_refs.py

Every variant of every workload runs once, untraced, through the same child
jobs as a benchmark op.  Its outputs are copied to refs/<workload>/<name>
(gzip-compressed where the name ends in .gz), then the op is checked against
them, including the workload's independent check, which must pass.
refs/environment.json records the commit and the machine.
"""

import gzip
import json
import os
import platform
import shutil
import subprocess

from run import ROOT, WORK, child_env, environment, run_child
from workloads import REFS, WORKLOADS, check_op


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    env = child_env()
    tmp = WORK / ("refs-%d" % os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        for workload in WORKLOADS.values():
            for n, variant in enumerate(workload.family):
                opdir = tmp / workload.name / str(n)
                opdir.mkdir(parents=True)
                for k, job in enumerate(workload.jobs(variant, opdir)):
                    _, _, errors = run_child(dict(job, op=n, trace=False), opdir / ("job%d.json" % k), env)
                    if errors:
                        raise SystemExit("%s %r: %s" % (workload.name, variant, errors))
                for out, ref, _compare in workload.outputs(variant):
                    dest = REFS / workload.name / ref
                    dest.parent.mkdir(parents=True, exist_ok=True)
                    data = (opdir / out).read_bytes()
                    dest.write_bytes(gzip.compress(data, mtime=0) if ref.endswith(".gz") else data)
                errors = check_op(workload, variant, opdir)
                if errors:
                    raise SystemExit("%s %r: %s" % (workload.name, variant, errors))
                print("%s %r: ok" % (workload.name, variant))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    record = {
        "seed_commit": commit,
        "cpu": cpu_model(),
        "machine": platform.machine(),
        "environment": environment(),
    }
    (REFS / "environment.json").write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
