"""One benchmark process: set up a workload, then run it.

Usage: python worker.py --workload W --seed N --seconds S --mode MODE [--smoke]

MODE is one of
  probe  set up and stop; reports when the first op would have started,
  timed  repeat whole cycles of ops, untraced, for at least S seconds,
  trace  run whole cycles untraced for S/2 seconds, then traced for S/2.

The last line of stdout is one JSON object. Its "ready" field is the
monotonic clock at the first timed op, which the parent subtracts from the
time it spawned this process to get the set-up time.
"""

import argparse
import glob
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback

from cases import (ROOT, SRC, cli_cases, cycle_of, estimate_cases,
                   exact_pure_cases)

WORK_DIR = os.path.join(ROOT, ".bench_work")


def run_cycles(cycle, seconds: float, digests: dict) -> dict:
    """Closed loop, one client: each op starts when the previous one ends.
    Whole cycles only, so every run has the same mix of cases."""
    latencies, failures = [], []
    start = time.perf_counter()
    cycles = 0
    while True:
        for case in cycle:
            t0 = time.perf_counter()
            try:
                ok, out = case.run(1)
            except Exception:
                traceback.print_exc()
                ok, out = False, "raised"
            latencies.append(time.perf_counter() - t0)
            if not ok or digests.setdefault(case.name, out) != out:
                failures.append(case.name)
        cycles += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"latencies": latencies, "failures": failures, "cycles": cycles,
            "wall_s": time.perf_counter() - start}


def workers_check(cases, digests: dict) -> tuple[int, list]:
    """Run each case that takes a worker count once with two workers; its
    output must match the one-worker digest. Returns (runs, failures)."""
    runs, failures = 0, []
    for case in cases:
        if case.workers_check:
            runs += 1
            try:
                ok, out = case.run(2)
            except Exception:
                traceback.print_exc()
                ok, out = False, "raised"
            if not ok or out != digests.get(case.name):
                failures.append(case.name + "@workers=2")
    return runs, failures


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    files = sorted(glob.glob(os.path.join(SRC, "wstate", "*.py")))
    src_hash = hashlib.sha256()
    for path in files:
        with open(path, "rb") as fh:
            src_hash.update(os.path.basename(path).encode() + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "src_sha256": src_hash.hexdigest()[:16],
    }


def cli_layer_stats(stats_dir: str, ops: int) -> dict:
    """Sum the traced children's stats files, per op."""
    from spans import Recorder

    rec = Recorder()
    times = {"cli.import_s": 0.0, "cli.command_s": 0.0}
    for path in glob.glob(os.path.join(stats_dir, "*.json")):
        with open(path) as fh:
            child = json.load(fh)
        times["cli.import_s"] += child["import_s"]
        times["cli.command_s"] += child["command_s"]
        for name, entry in child["layers"].items():
            for key, value in entry.items():
                rec.stats[name][key] += value
    out = rec.per_op(ops)
    out.update({k: v / max(ops, 1) for k, v in times.items()})
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "timed", "trace"), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        args.seconds = 0.0

    sys.path.insert(0, SRC)
    # Set-up covers the library import on every workload, cli included, so
    # that import-time changes show in setup_s everywhere.
    import wstate  # noqa: F401

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    state = {"launcher": None}
    try:
        if args.workload == "exact-pure":
            cases = exact_pure_cases(args.seed, args.smoke)
        elif args.workload == "estimate":
            cases = estimate_cases(args.seed, args.smoke)
        else:
            cases = cli_cases(args.seed, args.smoke, workdir, state)
        cycle = cycle_of(cases)
        result = {"ready": time.monotonic()}
        if args.mode != "probe":
            result.update(run(args, cases, cycle, workdir, state))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


def run(args, cases, cycle, workdir, state) -> dict:
    is_cli = args.workload == "cli"
    digests: dict = {}
    out = {"cases": {c.name: c.repeat for c in cases}, "cycle_ops": len(cycle),
           "environment": environment()}
    if args.mode == "timed":
        loop = run_cycles(cycle, args.seconds, digests)
        usage = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        loop["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    else:
        plain = run_cycles(cycle, args.seconds / 2, digests)
        if is_cli:
            stats_dir = os.path.join(workdir, "stats")
            os.makedirs(stats_dir)
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")
            counter = itertools.count()
            state["launcher"] = lambda argv: [
                sys.executable, launcher,
                os.path.join(stats_dir, f"{next(counter)}.json"), *argv]
            loop = run_cycles(cycle, args.seconds / 2, digests)
            state["launcher"] = None
            layers = cli_layer_stats(stats_dir, len(loop["latencies"]))
        else:
            from spans import Recorder

            rec = Recorder()
            rec.install()
            try:
                loop = run_cycles(cycle, args.seconds / 2, digests)
            finally:
                rec.remove()
            layers = rec.per_op(len(loop["latencies"]))
            layers["cli.import_s"] = layers["cli.command_s"] = 0.0
        ops_rate = len(loop["latencies"]) / loop["wall_s"]
        plain_rate = len(plain["latencies"]) / plain["wall_s"]
        layers["trace.ops_per_s_ratio"] = ops_rate / plain_rate
        loop["failures"] = plain["failures"] + loop["failures"]
        loop["untraced_ops"] = len(plain["latencies"])
        out["layers"] = layers
    checks, failed_checks = workers_check(cases, digests)
    loop["failures"] += failed_checks
    loop["attempted"] = len(loop["latencies"]) + loop.get("untraced_ops", 0) + checks
    out.update(loop)
    out["digest"] = hashlib.sha256(
        "".join(f"{c.name}={digests.get(c.name)};" for c in cases).encode()).hexdigest()[:16]
    return out


if __name__ == "__main__":
    sys.exit(main())
