"""wstate benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload {exact-pure,estimate,cli} --seed N \
        --seconds S --trace {0,1} [--smoke]

--trace 0 measures the end-to-end metrics with tracing off. Set-up time is
taken from several fresh processes (spawn to first timed op) and reported as
their median; one of them then runs the timed loop. --trace 1 runs the
workload once untraced and once with the span recorder installed, and reports
the per-layer metrics. --smoke shrinks every workload to n <= 2 and one cycle.

The metric names and units come from BENCHMARK.json at the repository root.
stdout ends with a record line (environment, cases, digest, failures) and the
result line. The exit code is 2 when the checkout holds no wstate sources.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("exact-pure", "estimate", "cli")
SETUP_SAMPLES = 5
DEADLINE_S = 170


class BenchError(Exception):
    pass


def worker_env() -> dict:
    """BLAS threads capped at the cores this process may use."""
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    return env


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker process; returns its result with setup_s added."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    if args.smoke:
        cmd.append("--smoke")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker exceeded the time limit")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{mode} worker failed ({proc.returncode}):\n{err[-2000:]}")
    sys.stderr.write(err)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def end_to_end(args, deadline: float):
    probes = [spawn(args, "probe", deadline) for _ in range(SETUP_SAMPLES - 1)]
    timed = spawn(args, "timed", deadline)
    lat = timed["latencies"]
    values = {
        "setup_s": statistics.median([p["setup_s"] for p in probes + [timed]]),
        "op_s_p50": statistics.median(lat),
        "op_s_p90": statistics.quantiles(lat, n=10, method="inclusive")[-1],
        "ops_per_s": len(lat) / timed["wall_s"],
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    timed["setup_samples_s"] = [p["setup_s"] for p in probes + [timed]]
    return values, timed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="n <= 2 and one cycle per loop, for the benchmark's own test")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "wstate", "__init__.py")):
        print("error: no wstate sources under src/; run from a repository checkout",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    try:
        if args.trace:
            result = spawn(args, "trace", deadline)
            values = result.pop("layers")
            metrics = spec["per_layer"]
        else:
            values, result = end_to_end(args, deadline)
            metrics = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lat = result.pop("latencies")
    failures = result.pop("failures")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_commit": git_commit(),
        "ops": len(lat), "failed_frac": len(failures) / result["attempted"],
        "failures": failures[:20],
        **{k: v for k, v in result.items() if k not in ("ready", "setup_s")},
    }
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}
    for name, entry in out.items():
        print(f"{args.workload:>10} {name:<48} {entry['value']:.6g} {entry['unit']}",
              file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": result["attempted"],
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
