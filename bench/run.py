"""Benchmark of softdeco: one workload, one seed, one result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source tree (the directory that holds ``src/``);
softdeco need not be installed.  The benchmark writes the seeded inputs under
``.bench_run/``, runs the workload in a child process with
``PYTHONPATH=src`` and BLAS/OpenMP pools pinned to one thread, checks every
output, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  The line before it records the interpreter, library
versions and CPU.  See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s
THREAD_POOL_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(root):
    """The caller's environment without softdeco overrides, with bytecode caching on."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SOFTDECO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in THREAD_POOL_VARS:
        env[var] = "1"
    return env


def remaining(deadline):
    return max(0.0, deadline - time.monotonic())


def start_worker(rundir, env, deadline, *args):
    """Start a worker and return it with the seconds until it printed READY."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), rundir, *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    readable, _, _ = select.select([proc.stdout], [], [], remaining(deadline))
    line = proc.stdout.readline() if readable else ""
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not start: {line!r}")
    return proc, ready


def finish(proc, deadline):
    try:
        proc.communicate(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def setup_seconds(rundir, env, deadline, samples):
    """Median time from starting a fresh interpreter to softdeco.cli imported and config loaded."""
    times = []
    for _ in range(samples):
        proc, ready = start_worker(rundir, env, deadline, "setup")
        finish(proc, deadline)
        times.append(ready)
    return statistics.median(times)


def system_info():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def end_to_end(result, setup_s):
    ops = result["ops"]
    worst = max(op["worst_dev"] for op in ops)
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    return {
        "wall_s": {"value": statistics.median(op["wall_s"] for op in ops), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "accuracy_digits": {"value": workloads.accuracy_digits(worst), "unit": "digits"},
        "ok_frac": {"value": (attempted - failed) / attempted, "unit": "fraction"},
    }


def per_layer(result):
    """Every layer metric the worker measured, with its unit from BENCHMARK.json."""
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    return {name: {"value": value, "unit": units[name]} for name, value in result["layers"].items()}


def run(args, root, deadline):
    workload = workloads.WORKLOADS[args.workload]
    rundir = os.path.join(root, ".bench_run", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    inputs = workload.generate(args.seed, rundir, tiny=args.tiny)
    inputs["workload"] = args.workload
    with open(os.path.join(rundir, "inputs.json"), "w") as fh:
        json.dump(inputs, fh)

    env = child_env(root)
    proc, _ = start_worker(rundir, env, deadline, "run", str(args.seconds), str(args.trace))
    finish(proc, deadline)
    with open(os.path.join(rundir, "result.json")) as fh:
        result = json.load(fh)
    ops = list(result["ops"])
    if "pool" in result:
        ops.append(result["pool"])
    for op in ops:
        for problem in op["problems"][:5]:
            print(f"# failed: {problem}", file=sys.stderr)
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    wrong = sum(op["wrong"] for op in ops)
    if args.trace:
        metrics = per_layer(result)
    else:
        samples = 2 if args.tiny else SETUP_SAMPLES
        metrics = end_to_end(result, setup_seconds(rundir, env, deadline, samples))
    return {
        # a failure the program reports itself (a non-converged row, a FAIL
        # line) is counted in failed; a wrong output that claims success is not correct
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few operations (smoke test)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "softdeco", "cli.py")):
        print("bench: run from the root of a softdeco source tree (no src/softdeco here)",
              file=sys.stderr)
        return 2
    try:
        line = run(args, root, deadline)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("# env " + json.dumps(system_info()))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
