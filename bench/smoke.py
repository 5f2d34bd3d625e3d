"""Smoke test of the benchmark itself, at tiny sizes; about half a minute.

    python3 bench/smoke.py

Run it from the root of the source tree.  It checks that

1. every workload runs once in each trace mode, and the metric names and
   units it prints match BENCHMARK.json in both directions;
2. a corrupted output (one altered sweep CSV cell, one altered gamma JSON
   value) is counted as a failed operation and makes the run not correct;
3. in a directory that holds only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metric_names(failures):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run_bench(ROOT, w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(line) != RESULT_KEYS or line["attempted"] < 1:
                failures.append(f"{where}: result keys {sorted(line)}")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                failures.append(f"{where}: missing {missing}, unexpected {extra}, or units differ")
            print(f"ok   {where}: {len(got)} metrics, {line['failed']}/{line['attempted']} failed")


def corrupted(workload, inputs, code, output, edit):
    """Outcome of the clean output and of the output after edit(text)."""
    before = workload.verify(inputs, code, output)
    with open(output) as fh:
        text = fh.read()
    with open(output, "w") as fh:
        fh.write(edit(text))
    return before, workload.verify(inputs, code, output)


def check_corruption(failures):
    from softdeco import cli  # noqa: F401  (softdeco is imported once, here)

    rundir = os.path.join(ROOT, ".bench_run", "smoke")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)

    def alter_ok_row(text):
        lines = text.splitlines(keepends=True)
        row = next(i for i, l in enumerate(lines) if l.rstrip().endswith(",ok"))
        cells = lines[row].split(",")
        digit = cells[3][2]  # first decimal of gamma_dressed: a 1-10% change
        cells[3] = cells[3][:2] + ("1" if digit != "1" else "2") + cells[3][3:]
        lines[row] = ",".join(cells)
        return "".join(lines)

    def alter_gamma(text):
        payload = json.loads(text)
        payload["gamma"]["sub"] *= 1.0 + 1e-5
        return json.dumps(payload)

    for workload, edit in ((workloads.WORKLOADS["sweep_speed"], alter_ok_row),
                           (workloads.WORKLOADS["gamma_wideband"], alter_gamma)):
        inputs = workload.generate(3, rundir, tiny=True)
        code, output = workload.op(inputs)
        before, after = corrupted(workload, inputs, code, output, edit)
        if (after.failed, after.wrong) != (before.failed + 1, before.wrong + 1):
            failures.append(f"{workload.name}: corruption not counted "
                            f"({before.failed}/{before.wrong} -> {after.failed}/{after.wrong})")
        else:
            new = sorted(set(after.problems) - set(before.problems))
            print(f"ok   {workload.name}: corrupted output counted as a failure ({new[0]})")


def check_bare_directory(failures):
    bare = os.path.join(ROOT, ".bench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "check_suite", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print(f"ok   bare directory: exit {proc.returncode}, nothing printed")


def main():
    failures = []
    check_metric_names(failures)
    check_corruption(failures)
    check_bare_directory(failures)
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
