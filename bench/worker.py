"""Child process of run.py: set up softdeco, then run one workload's operations.

    python bench/worker.py <rundir> setup
    python bench/worker.py <rundir> run <seconds> <trace 0|1>

Set-up is importing ``softdeco.cli`` and loading the config; the worker
prints ``READY`` when it is done, so that run.py can time it from outside.
In ``run`` mode the worker then repeats the operation for about ``seconds``,
verifies every operation's output, and writes ``result.json`` into
``rundir``.  With tracing on it times one operation untraced first, then
traces the rest and writes every span to ``spans.jsonl``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time


def main(argv):
    rundir, mode = argv[0], argv[1]
    with open(os.path.join(rundir, "inputs.json")) as fh:
        inputs = json.load(fh)
    from softdeco import cli

    cli.load_config(inputs.get("config"), environ={})
    print("READY", flush=True)
    if mode == "setup":
        return 0
    seconds, trace = float(argv[2]), argv[3] == "1"

    # imported after READY, so that set-up time is softdeco's alone
    import spans
    import workloads

    workload = workloads.WORKLOADS[inputs["workload"]]
    inputs = workload.prepare(inputs)
    result = {"ops": []}
    if trace:
        result["untraced_wall_s"] = timed_op(workload, inputs)["wall_s"]
        tracer = spans.Tracer()
        spans.install(tracer, workloads)
        try:
            result["ops"] = run_ops(workload, inputs, seconds)
            if isinstance(workload, workloads.SweepSpeed):
                result["pool"] = pool_sweep(workload, inputs, tracer)
        finally:
            tracer.unpatch()
        tracer.write(os.path.join(rundir, "spans.jsonl"))
        result["layers"] = layer_metrics(tracer, result)
    else:
        result["ops"] = run_ops(workload, inputs, seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(rundir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def timed_op(workload, inputs, threads=None):
    kwargs = {} if threads is None else {"threads": threads}
    t0 = time.perf_counter()
    code, output = workload.op(inputs, **kwargs)
    wall = time.perf_counter() - t0
    outcome = workload.verify(inputs, code, output)
    return {
        "wall_s": wall,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "wrong": outcome.wrong,
        "worst_dev": outcome.worst_dev,
        "bytes_out": outcome.bytes_out,
        "problems": list(outcome.problems),
        "output": output if isinstance(output, str) else None,
    }


def run_ops(workload, inputs, seconds):
    """Repeat the operation while the next one is expected to end within ``seconds``.

    The operation runs at least once.  The expected length of the next one is
    the longest so far, checking included, so a run ends close to ``seconds``.
    """
    ops = []
    start = time.perf_counter()
    longest = 0.0
    while not ops or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        ops.append(timed_op(workload, inputs))
        longest = max(longest, time.perf_counter() - t0)
    return ops


def pool_sweep(workload, inputs, tracer):
    """The same sweep on the thread pool: speed-up, row waits and byte identity."""
    first = len(tracer.spans)
    op = timed_op(workload, inputs, threads=workload.POOL_THREADS)
    op["span_range"] = [first, len(tracer.spans)]
    with open(op["output"], "rb") as a, open(inputs["out"], "rb") as b:
        identical = a.read() == b.read()
    if not identical:
        op["failed"] += 1
        op["wrong"] += 1
        op["problems"].append("CSV from the thread pool differs from the 1-thread one")
    return op


def layer_metrics(tracer, result):
    """Layer metrics of the timed operations; cli.sweep.* of the pool run, if any."""
    import spans

    ops = result["ops"]
    walls = [op["wall_s"] for op in ops]
    pool = result.get("pool")
    lo, hi = pool["span_range"] if pool else (len(tracer.spans), len(tracer.spans))
    m = spans.layer_metrics(tracer.spans[:lo], len(ops))
    m.update(spans.layer_shares(tracer.spans[:lo], sum(walls)))
    m.update(spans.sweep_rows(tracer.spans[lo:hi]))
    m["cli.sweep.speedup_2t"] = statistics.median(walls) / pool["wall_s"] if pool else 0.0
    m["cli.output.bytes"] = statistics.median(op["bytes_out"] for op in ops)
    m["trace.overhead_s"] = statistics.median(walls) - result["untraced_wall_s"]
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
