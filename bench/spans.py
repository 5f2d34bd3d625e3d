"""Spans around softdeco's layer entry points, and the per-layer metrics built from them.

A span records name, start, end, parent span and thread.  Spans stay in
memory while the workload runs and are written out once at the end.  The
wrappers are installed from here, around the calls into each layer; softdeco
itself is not changed.

``decoherence`` imports ``sphere_integrate``, ``freq_integrate``,
``cosine_integral`` and ``atanh_over_x`` by name, so each name is patched in
every module that looks it up, not only in ``numerics``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

LAYERS = ("numerics", "decoherence", "currents", "kinematics", "whichpath", "cli")
CURRENT_FUNCTIONS = ("current_fourier", "soft_decompose", "delta_current", "delta_current_parts")


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "attrs")

    def __init__(self, id_, name, parent, thread, start):
        self.id, self.name, self.parent, self.thread = id_, name, parent, thread
        self.start, self.end, self.attrs = start, None, None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Records spans; a span opened on a pool thread is a child of the main thread's open span."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), name, parent, threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, fn, name, around=None):
        """fn wrapped in a span; ``around(span, fn, args, kwargs)`` may replace the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(span, fn, args, kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def patch(self, owner, attr, name, around=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, around))

    def unpatch(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _counting_quadrature(signature):
    """Count integrand nodes and record convergence and error over tolerance."""

    def around(span, fn, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        integrand = bound.args[0]
        nodes = [0]

        def counted(*xs):
            nodes[0] += xs[0].size
            return integrand(*xs)

        result = fn(counted, *bound.args[1:], **bound.kwargs)
        spec = bound.arguments["spec"]
        tol = spec.abs_tol + spec.rel_tol * abs(result.value)
        span.attrs = {"nodes": nodes[0], "converged": bool(result.converged),
                      "err_over_tol": result.error / tol}
        return result

    return around


def install(tracer, workloads_module):
    """Patch every layer entry point that the four workloads reach."""
    from softdeco import cli, currents, decoherence, kinematics, numerics, whichpath

    for fname in ("sphere_integrate", "freq_integrate"):
        original = getattr(numerics, fname)
        around = _counting_quadrature(inspect.signature(original))
        for owner in (numerics, decoherence):
            tracer.patch(owner, fname, f"numerics.{fname}", around)
    for fname in ("cosine_integral", "atanh_over_x"):
        for owner in (numerics, decoherence):
            tracer.patch(owner, fname, "numerics.special")
    for fname in ("decoherence_report", "closed_forms", "divergence_coefficient"):
        tracer.patch(decoherence, fname, f"decoherence.{fname}")
    for fname in CURRENT_FUNCTIONS:
        tracer.patch(currents, fname, f"currents.{fname}")
    tracer.patch(kinematics.InterferometerGeometry, "__post_init__", "kinematics.geometry_build")
    tracer.patch(workloads_module, "build_worldline", "kinematics.worldline_build")
    tracer.patch(cli, "_random_worldline", "kinematics.worldline_build")
    tracer.patch(whichpath, "summarize", "whichpath.summarize")
    tracer.patch(cli, "load_config", "cli.load_config")
    tracer.patch(cli, "cmd_sweep", "cli.sweep")
    tracer.patch(cli, "main", "cli.main")


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    def __init__(self, spans):
        self.by_id = {s.id: s for s in spans}
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent is not None:
                self.children[s.parent].append(s)

    def self_time(self, span):
        """Duration minus the part of it that child spans, on any thread, cover."""
        kids = [(c.start, c.end) for c in self.children[span.id]]
        return span.duration - _union_length(kids)

    def ancestor(self, span, name):
        parent = span.parent
        while parent is not None:
            p = self.by_id[parent]
            if p.name == name:
                return p
            parent = p.parent
        return None

    def count_under(self, name, ancestor_name):
        return sum(1 for s in self.by_name[name] if self.ancestor(s, ancestor_name))

    def busy(self, name):
        return sum(s.duration for s in self.by_name[name])


def _per_call(total, calls, scale):
    return total / calls * scale if calls else 0.0


def layer_metrics(spans, n_ops):
    """Per-operation counts and times of each layer, from the traced operations."""
    ix = SpanIndex(spans)
    m = {}

    def calls_busy(key, name):
        m[f"{key}.calls"] = len(ix.by_name[name]) / n_ops
        m[f"{key}.busy_s"] = ix.busy(name) / n_ops

    for fname in ("sphere_integrate", "freq_integrate"):
        key = f"numerics.{fname}"
        calls_busy(key, key)
        found = ix.by_name[key]
        nodes = sum(s.attrs["nodes"] for s in found)
        m[f"{key}.nodes"] = nodes / n_ops
        m[f"{key}.ns_per_node"] = _per_call(ix.busy(key), nodes, 1e9)
        m[f"{key}.nonconverged"] = sum(not s.attrs["converged"] for s in found) / n_ops
    m["numerics.freq_integrate.max_err_over_tol"] = max(
        (s.attrs["err_over_tol"] for s in ix.by_name["numerics.freq_integrate"]), default=0.0
    )
    calls_busy("numerics.special", "numerics.special")

    report = "decoherence.decoherence_report"
    calls_busy(report, report)
    reports = len(ix.by_name[report])
    m[f"{report}.self_s"] = sum(ix.self_time(s) for s in ix.by_name[report]) / n_ops
    m["decoherence.angular_passes_per_report"] = _per_call(
        ix.count_under("numerics.sphere_integrate", report), reports, 1)
    m["decoherence.freq_passes_per_report"] = _per_call(
        ix.count_under("numerics.freq_integrate", report), reports, 1)
    calls_busy("decoherence.closed_forms", "decoherence.closed_forms")
    fit = "decoherence.divergence_coefficient"
    calls_busy(fit, fit)
    m[f"{fit}.freq_passes_per_fit"] = _per_call(
        ix.count_under("numerics.freq_integrate", fit), len(ix.by_name[fit]), 1)

    for fname in CURRENT_FUNCTIONS:
        key = f"currents.{fname}"
        calls_busy(key, key)
        m[f"{key}.us_per_call"] = _per_call(ix.busy(key), len(ix.by_name[key]), 1e6)
    calls_busy("kinematics.worldline_build", "kinematics.worldline_build")
    calls_busy("kinematics.geometry_build", "kinematics.geometry_build")
    calls_busy("whichpath.summarize", "whichpath.summarize")
    calls_busy("cli.load_config", "cli.load_config")
    return m


def sweep_rows(spans):
    """Busy and wait time of each sweep row, from the decoherence_report spans.

    A row's busy time is its report span; its wait is the time from the start
    of the sweep to the start of that span, which on a thread pool is the time
    the row queued for a worker.
    """
    ix = SpanIndex(spans)
    busy, waits = [], []
    sweeps = ix.by_name["cli.sweep"]
    for s in ix.by_name["decoherence.decoherence_report"]:
        sweep = ix.ancestor(s, "cli.sweep")
        if sweep is not None:
            busy.append(s.duration)
            waits.append(s.start - sweep.start)
    return {
        "cli.sweep.rows": len(busy) / max(1, len(sweeps)),
        "cli.sweep.row_busy_p50_s": statistics.median(busy) if busy else 0.0,
        "cli.sweep.row_busy_max_s": max(busy, default=0.0),
        "cli.sweep.row_wait_max_s": max(waits, default=0.0),
    }


def layer_shares(spans, wall):
    """Each layer's self time over wall time, for operations run on one thread."""
    ix = SpanIndex(spans)
    shares = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        shares[s.name.split(".", 1)[0]] += ix.self_time(s)
    out = {f"share.{layer}": t / wall for layer, t in shares.items()}
    for fname in ("sphere_integrate", "freq_integrate"):
        out[f"numerics.{fname}.share"] = ix.busy(f"numerics.{fname}") / wall
    return out
