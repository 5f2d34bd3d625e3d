"""Seeded inputs, timed operations and correctness gates of the four workloads.

Each workload is a class with these steps:

- ``generate(seed, rundir, tiny)`` writes the inputs (a config file or a
  worldline table) and returns a JSON-able dict that describes them.  A seed
  changes only values that leave the amount of work unchanged.
- ``prepare(inputs)`` loads them in the worker, before anything is timed.
- ``op(inputs)`` is the timed region: one call into softdeco,
  including writing its outputs.  It returns ``(exit_code, output)``.
- ``verify(inputs, exit_code, output)`` checks the output against references
  computed here, independently of softdeco, and returns an ``Outcome``.

Why each workload exists is written down in NOTES.md.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import special

ALPHA = 1.0 / 137.035999
E2 = 4.0 * math.pi * ALPHA
EULER_GAMMA = 0.57721566490153286061
QUADRATURE = {
    "n_theta": 48,
    "n_phi": 96,
    "panels_per_period": 4,
    "rel_tol": 1e-8,
    "abs_tol": 1e-12,
}
ALL_VARIANTS = ["full", "dressed", "sub", "hard"]
# the bound the program's own dressed_vs_closed_form check applies
CLOSED_FORM_TOL = 1e-6
# softdeco's closed forms must agree with the ones below to round-off
REFERENCE_TOL = 1e-9
# D and V_max are read back from 12-digit CSV cells
WHICHPATH_TOL = 1e-10
CONSERVATION_TOL = 1e-12
ACCURACY_CAP = 16.0

CSV_COLUMNS = [
    "sweep_param", "value", "gamma_full", "gamma_dressed", "gamma_sub",
    "gamma_hard", "closed_dressed", "closed_sub", "closed_hard", "D", "V_max",
    "err_est", "status",
]
CHECK_NAMES = [
    "conservation_random_draws",
    "soft_scaling_exponents",
    "sphere_vs_closed_form",
    "freq_vs_closed_form",
    "dressed_vs_closed_form",
    "duality_identity",
    "divergence_coefficient_full",
    "divergence_coefficient_dressed",
    "boundary_soft_theorem",
]
# the numbers after these labels in a check line are deviations from a reference
CHECK_DEVIATION_LABELS = ("relative deviation", "|q.j|/|j| =", "|D^2 + V^2 - 1| =")


@dataclass
class Outcome:
    attempted: int
    bytes_out: int = 0
    failed: int = 0
    wrong: int = 0  # failures that the program's own output does not admit
    worst_dev: float = 0.0  # worst relative deviation from the reference
    problems: list = field(default_factory=list)

    def fail(self, faults, prefix=""):
        """Count one failed operation; faults are (text, reported-by-the-program) pairs."""
        if not faults:
            return
        self.failed += 1
        reported = all(r for _, r in faults)
        self.wrong += not reported
        text = prefix + "; ".join(t for t, _ in faults)
        self.problems.append(text if reported else f"{text} [not reported by softdeco]")

    def deviation(self, dev):
        self.worst_dev = max(self.worst_dev, dev)


def accuracy_digits(worst_dev: float) -> float:
    if worst_dev <= 0.0:
        return ACCURACY_CAP
    return min(ACCURACY_CAP, -math.log10(worst_dev))


def rel_dev(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def _atanh_over_x_minus_1(x: float) -> float:
    """atanh(x)/x - 1 without the cancellation of the direct form at small x."""
    if x >= 0.3:
        return math.atanh(x) / x - 1.0
    x2 = x * x
    term, total, k = x2, 0.0, 1
    while term > 1e-18 * total or k == 1:
        total += term / (2 * k + 1)
        term *= x2
        k += 1
    return total


def closed_form_gammas(l, tau, omega_uv, lambda_ir, e2=E2) -> dict:
    """Gamma of each variant from the cosine-integral and atanh identities.

    The angular integral is 8 pi [atanh(v12)/v12 - 1] with v12 the relative
    speed of the two arms; the frequency integrals of |c(w)|^2/w follow from
    Cin(x) = gamma_E + ln x - Ci(x).  The undressed variant integrates
    |i (1 - 2 e^{i w tau})|^2 / w = (5 - 4 cos(w tau))/w from lambda_ir.
    """
    v = l / tau
    v12 = math.sqrt(1.0 - (1.0 - v * v) ** 2)
    ang = 8.0 * math.pi * _atanh_over_x_minus_1(v12)
    x = omega_uv * tau
    cin = EULER_GAMMA + math.log(x) - float(special.sici(x)[1])
    pref = e2 / (2.0 * math.pi) ** 3
    out = {
        "dressed": pref * 2.0 * cin * ang,
        "sub": pref * 0.5 * x * x * ang,
        "hard": pref * (2.0 * cin + 0.5 * x * x - 2.0 * (1.0 - math.cos(x))) * ang,
    }
    if lambda_ir > 0:
        ci_lo = float(special.sici(lambda_ir * tau)[1])
        ci_hi = float(special.sici(x)[1])
        freq_full = 5.0 * math.log(omega_uv / lambda_ir) - 4.0 * (ci_hi - ci_lo)
        out["full"] = 0.25 * pref * freq_full * ang
    return out


def _whichpath_devs(gamma_dressed, d_value, v_value):
    want_v = math.exp(-gamma_dressed)
    want_d = math.sqrt(-math.expm1(-2.0 * gamma_dressed))
    return rel_dev(v_value, want_v), rel_dev(d_value, want_d)


def _point_config(l, tau, omega_uv, lambda_ir):
    return {
        "geometry": {"l": l, "tau": tau},
        "cutoffs": {"lambda_ir": lambda_ir, "omega_uv": omega_uv, "beta": None},
        "charge": {"Q": 1.0, "alpha": ALPHA},
        "quadrature": dict(QUADRATURE),
        "variants": list(ALL_VARIANTS),
    }


def _cli():
    # run.py imports this module without softdeco on the path; the worker has it
    from softdeco import cli

    return cli


class Workload:
    def prepare(self, inputs):
        """Turn generated inputs into what op() takes; runs before the timed loop."""
        return inputs


class GammaWideband(Workload):
    """One `gamma` point, all four variants, at Omega*tau = 1e6 on 1 thread."""

    name = "gamma_wideband"
    OMEGA_TAU = 1e6
    TINY_OMEGA_TAU = 1e3
    LAMBDA_TAU = 1e-4

    def generate(self, seed, rundir, tiny=False):
        rng = np.random.default_rng([seed, 1])
        v = float(rng.uniform(0.005, 0.05))
        tau = float(rng.uniform(50.0, 200.0))
        omega_tau = self.TINY_OMEGA_TAU if tiny else self.OMEGA_TAU
        cfg = _point_config(v * tau, tau, omega_tau / tau, self.LAMBDA_TAU / tau)
        path = os.path.join(rundir, "gamma.json")
        _write_json(path, cfg)
        return {
            "config": path,
            "out": os.path.join(rundir, "gamma.out.json"),
            "point": [cfg["geometry"]["l"], tau, omega_tau / tau, self.LAMBDA_TAU / tau],
        }

    def op(self, inputs):
        argv = ["--threads", "1", "gamma", "--config", inputs["config"], "--out", inputs["out"]]
        return _cli().main(argv, environ={}), inputs["out"]

    def verify(self, inputs, exit_code, output):
        """One operation: exit code, convergence flag, Gamma and which-path values."""
        out = Outcome(attempted=1, bytes_out=_size(output))
        try:
            with open(output) as fh:
                payload = json.load(fh)
            out.fail(self._faults(inputs, exit_code, payload, out))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.deviation(1.0)
            out.fail([(f"unreadable output: {exc}", False)])
        return out

    @staticmethod
    def _faults(inputs, exit_code, payload, out):
        converged = payload["converged"] is True
        faults = []
        if exit_code != 0:
            faults.append((f"exit code {exit_code}", exit_code == 2 and not converged))
        if not converged:
            faults.append(("converged is not true", True))
        for variant, ref in closed_form_gammas(*inputs["point"]).items():
            dev = rel_dev(float(payload["gamma"][variant]), ref)
            out.deviation(dev)
            if not dev <= CLOSED_FORM_TOL:
                faults.append((f"gamma {variant} deviates {dev:.3e}", not converged))
            if variant != "full":
                cdev = rel_dev(float(payload["closed_form"][variant]), ref)
                if not cdev <= REFERENCE_TOL:
                    faults.append((f"closed_form {variant} deviates {cdev:.3e}", False))
        wp = payload["which_path"]
        for dev in _whichpath_devs(float(payload["gamma"]["dressed"]),
                                   float(wp["D"]), float(wp["V_max"])):
            if not dev <= WHICHPATH_TOL:
                faults.append((f"which_path deviates {dev:.3e}", False))
        return faults


class SweepSpeed(Workload):
    """`sweep` over geometry.l: 48 linear rows, v = 0.05 ... 0.995.

    Timed on 1 thread.  A traced run adds one run on the 2-thread pool, whose
    CSV must be byte-identical; NOTES.md says why the pool is not timed.
    """

    name = "sweep_speed"
    ROWS = 48
    TINY_ROWS = 6
    V_START, V_STOP = 0.05, 0.995
    OMEGA_TAU = 100.0
    LAMBDA_TAU = 1e-4
    THREADS = 1
    POOL_THREADS = 2

    def generate(self, seed, rundir, tiny=False):
        rng = np.random.default_rng([seed, 2])
        tau = float(rng.uniform(50.0, 200.0))
        rows = self.TINY_ROWS if tiny else self.ROWS
        cfg = _point_config(0.5 * tau, tau, self.OMEGA_TAU / tau, self.LAMBDA_TAU / tau)
        cfg["sweep"] = {
            "parameter": "geometry.l",
            "start": self.V_START * tau,
            "stop": self.V_STOP * tau,
            "points": rows,
            "scale": "linear",
        }
        path = os.path.join(rundir, "sweep.json")
        _write_json(path, cfg)
        return {
            "config": path,
            "out": os.path.join(rundir, "sweep.out.csv"),
            "tau": tau,
            "omega_uv": self.OMEGA_TAU / tau,
            "lambda_ir": self.LAMBDA_TAU / tau,
            "ls": np.linspace(self.V_START * tau, self.V_STOP * tau, rows).tolist(),
        }

    def op(self, inputs, threads=THREADS):
        out = inputs["out"] if threads == self.THREADS else f"{inputs['out']}.{threads}t"
        argv = ["--threads", str(threads), "sweep", "--config", inputs["config"],
                "--out", out]
        return _cli().main(argv, environ={}), out

    def verify(self, inputs, exit_code, output):
        """One operation per row plus one for the command and its exit code."""
        ls = inputs["ls"]
        out = Outcome(attempted=len(ls) + 1, bytes_out=_size(output))
        try:
            with open(output, newline="") as fh:
                table = list(csv.reader(fh))
        except OSError as exc:
            table = []
            out.problems.append(f"unreadable output: {exc}")
        rows = table[1:]
        flagged = any(row[-1:] == ["non-converged"] for row in rows)
        faults = []
        if not table or table[0] != CSV_COLUMNS:
            faults.append(("header differs", False))
        if exit_code != 0:
            faults.append((f"exit code {exit_code}", exit_code == 2 and flagged))
        elif flagged:
            faults.append(("exit code 0 with non-converged rows", False))
        out.fail(faults)
        for i, l in enumerate(ls):
            if i >= len(rows):
                out.deviation(1.0)
                out.fail([(f"row l={l:.6g} missing", False)])
            else:
                out.fail(self._row_faults(inputs, l, rows[i], out), prefix=f"row l={l:.6g}: ")
        if len(rows) > len(ls):
            out.fail([(f"{len(rows) - len(ls)} extra rows", False)])
        return out

    @staticmethod
    def _row_faults(inputs, l, row, out):
        if len(row) != len(CSV_COLUMNS):
            out.deviation(1.0)
            return [(f"{len(row)} cells", False)]
        cell = dict(zip(CSV_COLUMNS, row))
        ok = cell["status"] == "ok"
        faults = [] if ok else [(f"status {cell['status']!r}", True)]
        try:
            nums = {k: float(cell[k]) for k in CSV_COLUMNS[1:-1]}
        except ValueError:
            out.deviation(1.0)
            return faults + [("non-numeric cell", not ok)]
        if cell["sweep_param"] != "geometry.l" or not rel_dev(nums["value"], l) <= 1e-11:
            faults.append(("sweep parameter or value differs", False))
        want = closed_form_gammas(l, inputs["tau"], inputs["omega_uv"], inputs["lambda_ir"])
        for variant, ref in want.items():
            dev = rel_dev(nums[f"gamma_{variant}"], ref)
            out.deviation(dev)
            if not dev <= CLOSED_FORM_TOL:
                faults.append((f"gamma_{variant} deviates {dev:.3e}", not ok))
            if variant != "full" and not rel_dev(nums[f"closed_{variant}"], ref) <= REFERENCE_TOL:
                faults.append((f"closed_{variant} differs from the reference", False))
        for dev in _whichpath_devs(nums["gamma_dressed"], nums["D"], nums["V_max"]):
            if not dev <= WHICHPATH_TOL:
                faults.append((f"D or V_max deviates {dev:.3e}", False))
        return faults


DEFAULT_CONFIG = {
    "geometry": {"l": 1.0, "tau": 100.0},
    "cutoffs": {"lambda_ir": 1e-6, "omega_uv": 10.0, "beta": None},
    "charge": {"Q": 1.0, "alpha": 0.0072973525205},
    "quadrature": dict(QUADRATURE),
    "variants": list(ALL_VARIANTS),
    "sweep": {"parameter": "cutoffs.omega_uv", "start": 0.1, "stop": 100.0,
              "points": 13, "scale": "log"},
}


class CheckSuite(Workload):
    """`--seed <seed> check` on the default configuration."""

    name = "check_suite"

    def generate(self, seed, rundir, tiny=False):
        path = os.path.join(rundir, "check.json")
        _write_json(path, DEFAULT_CONFIG)
        return {"config": path, "out": os.path.join(rundir, "check.out.txt"), "seed": seed}

    def op(self, inputs):
        argv = ["--seed", str(inputs["seed"]), "check", "--config", inputs["config"]]
        with open(inputs["out"], "w") as fh, contextlib.redirect_stdout(fh):
            code = _cli().main(argv, environ={})
        return code, inputs["out"]

    def verify(self, inputs, exit_code, output):
        """One operation per named check plus one for the command and its exit code."""
        out = Outcome(attempted=len(CHECK_NAMES) + 1, bytes_out=_size(output))
        try:
            with open(output) as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            lines = []
            out.problems.append(f"unreadable output: {exc}")
        seen = {}
        for line in lines:
            parts = line.split(None, 2)
            if len(parts) >= 2:
                seen[parts[1]] = line
        any_fail = False
        for name in CHECK_NAMES:
            line = seen.get(name)
            if line is None:
                out.deviation(1.0)
                out.fail([(f"{name} missing", False)])
                continue
            try:
                devs = _check_deviations(line)
            except (IndexError, ValueError):
                out.deviation(1.0)
                out.fail([(f"{name}: unreadable deviation", False)])
                continue
            for dev in devs:
                out.deviation(dev)
            if not line.startswith("PASS "):
                any_fail = True
                out.fail([(line, line.startswith("FAIL "))])
        if exit_code != 0:
            out.fail([(f"exit code {exit_code}", exit_code == 3 and any_fail)])
        elif any_fail:
            out.fail([("exit code 0 with failed checks", False)])
        return out


def _check_deviations(line):
    out = []
    for label in CHECK_DEVIATION_LABELS:
        at = line.find(label)
        if at >= 0:
            out.append(float(line[at + len(label):].split()[0].rstrip(",)")))
    return out


class KinkCurrents(Workload):
    """Library loop over seeded random worldlines and photon momenta.

    The 20,000 draws are split into batches; one operation is one batch, and
    the operations cycle through the batches.  Short operations give the
    median more samples in a run.
    """

    name = "kink_currents"
    DRAWS = 20000
    TINY_DRAWS = 200
    BATCHES = 4
    MAX_SEGMENTS = 4

    def generate(self, seed, rundir, tiny=False):
        rng = np.random.default_rng([seed, 4])
        n = self.TINY_DRAWS if tiny else self.DRAWS
        m = self.MAX_SEGMENTS
        direction = rng.normal(size=(n, m, 3))
        direction /= np.linalg.norm(direction, axis=2, keepdims=True)
        speed = rng.uniform(0.0, 0.5, size=(n, m, 1))
        nhat = rng.normal(size=(n, 3))
        nhat /= np.linalg.norm(nhat, axis=1, keepdims=True)
        tau = rng.uniform(1.0, 100.0, size=n)
        path = os.path.join(rundir, "worldlines.npz")
        np.savez(
            path,
            segments=rng.integers(2, m + 1, size=n),
            start=rng.uniform(-1.0, 1.0, size=(n, 4)),
            v3=direction * speed,
            duration=rng.uniform(0.1, 2.0, size=(n, m)),
            omega=10.0 ** rng.uniform(-4.0, 1.0, size=n),
            nhat=nhat,
            l=rng.uniform(0.01, 0.5, size=n) * tau,
            tau=tau,
        )
        return {"worldlines": path}

    def prepare(self, inputs):
        """Draws as plain Python values, so that the timed loop converts nothing."""
        with np.load(inputs["worldlines"]) as z:
            cols = {k: z[k].tolist() for k in z.files}
        draws = [
            (cols["start"][i], list(zip(cols["v3"][i], cols["duration"][i]))[: cols["segments"][i]],
             cols["omega"][i], cols["nhat"][i], cols["l"][i], cols["tau"][i])
            for i in range(len(cols["tau"]))
        ]
        size = -(-len(draws) // self.BATCHES)
        batches = [draws[i:i + size] for i in range(0, len(draws), size)]
        return {**inputs, "batches": batches, "next": itertools.count()}

    def op(self, inputs):
        from softdeco import currents, kinematics

        batches = inputs["batches"]
        results = []
        for start, segments, omega, nhat, l, tau in batches[next(inputs["next"]) % len(batches)]:
            w = build_worldline(start, segments)
            g = kinematics.InterferometerGeometry(l, tau)
            q = kinematics.PhotonMomentum(omega, nhat)
            results.append((
                q,
                currents.current_fourier(w, q),
                currents.soft_decompose(w, q),
                currents.delta_current(g, q, mode="exact"),
                currents.delta_current_parts(g, q),
            ))
        return 0, results

    def verify(self, inputs, exit_code, output):
        """Current conservation |q.j| / |j| of every current, one draw per operation."""
        out = Outcome(attempted=len(output))
        for i, (q, full, triple, delta, parts) in enumerate(output):
            ratio = max(
                _conservation(q, (full, triple.j_div, triple.j_sub), triple.j_hard),
                _conservation(q, (delta, parts.j_div, parts.j_sub), parts.j_hard),
            )
            out.deviation(ratio)
            if not ratio <= CONSERVATION_TOL:
                out.fail([(f"draw {i}: |q.j|/|j| = {ratio:.3e}", False)])
        return out


def build_worldline(start, segments):
    """Chain straight segments from a start event; the trace names this span."""
    from softdeco import kinematics

    event = kinematics.FourVector(*start)
    chain = []
    for v3, duration in segments:
        seg = kinematics.WorldlineSegment(event, kinematics.four_velocity(v3), duration)
        chain.append(seg)
        event = seg.end_event
    return kinematics.Worldline(chain)


def _conservation(q, js, remainder):
    """Largest |q.j| over js and the remainder, relative to the largest of js.

    Round-off in a remainder such as j_hard is absolute, set by the currents
    it was subtracted from, so it is measured against their scale.
    """
    qv = np.array([q.omega, -q.omega * q.n_hat[0], -q.omega * q.n_hat[1], -q.omega * q.n_hat[2]])
    comps = np.array([[j.t, j.x, j.y, j.z] for j in (*js, remainder)], dtype=complex)
    scale = float(np.max(np.linalg.norm(comps[:-1], axis=1)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(comps @ qv))) / scale


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


WORKLOADS = {w.name: w for w in (GammaWideband(), SweepSpeed(), CheckSuite(), KinkCurrents())}
