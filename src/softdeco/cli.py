"""Batch front-end: config-driven decoherence runs, sweeps and invariant checks.

Exit codes: 0 ok, 1 config error, 2 quadrature non-convergence, 3 check
failure.  Config is a JSON document; any key may be overridden with an
environment variable SOFTDECO_<KEY_PATH> (path segments joined by
underscores and uppercased, e.g. SOFTDECO_CUTOFFS_OMEGA_UV).
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import io
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import currents, decoherence, experiment, kinematics, numerics, whichpath

__all__ = ["main", "entrypoint", "ConfigError", "load_config"]

ENV_PREFIX = "SOFTDECO_"

CSV_COLUMNS = [
    "sweep_param",
    "value",
    "gamma_full",
    "gamma_dressed",
    "gamma_sub",
    "gamma_hard",
    "closed_dressed",
    "closed_sub",
    "closed_hard",
    "D",
    "V_max",
    "err_est",
    "status",
]

DEFAULT_CONFIG = {
    "geometry": {"l": 1.0, "tau": 100.0},
    "cutoffs": {"lambda_ir": 0.0, "omega_uv": 10.0, "beta": None},
    "charge": {"Q": 1.0, "alpha": numerics.FINE_STRUCTURE_ALPHA},
    "quadrature": {
        "n_theta": 48,
        "n_phi": 96,
        "panels_per_period": 4,
        "rel_tol": 1e-8,
        "abs_tol": 1e-12,
    },
    "sweep": None,
    "slit": None,
    "mirror": None,
}

_SWEEP_KEYS = {"parameter", "start", "stop", "points", "scale"}
# sweep, slit and mirror default to None, so their keys are listed here
_BLOCK_KEYS = {
    "sweep": _SWEEP_KEYS,
    "slit": {f.name for f in dataclasses.fields(experiment.SlitGeometry)},
    "mirror": {f.name for f in dataclasses.fields(experiment.ParticleMirror)},
}


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        super().__init__(f"config error at '{key}': {message}")
        self.key = key


def _known_paths():
    """Every key path a config may set: each block and each key in it."""
    paths = []
    for block, keys in DEFAULT_CONFIG.items():
        paths.append((block,))
        paths.extend((block, key) for key in keys or _BLOCK_KEYS[block])
    return paths


def _deep_merge(base: dict, extra: dict):
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_merge(base[key], val)
        else:
            base[key] = val


def _apply_env_overrides(cfg: dict, environ):
    paths = {("_".join(p)).upper(): p for p in _known_paths()}
    for name, raw in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        suffix = name[len(ENV_PREFIX) :]
        path = paths.get(suffix)
        if path is None:
            raise ConfigError(name, "unknown override key")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        for seg in path[:-1]:
            if node.get(seg) is None:
                node[seg] = {}
            node = node[seg]
        node[path[-1]] = value


def _require_number(cfg, dotted, minimum=None, strict=False, allow_none=False):
    node = cfg
    for seg in dotted.split("."):
        if not isinstance(node, dict) or seg not in node:
            raise ConfigError(dotted, "missing key")
        node = node[seg]
    if node is None:
        if allow_none:
            return None
        raise ConfigError(dotted, "must not be null")
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        raise ConfigError(dotted, f"expected a number, got {node!r}")
    try:
        value = float(node)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(dotted, f"must be finite, got {value}")
    if minimum is not None:
        if strict and not node > minimum:
            raise ConfigError(dotted, f"must be > {minimum}, got {node}")
        if not strict and not node >= minimum:
            raise ConfigError(dotted, f"must be >= {minimum}, got {node}")
    return value


def _check_keys(cfg: dict):
    """Reject a key that no block lists, so that a misspelling cannot leave a default in force."""
    # "variants" is retired: a config file may still carry it, and it is ignored
    unknown = sorted(cfg.keys() - DEFAULT_CONFIG.keys() - {"variants"})
    if unknown:
        raise ConfigError(unknown[0], "unknown key")
    for block, keys in DEFAULT_CONFIG.items():
        node = cfg[block]
        if isinstance(node, dict):
            unknown = sorted(node.keys() - (keys or _BLOCK_KEYS[block]))
            if unknown:
                raise ConfigError(f"{block}.{unknown[0]}", "unknown key")


class _Bound(NamedTuple):
    """What a number of the run point must be: >= minimum (> when strict), null or an integer."""

    minimum: float | None = None
    strict: bool = False
    nullable: bool = False
    integer: bool = False


# every number of the run point, in the order _validate checks them; a sweep sets one
_NUMBERS = {
    "geometry.l": _Bound(0.0),
    "geometry.tau": _Bound(0.0, strict=True),
    "cutoffs.lambda_ir": _Bound(0.0),
    "cutoffs.omega_uv": _Bound(0.0, strict=True),
    "cutoffs.beta": _Bound(0.0, strict=True, nullable=True),
    "charge.Q": _Bound(),
    "charge.alpha": _Bound(0.0, strict=True),
    "quadrature.n_theta": _Bound(8, integer=True),
    "quadrature.n_phi": _Bound(16, integer=True),
    "quadrature.panels_per_period": _Bound(4, integer=True),
    "quadrature.rel_tol": _Bound(0.0, strict=True),
    "quadrature.abs_tol": _Bound(0.0, strict=True),
}


def _check_number(cfg, key):
    bound = _NUMBERS[key]
    val = _require_number(cfg, key, bound.minimum, bound.strict, bound.nullable)
    if bound.integer and val != int(val):
        raise ConfigError(key, "must be an integer")


def _number(cfg, key):
    """A number of the run point that _check_number has passed."""
    block, name = key.split(".")
    return float(cfg[block][name])


def _speed_below_light(cfg):
    speed = _number(cfg, "geometry.l") / _number(cfg, "geometry.tau")
    if speed >= 1.0:
        raise ConfigError("geometry.l", f"speed l/tau = {speed} must be < 1")


def _ir_below_uv(cfg):
    if _number(cfg, "cutoffs.lambda_ir") >= _number(cfg, "cutoffs.omega_uv"):
        raise ConfigError("cutoffs.lambda_ir", "must be < cutoffs.omega_uv")


# the limits that tie two numbers together, each with the numbers it reads
_LIMITS = (
    (("geometry.l", "geometry.tau"), _speed_below_light),
    (("cutoffs.lambda_ir", "cutoffs.omega_uv"), _ir_below_uv),
)


def _validate_swept(cfg, key):
    """Check a config that differs from a valid one only at key: key itself and the limits that read it.

    This raises the ConfigError that _validate would raise on cfg.
    """
    _check_number(cfg, key)
    for keys, limit in _LIMITS:
        if key in keys:
            limit(cfg)


def _validate(cfg: dict):
    for key in _NUMBERS:
        _check_number(cfg, key)
        # a limit is checked as soon as every number it reads has passed
        for keys, limit in _LIMITS:
            if keys[-1] == key:
                limit(cfg)
    sweep = cfg.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError("sweep", "must be an object")
        missing = _SWEEP_KEYS - set(sweep)
        if missing:
            raise ConfigError("sweep", f"missing keys: {sorted(missing)}")
        if sweep["scale"] not in ("linear", "log"):
            raise ConfigError("sweep.scale", "must be 'linear' or 'log'")
        pts = sweep["points"]
        if not isinstance(pts, int) or isinstance(pts, bool) or pts < 0:
            raise ConfigError("sweep.points", "must be a non-negative integer")
        param = sweep["parameter"]
        if not isinstance(param, str) or param not in _NUMBERS:
            raise ConfigError("sweep.parameter", f"not a sweepable number: {param!r}")
        for key in ("sweep.start", "sweep.stop"):
            if _require_number(cfg, key) <= 0 and sweep["scale"] == "log":
                raise ConfigError(key, "log scale requires a value > 0")


def load_config(path: str | None, environ=None) -> dict:
    """Load, merge and validate a run configuration."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(path, "file not found")
        except json.JSONDecodeError as exc:
            raise ConfigError(path, f"invalid JSON at line {exc.lineno} column {exc.colno}")
        if not isinstance(user, dict):
            raise ConfigError(path, "top level must be an object")
        _deep_merge(cfg, user)
    _apply_env_overrides(cfg, environ if environ is not None else os.environ)
    _check_keys(cfg)
    _validate(cfg)
    return cfg


def _point(cfg):
    """The run point of a validated config: (geometry, cutoffs, spec, e^2)."""
    g, c, q, ch = cfg["geometry"], cfg["cutoffs"], cfg["quadrature"], cfg["charge"]
    geom = kinematics.InterferometerGeometry(g["l"], g["tau"])
    cut = decoherence.CutoffSet(
        omega_uv=c["omega_uv"], lambda_ir=c["lambda_ir"], beta=c["beta"]
    )
    spec = numerics.QuadratureSpec(
        n_theta=int(q["n_theta"]),
        n_phi=int(q["n_phi"]),
        panels_per_period=int(q["panels_per_period"]),
        rel_tol=q["rel_tol"],
        abs_tol=q["abs_tol"],
    )
    return geom, cut, spec, 4.0 * math.pi * ch["alpha"] * ch["Q"] ** 2


def _emit(text, out_path):
    """Write a command's output to out_path, or to stdout without one."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.11e}"


def _compute_point(cfg, passes=None):
    report = decoherence.decoherence_report(*_point(cfg), passes=passes)
    return report, whichpath.summarize(max(report.gamma_dressed, 0.0))


def cmd_gamma(cfg, out_path=None) -> int:
    report, summary = _compute_point(cfg)
    closed = report.closed
    payload = {
        "gamma": {
            "full": report.gamma_full,
            "dressed": report.gamma_dressed,
            "sub": report.gamma_sub,
            "hard": report.gamma_hard,
        },
        "closed_form": {
            "dressed": closed.dressed,
            "sub": closed.sub,
            "hard": closed.hard,
            "dressed_asymptotic": closed.dressed_asymptotic,
            "sub_asymptotic": closed.sub_asymptotic,
            "hard_asymptotic": closed.hard_asymptotic,
            "hard_halved": closed.hard_halved,
        },
        "deviation": {
            "dressed": _rel_dev(report.gamma_dressed, closed.dressed),
            "sub": _rel_dev(report.gamma_sub, closed.sub),
            "hard": _rel_dev(report.gamma_hard, closed.hard),
        },
        "error_estimates": report.errors,
        "which_path": {
            "D": summary.distinguishability,
            "V_max": summary.visibility_bound,
            "overlap": summary.overlap,
            "guess_bound": summary.guess_bound,
        },
        "converged": report.converged,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)
    return 0 if report.converged else 2


def _rel_dev(a, b):
    if b == 0:
        return abs(a - b)
    return abs(a - b) / abs(b)


def _sweep_values(sweep):
    n = sweep["points"]
    if n == 0:
        return np.array([])
    if n == 1:
        return np.array([float(sweep["start"])])
    if sweep["scale"] == "log":
        return np.geomspace(sweep["start"], sweep["stop"], n)
    return np.linspace(sweep["start"], sweep["stop"], n)


def _sweep_row(cfg, param, value, passes):
    # a copy of the swept block only: the row reads the other blocks of cfg
    block, key = param.split(".")
    point_cfg = {**cfg, block: {**cfg[block], key: float(value)}}
    row = {col: "" for col in CSV_COLUMNS}
    row["sweep_param"] = param
    row["value"] = _fmt(float(value))
    try:
        _validate_swept(point_cfg, param)
        report, summary = _compute_point(point_cfg, passes)
        cells = {
            "gamma_full": report.gamma_full,
            "gamma_dressed": report.gamma_dressed,
            "gamma_sub": report.gamma_sub,
            "gamma_hard": report.gamma_hard,
            "closed_dressed": report.closed.dressed,
            "closed_sub": report.closed.sub,
            "closed_hard": report.closed.hard,
            "D": summary.distinguishability,
            "V_max": summary.visibility_bound,
            "err_est": max(report.errors.values()),
        }
        for key, val in cells.items():
            if val is not None and not math.isfinite(val):
                row["status"] = "non-finite"
                return row
        for key, val in cells.items():
            row[key] = _fmt(val)
        # a converged pass's err_est is round-off: only 2 digits survive a new summation order
        row["err_est"] = f"{cells['err_est']:.1e}"
        row["status"] = "ok" if report.converged else "non-converged"
    except ValueError as exc:
        row["status"] = f"error: {exc}"
    return row


def cmd_sweep(cfg, out_path) -> int:
    sweep = cfg.get("sweep")
    if sweep is None:
        raise ConfigError("sweep", "sweep block required for the sweep command")
    # the angular and frequency passes of this sweep, shared by its rows
    passes = {}
    rows = [_sweep_row(cfg, sweep["parameter"], v, passes) for v in _sweep_values(sweep)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([row[col] for col in CSV_COLUMNS] for row in rows)
    _emit(buf.getvalue(), out_path)
    bad = [r for r in rows if r["status"] == "non-converged"]
    return 2 if bad else 0


def _experiment_value(cfg, block, cls):
    """Build an experiment value from a config block whose keys are all numbers."""
    if not isinstance(cfg[block], dict):
        raise ConfigError(block, "must be an object")
    for key in cfg[block]:
        _require_number(cfg, f"{block}.{key}", allow_none=key == "ell_o")
    try:
        return cls(**cfg[block])
    except (TypeError, ValueError) as exc:
        raise ConfigError(block, str(exc))


def _finite_values(block, compute):
    """The dict compute() returns, or a ConfigError at block when a number in it overflows."""
    try:
        values = compute()
    except OverflowError as exc:
        raise ConfigError(block, f"a value overflows: {exc}")
    for name, val in values.items():
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(block, f"{name} = {val} is not finite")
    return values


def _slit_values(slit):
    printed, flagged, ratio = experiment.gamma_hard_2slit(slit)
    return {
        "gamma_dressed_2slit": experiment.gamma_dressed_2slit(slit),
        "gamma_hard_2slit_printed": printed,
        "gamma_hard_2slit_with_velocity_factor": flagged,
        "gamma_hard_printed_over_flagged": ratio,
        "acceleration_A_center": experiment.slit_acceleration(slit, 0.0, "A"),
        "acceleration_B_center": experiment.slit_acceleration(slit, 0.0, "B"),
    }


def _mirror_values(mirror):
    regime = "far" if mirror.Z_o > mirror.r_o else "near"
    return {
        "vdw_potential": experiment.vdw_potential(mirror, regime),
        "vdw_regime": regime,
        "surface_coupling": experiment.surface_coupling(mirror),
        "rayleigh_rate": experiment.rayleigh_rate(mirror, mirror.q),
    }


def cmd_estimate_slit(cfg, out_path=None) -> int:
    if cfg.get("slit") is None:
        raise ConfigError("slit", "slit block required for estimate-slit")
    slit = _experiment_value(cfg, "slit", experiment.SlitGeometry)
    payload = _finite_values("slit", lambda: _slit_values(slit))
    if cfg.get("mirror") is not None:
        mirror = _experiment_value(cfg, "mirror", experiment.ParticleMirror)
        payload["mirror"] = _finite_values("mirror", lambda: _mirror_values(mirror))
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)
    return 0


# ---------------------------------------------------------------------------
# check command: named invariant suite


# a random chain: 2 to _MAX_SEGMENTS segments from a start event in
# _EVENT_RANGE^4, each a 3-velocity in _VELOCITY_RANGE^3 and a duration
_MAX_SEGMENTS = 4
_EVENT_RANGE, _VELOCITY_RANGE, _DURATION_RANGE = (-1.0, 1.0), (-0.5, 0.5), (0.1, 2.0)


def _uniform(u, low_high):
    """random() draws u mapped onto [low, high) as Generator.uniform maps them."""
    low, high = low_high
    return low + (high - low) * u


def _chain_draw(rng):
    """The raw draws of one random chain: its segment count n, then 4 + 4n random()s.

    The first 4 are the start event; each segment then takes 3 for its
    velocity and 1 for its duration, to be mapped by _uniform.
    """
    n = int(rng.integers(2, _MAX_SEGMENTS + 1))
    return n, rng.random(4 + 4 * n)


def _random_worldline(rng) -> kinematics.Worldline:
    n_seg, u = _chain_draw(rng)
    event = kinematics.FourVector(*_uniform(u[:4], _EVENT_RANGE).tolist())
    segments = []
    for seg in u[4:].reshape(n_seg, 4):
        vel = kinematics.four_velocity(_uniform(seg[:3], _VELOCITY_RANGE))
        dur = float(_uniform(seg[3], _DURATION_RANGE))
        segments.append(kinematics.WorldlineSegment(event, vel, dur))
        event = segments[-1].end_event
    return kinematics.Worldline(segments)


def _loglog_slope(x, y):
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _random_chains(rng, count):
    """count draws of _random_worldline and of a photon momentum, as padded arrays.

    Each draw takes _random_worldline's _chain_draw, then normal(size=3) for
    the direction and random() for log10(omega) on [-2, 1], so the generator
    ends where the scalar draws leave it.  Chains of fewer than
    _MAX_SEGMENTS segments repeat their last velocity for zero time.  Returns
    events (count, m + 1, 4), velocities (count, m, 4) and q (count, 4), with
    m = _MAX_SEGMENTS, in the layout of currents.chain_currents.
    """
    m = _MAX_SEGMENTS
    n_seg, uniforms, normals, exponents = [], [], [], []
    for _ in range(count):
        n, u = _chain_draw(rng)
        n_seg.append(n)
        uniforms.append(u)
        normals.append(rng.normal(size=3))
        exponents.append(rng.random())
    n_seg = np.array(n_seg)
    raw = np.zeros((count, 4 + 4 * m))
    raw[np.arange(4 + 4 * m) < 4 + 4 * n_seg[:, None]] = np.concatenate(uniforms)
    # a padded segment takes the draws of the chain's last one, for zero time
    last = np.minimum(np.arange(m), n_seg[:, None] - 1)
    segs = np.take_along_axis(raw[:, 4:].reshape(count, m, 4), last[..., None], axis=1)
    v3 = _uniform(segs[..., :3], _VELOCITY_RANGE)
    live = np.arange(m) < n_seg[:, None]
    duration = np.where(live, _uniform(segs[..., 3], _DURATION_RANGE), 0.0)
    gamma = 1.0 / np.sqrt(1.0 - (v3[..., 0] ** 2 + v3[..., 1] ** 2 + v3[..., 2] ** 2))
    velocities = np.concatenate([gamma[..., None], gamma[..., None] * v3], axis=-1)
    events = np.empty((count, m + 1, 4))
    events[:, 0] = _uniform(raw[:, :4], _EVENT_RANGE)
    for k in range(m):
        events[:, k + 1] = events[:, k] + duration[:, k, None] * velocities[:, k]
    normals = np.array(normals)
    n_hat = normals / np.sqrt((normals**2).sum(axis=1, keepdims=True))
    omega = 10.0 ** _uniform(np.array(exponents), (-2.0, 1.0))
    q = omega[:, None] * np.concatenate([np.ones((count, 1)), n_hat], axis=1)
    return events, velocities, q


def _check_conservation(cfg, rng):
    events, velocities, q = _random_chains(rng, 200)
    pieces = currents.chain_currents(events, velocities, q)

    def dot_q(j):
        return q[:, 0] * j[:, 0] - q[:, 1] * j[:, 1] - q[:, 2] * j[:, 2] - q[:, 3] * j[:, 3]

    # round-off in the hard remainder is absolute, set by the size of the
    # currents it was subtracted from, so normalize by that scale
    scale = np.max([np.sqrt((np.abs(j) ** 2).sum(axis=1)) for j in pieces[:3]], axis=0)
    drawn = scale > 0
    residual = np.max([np.abs(dot_q(j)) for j in pieces], axis=0)
    worst = float(np.max(residual[drawn] / scale[drawn], initial=0.0))
    return worst <= 1e-12, f"max |q.j|/|j| = {worst:.3e}"


def _check_soft_scaling(cfg, rng):
    w = _random_worldline(rng)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    omegas = np.geomspace(1e-8, 1e-4, 9)
    mags = {"div": [], "sub": [], "hard": []}
    for om in omegas:
        t = currents.soft_decompose(w, kinematics.PhotonMomentum(float(om), n))
        mags["div"].append(t.j_div.norm())
        mags["sub"].append(t.j_sub.norm())
        mags["hard"].append(t.j_hard.norm())
    slopes = {k: _loglog_slope(omegas, v) for k, v in mags.items()}
    ok = (
        abs(slopes["div"] + 1.0) < 0.01
        and abs(slopes["sub"]) < 0.01
        and abs(slopes["hard"] - 1.0) < 0.01
    )
    return ok, f"slopes div={slopes['div']:.4f} sub={slopes['sub']:.4f} hard={slopes['hard']:.4f}"


def _check_sphere_identity(cfg, rng):
    spec = _point(cfg)[2]
    worst = 0.0
    for v in (0.1, 0.3, 0.6, 0.9):
        def f(nx, ny, nz, v=v):
            return 1.0 / (1.0 - v * nz)

        got = numerics.sphere_integrate(f, spec).value
        want = 4.0 * math.pi * numerics.atanh_over_x(v)
        worst = max(worst, abs(got - want) / want)
    return worst <= 1e-8, f"max relative deviation {worst:.3e}"


def _check_freq_identity(cfg, rng):
    # the rule every Gamma goes through: panels over the first periods, and
    # the split form 2/w - 2 cos(w)/w on the Filon tail above them
    spec = _point(cfg)[2]
    worst = 0.0
    for x in (1.0, 10.0, 1e3, 1e6):
        _, fine = numerics.freq_integrate_rows(
            lambda om: 2.0 * (1.0 - np.cos(om)) / om,
            [0.0, x],
            1.0,
            spec,
            split=lambda om: np.stack([2.0 / om, -2.0 / om, np.zeros_like(om)]),
        )
        got = float(fine[0])
        want = 2.0 * (
            numerics.EULER_GAMMA + math.log(x) - numerics.cosine_integral(x)
        )
        worst = max(worst, abs(got - want) / abs(want))
    return worst <= 1e-8, f"max relative deviation {worst:.3e}"


def _check_dressed_closed_form(cfg, rng):
    geom, cut, spec, e2 = _point(cfg)
    if geom.v == 0:
        return True, "trivial at v = 0"
    # the closed form is the zero-temperature one
    cut = dataclasses.replace(cut, beta=None)
    got = decoherence.gamma(geom, cut, "dressed", spec, e2).value
    want = decoherence.closed_forms(geom, cut, e2).dressed
    dev = abs(got - want) / want
    return dev <= 1e-6, f"relative deviation {dev:.3e}"


def _check_duality(cfg, rng):
    gammas = np.linspace(0.0, 20.0, 81)
    worst = 0.0
    for gm in gammas:
        s = whichpath.summarize(float(gm))
        worst = max(
            worst, abs(s.distinguishability**2 + s.visibility_bound**2 - 1.0)
        )
    return worst <= 1e-12, f"max |D^2 + V^2 - 1| = {worst:.3e}"


def _ladder_point(cfg):
    """The run point at zero temperature, with the IR ladder's top rung as lambda_ir.

    Gamma_full also carries the (lambda tau)^2 / 4 of Cin(lambda tau), which
    a + b ln(1/lambda) cannot fit: from lambda tau = 1e-4 it moves the fitted
    b by 1.4e-9 relative, from 1e-6 by about 1e-14.
    """
    geom, cut, spec, e2 = _point(cfg)
    return geom, dataclasses.replace(cut, lambda_ir=1e-6 / geom.tau, beta=None), spec, e2


def _check_divergence_full(cfg, rng):
    geom, cut, spec, e2 = _ladder_point(cfg)
    if geom.v == 0:
        return True, "trivial at v = 0"
    fit = decoherence.divergence_coefficient(geom, cut, spec, e2, variant="full")
    want = decoherence.closed_forms(geom, cut, e2).ir_slope
    dev = abs(fit.coefficient - want) / want
    return dev <= 1e-3 and fit.ok, f"relative deviation {dev:.3e}, R^2 = {fit.r_squared}"


def _check_divergence_dressed(cfg, rng):
    geom, cut, spec, e2 = _ladder_point(cfg)
    if geom.v == 0:
        return True, "trivial at v = 0"
    fit = decoherence.divergence_coefficient(geom, cut, spec, e2, variant="dressed")
    bound = 1e-4 * e2 * geom.v**2
    return abs(fit.coefficient) <= bound, f"|b| = {abs(fit.coefficient):.3e} vs bound {bound:.3e}"


def _check_boundary_soft_theorem(cfg, rng):
    worst = None
    for _ in range(3):
        w = _random_worldline(rng)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        omegas = np.geomspace(1e-5, 1e-2, 7)
        resid = []
        for om in omegas:
            q = kinematics.PhotonMomentum(float(om), n)
            j = currents.current_fourier(w, q)
            s0f, s1f = currents.soft_factors(q, w.end_event, w.final_velocity)
            s0i, s1i = currents.soft_factors(q, w.start_event, w.initial_velocity)
            pred = (s0f - s0i) + (s1f - s1i)
            diff = 1j * j.conjugate() - pred
            resid.append(diff.norm())
        slope = _loglog_slope(omegas, np.array(resid))
        dev = abs(slope - 1.0)
        worst = dev if worst is None else max(worst, dev)
    return worst <= 0.02, f"max slope deviation {worst:.4f}"


CHECKS = [
    ("conservation_random_draws", _check_conservation),
    ("soft_scaling_exponents", _check_soft_scaling),
    ("sphere_vs_closed_form", _check_sphere_identity),
    ("freq_vs_closed_form", _check_freq_identity),
    ("dressed_vs_closed_form", _check_dressed_closed_form),
    ("duality_identity", _check_duality),
    ("divergence_coefficient_full", _check_divergence_full),
    ("divergence_coefficient_dressed", _check_divergence_dressed),
    ("boundary_soft_theorem", _check_boundary_soft_theorem),
]


def cmd_check(cfg, seed=0) -> int:
    rng = np.random.default_rng(seed)
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn(cfg, rng)
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    return 0 if all_ok else 3


# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="softdeco",
        description="Infrared-photon decoherence of a two-path interferometer",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; sweep rows always run in order, so it has no effect",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for random draws")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gamma = sub.add_parser("gamma", help="compute decoherence for one configuration")
    p_gamma.add_argument("--config", required=True)
    p_gamma.add_argument("--out")

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)

    p_check = sub.add_parser("check", help="run the invariant suite")
    p_check.add_argument("--config")

    p_slit = sub.add_parser("estimate-slit", help="two-slit / mirror estimators")
    p_slit.add_argument("--config", required=True)
    p_slit.add_argument("--out")
    return parser


def main(argv=None, environ=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(getattr(args, "config", None), environ=environ)
        if args.command == "gamma":
            return cmd_gamma(cfg, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out)
        if args.command == "check":
            return cmd_check(cfg, seed=args.seed)
        if args.command == "estimate-slit":
            return cmd_estimate_slit(cfg, args.out)
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except decoherence.IRDivergenceError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
