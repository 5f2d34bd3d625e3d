import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from softdeco import cli, currents, decoherence, kinematics


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


BASE = {
    "geometry": {"l": 1.0, "tau": 100.0},
    "cutoffs": {"lambda_ir": 1e-6, "omega_uv": 10.0},
    "variants": ["full", "dressed", "sub", "hard"],
}


def test_load_config_defaults():
    cfg = cli.load_config(None, environ={})
    assert cfg["geometry"]["tau"] == 100.0
    assert cfg["quadrature"]["n_theta"] == 48


def test_load_config_merge(tmp_path):
    path = write_config(tmp_path, {"geometry": {"l": 2.0}})
    cfg = cli.load_config(path, environ={})
    assert cfg["geometry"]["l"] == 2.0
    assert cfg["geometry"]["tau"] == 100.0  # untouched default


def test_env_overrides(tmp_path):
    path = write_config(tmp_path, BASE)
    env = {"SOFTDECO_CUTOFFS_OMEGA_UV": "25.0", "SOFTDECO_GEOMETRY_L": "0.5"}
    cfg = cli.load_config(path, environ=env)
    assert cfg["cutoffs"]["omega_uv"] == 25.0
    assert cfg["geometry"]["l"] == 0.5


def test_env_override_unknown_key():
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, environ={"SOFTDECO_NO_SUCH_KEY": "1"})


def test_config_error_reporting(tmp_path):
    missing = cli.main(["gamma", "--config", str(tmp_path / "nope.json")], environ={})
    assert missing == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(cli.ConfigError, match="line 2"):
        cli.load_config(str(bad), environ={})


def test_superluminal_rejected(tmp_path):
    path = write_config(tmp_path, {"geometry": {"l": 200.0, "tau": 100.0}})
    assert cli.main(["gamma", "--config", path], environ={}) == 1


def test_full_variant_needs_ir_cutoff(tmp_path, capsys):
    # gamma_full is reported exactly when lambda_ir > 0; the library refusal
    # at lambda_ir = 0 is test_decoherence.py::test_full_requires_ir_cutoff
    cfg = dict(BASE)
    cfg["cutoffs"] = {"lambda_ir": 0.0, "omega_uv": 10.0}
    path = write_config(tmp_path, cfg)
    assert cli.main(["gamma", "--config", path], environ={}) == 0
    assert json.loads(capsys.readouterr().out)["gamma"]["full"] is None
    path = write_config(tmp_path, BASE)
    assert cli.main(["gamma", "--config", path], environ={}) == 0
    assert json.loads(capsys.readouterr().out)["gamma"]["full"] > 0


@pytest.mark.parametrize(
    "key, raw",
    [
        ("geometry.tau", "Infinity"),
        ("geometry.l", "NaN"),
        ("cutoffs.omega_uv", "Infinity"),
        ("cutoffs.beta", "Infinity"),
        ("charge.Q", "-Infinity"),
        pytest.param("cutoffs.omega_uv", "1" + "0" * 400, id="cutoffs.omega_uv-1e400"),
    ],
)
@pytest.mark.parametrize("source", ["file", "env"])
def test_nonfinite_numbers_rejected(tmp_path, capsys, key, raw, source):
    # zero temperature is beta: null, so beta: Infinity is an error too; an
    # integer literal beyond the float range counts as infinite
    block, name = key.split(".")
    path = tmp_path / "cfg.json"
    env = {}
    if source == "file":
        path.write_text(f'{{"{block}": {{"{name}": {raw}}}}}')
    else:
        path.write_text("{}")
        env = {f"SOFTDECO_{block}_{name}".upper(): raw}
    with pytest.raises(cli.ConfigError, match=re.escape(f"'{key}': must be finite")):
        cli.load_config(str(path), environ=env)
    assert cli.main(["gamma", "--config", str(path)], environ=env) == 1
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value", [("start", math.inf), ("stop", math.nan), ("start", "1"), ("stop", None)]
)
def test_sweep_bounds_must_be_finite_numbers(tmp_path, key, value):
    cfg = _sweep_cfg()
    cfg["sweep"][key] = value
    path = write_config(tmp_path, cfg)
    with pytest.raises(cli.ConfigError, match=f"'sweep.{key}'"):
        cli.load_config(path, environ={})
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "x.csv")], environ={}) == 1


@pytest.mark.parametrize(
    "key, value", [("points", True), ("points", False), ("stop", -0.5), ("stop", 0.0), ("start", 0.0)]
)
def test_sweep_rejects_bool_points_and_non_positive_log_bounds(tmp_path, key, value):
    # a JSON true is an int to Python; a log sweep ending at stop <= 0 gave rows of NaN
    cfg = _sweep_cfg(start=0.1)
    cfg["sweep"][key] = value
    path = write_config(tmp_path, cfg)
    with pytest.raises(cli.ConfigError, match=f"'sweep.{key}'"):
        cli.load_config(path, environ={})
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "x.csv")], environ={}) == 1


@pytest.mark.parametrize(
    "key", ["geometry.lenght", "cutoffs.omega_UV", "charge.q", "quadrature.ntheta", "sweep.step"]
)
@pytest.mark.parametrize("source", ["file", "env"])
def test_unknown_key_in_a_block_rejected(tmp_path, capsys, key, source):
    # a misspelled key would leave its default in force without a word
    block, name = key.split(".")
    cfg = _sweep_cfg() if block == "sweep" else {block: {}}
    cfg[block][name] = 3
    path = tmp_path / "cfg.json"
    env = {}
    if source == "file":
        path.write_text(json.dumps(cfg))
    else:
        path.write_text("{}")
        env = {f"SOFTDECO_{block}".upper(): json.dumps(cfg[block])}
    with pytest.raises(cli.ConfigError, match=re.escape(f"'{key}': unknown key")):
        cli.load_config(str(path), environ=env)
    assert cli.main(["gamma", "--config", str(path)], environ=env) == 1
    assert f"'{key}'" in capsys.readouterr().err


def test_misspelled_top_level_block_rejected(tmp_path, capsys):
    # {"cutof": ...} would leave the default cutoffs in force without a word
    path = write_config(tmp_path, {**BASE, "cutof": {"omega_uv": 5.0}})
    with pytest.raises(cli.ConfigError, match=re.escape("'cutof': unknown key")):
        cli.load_config(path, environ={})
    assert cli.main(["gamma", "--config", path], environ={}) == 1
    assert "'cutof': unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["slit.a_0", "mirror.Zo"])
def test_unknown_key_in_an_experiment_block_rejected_at_load(tmp_path, capsys, key):
    # caught when the config loads, for every command, not only by estimate-slit
    block, name = key.split(".")
    path = write_config(tmp_path, {block: {name: 1.0}})
    with pytest.raises(cli.ConfigError, match=re.escape(f"'{key}': unknown key")):
        cli.load_config(path, environ={})
    assert cli.main(["gamma", "--config", path], environ={}) == 1
    assert f"'{key}': unknown key" in capsys.readouterr().err


def test_variants_key_is_gone(tmp_path):
    # a config file that still carries it loads; as an override it is unknown
    cli.load_config(write_config(tmp_path, {"variants": ["full"]}), environ={})
    with pytest.raises(cli.ConfigError, match="SOFTDECO_VARIANTS"):
        cli.load_config(None, environ={"SOFTDECO_VARIANTS": '["sub"]'})


def test_gamma_command_output(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "out.json"
    code = cli.main(["gamma", "--config", path, "--out", str(out)], environ={})
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["converged"]
    assert payload["gamma"]["dressed"] > 0
    assert payload["gamma"]["full"] > 0
    assert payload["deviation"]["dressed"] < 1e-6
    d, v = payload["which_path"]["D"], payload["which_path"]["V_max"]
    assert d * d + v * v == pytest.approx(1.0, abs=1e-12)


def test_gamma_zero_side_geometry(tmp_path, capsys):
    cfg = {"geometry": {"l": 0.0, "tau": 100.0}}
    path = write_config(tmp_path, cfg)
    assert cli.main(["gamma", "--config", path], environ={}) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma"]["dressed"] == 0.0
    assert payload["which_path"]["D"] == 0.0
    assert payload["which_path"]["V_max"] == 1.0


def test_gamma_near_light_speed(tmp_path, capsys):
    # the arms' relative speed v12 = v sqrt(2 - v^2) rounds to 1 here, so the
    # closed form must not take atanh(v12) directly
    cfg = {**BASE, "geometry": {"l": 0.99999999999999, "tau": 1.0}}
    path = write_config(tmp_path, cfg)
    assert cli.main(["gamma", "--config", path], environ={}) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"]
    assert max(payload["deviation"].values()) < 1e-14


def _sweep_cfg(points=5, start=1.0, stop=100.0, parameter="cutoffs.omega_uv"):
    cfg = json.loads(json.dumps(BASE))
    cfg["sweep"] = {
        "parameter": parameter,
        "start": start,
        "stop": stop,
        "points": points,
        "scale": "log",
    }
    return cfg


def test_sweep_csv_shape(tmp_path):
    cfg = _sweep_cfg(points=4)
    cfg["cutoffs"]["lambda_ir"] = 0.0
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", path, "--out", str(out)], environ={}) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 5
    row = lines[1].split(",")
    assert row[0] == "cutoffs.omega_uv"
    assert row[-1] == "ok"
    assert row[2] == ""  # gamma_full blank: lambda_ir = 0
    # 12 significant digits in scientific notation
    assert "e" in row[3] and len(row[3].split("e")[0].replace("-", "").replace(".", "")) == 12


def test_default_sweep_err_est_has_two_significant_digits(tmp_path):
    # err_est is the round-off of a converged pass; more digits would not repeat
    config = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)], environ={}) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 13
    for row in rows:
        assert re.fullmatch(r"\d\.\de[+-]\d\d", row["err_est"]), row["err_est"]


def test_sweep_determinism(tmp_path):
    path = write_config(tmp_path, _sweep_cfg(points=3))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["sweep", "--config", path, "--out", str(out1)], environ={})
    cli.main(["--threads", "3", "sweep", "--config", path, "--out", str(out2)], environ={})
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_empty(tmp_path):
    path = write_config(tmp_path, _sweep_cfg(points=0))
    out = tmp_path / "empty.csv"
    assert cli.main(["sweep", "--config", path, "--out", str(out)], environ={}) == 0
    assert out.read_text() == ",".join(cli.CSV_COLUMNS) + "\n"


def test_sweep_failed_rows_recorded(tmp_path):
    # sweeping l across tau makes the tail rows superluminal; they must be
    # flagged and the run must still complete
    cfg = _sweep_cfg(points=4, start=50.0, stop=400.0, parameter="geometry.l")
    cfg["sweep"]["scale"] = "linear"
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", path, "--out", str(out)], environ={}) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5
    statuses = [ln.split(",")[-1] for ln in lines[1:]]
    assert statuses[0] == "ok"
    assert any(s.startswith("error") for s in statuses)


def test_sweep_status_with_comma_stays_one_cell(tmp_path):
    # the config error for l = -1 contains a comma; the row must still parse
    # back to one cell per column, and comma-free rows stay unquoted
    cfg = _sweep_cfg(points=2, start=-1.0, stop=1.0, parameter="geometry.l")
    cfg["sweep"]["scale"] = "linear"
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", path, "--out", str(out)], environ={}) == 0
    text = out.read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert [len(r) for r in rows] == [len(cli.CSV_COLUMNS)] * 3
    assert rows[1][-1] == "error: config error at 'geometry.l': must be >= 0.0, got -1.0"
    assert rows[2][-1] == "ok"
    assert text.splitlines()[2] == ",".join(rows[2])


# a value of each number that breaks its bound, or a limit that reads it,
# at the default point with lambda_ir = 1e-6 (l = 1, tau = 100, omega_uv = 10)
_ROW_ERRORS = [
    ("geometry.l", -1.0),
    ("geometry.l", 150.0),  # l/tau >= 1
    ("geometry.tau", 0.0),
    ("geometry.tau", 0.5),  # l/tau >= 1
    ("cutoffs.lambda_ir", -1e-6),
    ("cutoffs.lambda_ir", 10.0),  # lambda_ir >= omega_uv
    ("cutoffs.omega_uv", 0.0),
    ("cutoffs.omega_uv", 1e-7),  # lambda_ir >= omega_uv
    ("cutoffs.beta", 0.0),
    ("charge.Q", math.inf),
    ("charge.alpha", -0.1),
    ("quadrature.n_theta", 7.0),
    ("quadrature.n_theta", 8.5),
    ("quadrature.n_phi", 15.0),
    ("quadrature.n_phi", 96.5),
    ("quadrature.panels_per_period", 3.0),
    ("quadrature.panels_per_period", 4.25),
    ("quadrature.rel_tol", 0.0),
    ("quadrature.abs_tol", math.nan),
]


def test_row_errors_cover_every_number():
    assert {key for key, _ in _ROW_ERRORS} == set(cli._NUMBERS)


@pytest.mark.parametrize("key, value", _ROW_ERRORS)
def test_sweep_row_reports_the_full_validation_error(key, value):
    # a row checks only its key and the limits that read it, with the same message
    cfg = cli.load_config(None, environ={"SOFTDECO_CUTOFFS_LAMBDA_IR": "1e-6"})
    block, name = key.split(".")
    with pytest.raises(cli.ConfigError) as exc:
        cli._validate({**cfg, block: {**cfg[block], name: value}})
    assert cli._sweep_row(cfg, key, value, {})["status"] == f"error: {exc.value}"


# a small point with an IR cutoff, so that every row reports all four
# variants, and with Omega tau above the panelled periods, so that the
# frequency pass runs both of its rules
_REUSE_POINT = {
    "geometry": {"l": 0.5, "tau": 2.0},
    "cutoffs": {"lambda_ir": 1e-3, "omega_uv": 300.0, "beta": None},
    "quadrature": {"n_theta": 16, "n_phi": 32},
}


def _reuse_sweep(tmp_path, parameter, start, stop, points=3):
    cfg = json.loads(json.dumps(_REUSE_POINT))
    cfg["sweep"] = {
        "parameter": parameter,
        "start": start,
        "stop": stop,
        "points": points,
        "scale": "linear",
    }
    return write_config(tmp_path, cfg, name=f"{parameter}.json")


def _sweep_bytes(path, out):
    cli.main(["sweep", "--config", path, "--out", str(out)], environ={})
    return out.read_bytes()


@pytest.mark.parametrize(
    "parameter, start, stop",
    [
        ("geometry.l", 0.2, 1.4),
        ("geometry.tau", 2.0, 6.0),
        ("cutoffs.omega_uv", 50.0, 400.0),
        ("cutoffs.lambda_ir", 1e-4, 1e-2),
        ("cutoffs.beta", 0.5, 4.0),
        ("quadrature.panels_per_period", 4.0, 8.0),
    ],
)
def test_sweep_reuse_matches_fresh_reports(tmp_path, monkeypatch, parameter, start, stop):
    path = _reuse_sweep(tmp_path, parameter, start, stop)
    report = decoherence.decoherence_report
    reports = {"reused": [], "fresh": []}

    def reused_report(*args, passes):
        reports["reused"].append(report(*args, passes=passes))
        return reports["reused"][-1]

    def fresh_report(*args, passes):
        # each row computed on its own, by a report handed no passes to reuse
        reports["fresh"].append(report(*args))
        return reports["fresh"][-1]

    monkeypatch.setattr(decoherence, "decoherence_report", reused_report)
    reused = _sweep_bytes(path, tmp_path / "reused.csv")
    monkeypatch.setattr(decoherence, "decoherence_report", fresh_report)
    fresh = _sweep_bytes(path, tmp_path / "fresh.csv")
    assert reused == fresh
    # to the last bit, which the 12 digits of the CSV may not show
    assert reports["reused"] == reports["fresh"]
    assert len({repr(r) for r in reports["fresh"]}) == 3


@pytest.mark.parametrize(
    "parameter, start, stop, angular, frequency",
    [
        ("geometry.l", 0.2, 1.4, 4, 1),
        ("cutoffs.omega_uv", 50.0, 400.0, 1, 4),
        ("charge.Q", 1.0, 2.0, 1, 1),
    ],
)
def test_sweep_computes_each_pass_once(
    tmp_path, pass_counts, parameter, start, stop, angular, frequency
):
    path = _reuse_sweep(tmp_path, parameter, start, stop, points=4)
    _sweep_bytes(path, tmp_path / "a.csv")
    want = {"angular_integral": angular, "freq_integrate": 0, "freq_integrate_rows": frequency}
    assert pass_counts == want
    # a second sweep in the same process reuses nothing from the first
    _sweep_bytes(path, tmp_path / "b.csv")
    assert pass_counts == {name: 2 * n for name, n in want.items()}


def test_repeated_gamma_runs_every_pass(tmp_path, pass_counts):
    path = write_config(tmp_path, _REUSE_POINT)
    out = str(tmp_path / "gamma.json")
    for _ in range(2):
        assert cli.main(["gamma", "--config", path, "--out", out], environ={}) == 0
    assert pass_counts == {"angular_integral": 2, "freq_integrate": 0, "freq_integrate_rows": 2}


def test_sweep_leaves_the_config_unchanged(tmp_path):
    # each row copies only the swept block; the row at l = -1 fails validation
    cfg = cli.load_config(_reuse_sweep(tmp_path, "geometry.l", -1.0, 1.4), environ={})
    before = copy.deepcopy(cfg)
    cli.cmd_sweep(cfg, str(tmp_path / "sweep.csv"))
    assert cfg == before
    statuses = [row[-1] for row in csv.reader(io.StringIO((tmp_path / "sweep.csv").read_text()))]
    assert statuses[1].startswith("error") and statuses[2:] == ["ok", "ok"]


def test_sweep_requires_block(tmp_path):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "x.csv"
    assert cli.main(["sweep", "--config", path, "--out", str(out)], environ={}) == 1


def test_sweep_parameter_validation(tmp_path):
    cfg = _sweep_cfg()
    cfg["sweep"]["parameter"] = "geometry.bogus"
    path = write_config(tmp_path, cfg)
    assert cli.main(["sweep", "--config", path, "--out", "/dev/null"], environ={}) == 1


@pytest.mark.parametrize("parameter", ["slit.a_o", "geometry"])
def test_sweep_parameter_must_be_a_number_of_the_run_point(tmp_path, parameter):
    # a None block and a block name used to pass validation, then fail per row
    cfg = _sweep_cfg()
    cfg["sweep"]["parameter"] = parameter
    path = write_config(tmp_path, cfg)
    with pytest.raises(cli.ConfigError, match="sweep.parameter"):
        cli.load_config(path, environ={})
    assert cli.main(["sweep", "--config", path, "--out", "/dev/null"], environ={}) == 1


def test_check_on_thermal_config(capsys):
    # the closed forms are at zero temperature, and so are the checks against them
    config = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    env = {"SOFTDECO_CUTOFFS_BETA": "1000"}
    assert cli.main(["check", "--config", str(config)], environ=env) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_check_command(capsys):
    assert cli.main(["check"], environ={}) == 0
    out = capsys.readouterr().out
    assert "PASS  conservation_random_draws" in out
    assert "FAIL" not in out


def _scalar_conservation(rng):
    """The conservation check as one scalar kernel call per draw: the reference."""
    worst = 0.0
    for _ in range(200):
        w = cli._random_worldline(rng)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        q = kinematics.PhotonMomentum(float(10.0 ** rng.uniform(-2, 1)), n)
        qv = q.four_vector()
        triple = currents.soft_decompose(w, q)
        full = currents.current_fourier(w, q)
        scale = max(j.norm() for j in (full, triple.j_div, triple.j_sub))
        for j in (full, triple.j_div, triple.j_sub, triple.j_hard):
            worst = max(worst, abs(qv.dot(j)) / scale)
    return worst


@pytest.mark.parametrize("seed", [0, 5, 17])
def test_conservation_check_leaves_the_generator_where_the_scalar_loop_does(seed):
    # every later check line keeps its draws; the residual moves by round-off only
    array_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ok, detail = cli._check_conservation(None, array_rng)
    want = _scalar_conservation(scalar_rng)
    assert array_rng.random() == scalar_rng.random()
    assert array_rng.bit_generator.state == scalar_rng.bit_generator.state
    got = float(detail.rsplit("= ", 1)[1])
    assert ok and got <= 1e-12 and want <= 1e-12


def test_random_chains_are_the_scalar_draws():
    rng = np.random.default_rng(3)
    events, velocities, q = cli._random_chains(np.random.default_rng(3), 200)
    for i in range(200):
        w = cli._random_worldline(rng)
        n = rng.normal(size=3)
        omega = float(10.0 ** rng.uniform(-2, 1))
        segs = w.segments
        pad = 4 - len(segs)
        want_events = [s.start_event for s in segs] + [w.end_event] * (1 + pad)
        want_velocities = [s.velocity for s in segs] + [segs[-1].velocity] * pad
        assert np.allclose(events[i], want_events, rtol=1e-15, atol=1e-15)
        assert np.allclose(velocities[i], want_velocities, rtol=1e-15, atol=0)
        assert np.allclose(q[i], omega * np.append(1.0, n / np.linalg.norm(n)), rtol=1e-15, atol=0)


@pytest.mark.parametrize("seed", range(50))
def test_conservation_check_passes(seed):
    ok, detail = cli._check_conservation(None, np.random.default_rng(seed))
    assert ok, detail


def test_estimate_slit(tmp_path, capsys):
    cfg = {
        "slit": {
            "a_o": 1e-6,
            "b_o": 5e-7,
            "d_o": 2e-6,
            "L_o": 1e-2,
            "v_over_c": 0.01,
        }
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["estimate-slit", "--config", path], environ={}) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma_dressed_2slit"] == pytest.approx(1.1410110888e-5, rel=1e-9, abs=0)
    assert payload["gamma_hard_printed_over_flagged"] == pytest.approx(2e4, rel=1e-14, abs=0)
    assert "mirror" not in payload


def test_estimate_slit_requires_block(tmp_path):
    path = write_config(tmp_path, {"geometry": {"l": 1.0, "tau": 10.0}})
    assert cli.main(["estimate-slit", "--config", path], environ={}) == 1


def test_estimate_slit_with_mirror(tmp_path, capsys):
    cfg = {
        "slit": {
            "a_o": 1e-6,
            "b_o": 5e-7,
            "d_o": 2e-6,
            "L_o": 1e-2,
            "v_over_c": 0.01,
        },
        "mirror": {"r_o": 1.0, "Z_o": 5.0, "epsilon": 2.0, "q": 0.5},
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["estimate-slit", "--config", path], environ={}) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mirror"]["vdw_regime"] == "far"
    assert payload["mirror"]["vdw_potential"] < 0
    assert payload["mirror"]["rayleigh_rate"] > 0


_SLIT_CFG = {
    "slit": {"a_o": 1e-6, "b_o": 5e-7, "d_o": 2e-6, "L_o": 1e-2, "v_over_c": 0.01},
    "mirror": {"r_o": 1.0, "Z_o": 5.0, "epsilon": 2.0, "q": 0.5},
}


@pytest.mark.parametrize(
    "key, raw, where",
    [
        ("mirror.Z_o", "NaN", "'mirror.Z_o'"),
        ("mirror.q", "-0.5", "'mirror'"),
        ("slit.ell_o", "0", "'slit'"),
        ("slit.L_o", "Infinity", "'slit.L_o'"),
        ("mirror.epsilon", "Infinity", "'mirror.epsilon'"),
        ("slit.ell_o", "NaN", "'slit.ell_o'"),
        ("slit.Q", "true", "'slit.Q'"),
    ],
)
def test_estimate_slit_rejects_bad_numbers(tmp_path, capsys, key, raw, where):
    # these ended in a traceback, or printed Infinity/NaN and exited 0
    block, name = key.split(".")
    cfg = copy.deepcopy(_SLIT_CFG)
    cfg[block][name] = "RAW"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"RAW"', raw))
    assert cli.main(["estimate-slit", "--config", str(path)], environ={}) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error at {where}: ")


@pytest.mark.parametrize(
    "block, values, message",
    [
        # Omega^2 tau^2 / 2 overflows: printed Infinity and NaN with exit 0
        ("slit", {"L_o": 1e150}, "gamma_hard_2slit_printed = inf is not finite"),
        # the ratio itself overflows: an uncaught "omega_uv must be finite"
        ("slit", {"a_o": 1e-150, "L_o": 1e160}, "L_o/a_o must be finite, got inf"),
        # Q**2 and r_o**4 raise OverflowError
        ("slit", {"Q": 1e200}, "a value overflows"),
        ("mirror", {"r_o": 1e100, "Z_o": 5e100}, "a value overflows"),
    ],
)
def test_estimate_slit_rejects_overflow(tmp_path, capsys, block, values, message):
    cfg = copy.deepcopy(_SLIT_CFG)
    cfg[block].update(values)
    path = write_config(tmp_path, cfg)
    assert cli.main(["estimate-slit", "--config", path], environ={}) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error at '{block}': {message}")


def test_estimate_slit_accepts_null_ell_o(tmp_path, capsys):
    cfg = copy.deepcopy(_SLIT_CFG)
    cfg["slit"]["ell_o"] = None
    path = write_config(tmp_path, cfg)
    assert cli.main(["estimate-slit", "--config", path], environ={}) == 0
    assert json.loads(capsys.readouterr().out)["acceleration_A_center"] == 1e-08


_WITHOUT_SCIPY = """
import sys

from softdeco import cli

assert "scipy" not in sys.modules, "import softdeco.cli loaded scipy"
sys.modules["scipy"] = None  # from here on, any import of scipy raises ImportError
configs, out = sys.argv[1], sys.argv[2]
for argv in (
    ["gamma", "--config", configs + "/default.json", "--out", out + "/gamma.json"],
    ["check", "--config", configs + "/default.json"],
    ["sweep", "--config", configs + "/default.json", "--out", out + "/sweep.csv"],
    ["estimate-slit", "--config", configs + "/slit.json", "--out", out + "/slit.json"],
):
    code = cli.main(argv, environ={})
    assert code == 0, (argv, code)
"""


def test_cli_runs_without_scipy(tmp_path):
    # softdeco needs only numpy at run time; scipy is a reference for the tests
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(root / "configs"), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
