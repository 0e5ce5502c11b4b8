import dataclasses
import hashlib
import importlib.resources
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import vrrjump
from vrrjump import (ConfigError, FrrParams, JacobianMode, SimConfig,
                     VrrParams, default_motor, load_config,
                     loss_balance_c_iron2, power_loss)
from vrrjump import cli, optimize
from vrrjump.cli import main
from vrrjump.report import fmt

FULLSCALE = str(importlib.resources.files("vrrjump.configs") / "fullscale.json")
PLATFORM = str(importlib.resources.files("vrrjump.configs") / "platform.json")


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = json.loads(importlib.resources.files("vrrjump.configs")
                     .joinpath("fullscale.json").read_text())
    for key, val in overrides.items():
        parts = key.split(".")
        node = doc
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        if val is None:
            node.pop(parts[-1], None)
        else:
            node[parts[-1]] = val
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tiny_search(tmp_path, **overrides):
    return write_config(
        tmp_path,
        **{"search.r_mm": [45.0, 49.0, 2.0], "search.s0_mm": [145.0, 155.0, 5.0],
           "search.delta_theta_deg": [0.0, 0.0, 1.0], "search.k_fixed": [21.0, 23.0, 1.0],
           "angles_rad": [-2.618], **overrides})


# ---------------------------------------------------------------- config ----

def test_bundled_fullscale_values():
    rc = load_config(FULLSCALE)
    assert (rc.leg.l1, rc.leg.l2) == (0.45, 0.45)
    assert (rc.leg.m1, rc.leg.m2, rc.leg.m3) == (2.5, 5.0, 20.0)
    assert rc.leg.jacobian_mode is JacobianMode.GEOMETRIC
    assert rc.motor.tau_peak == 9.37
    assert rc.mechanism == VrrParams(r=0.047, s0=0.150, delta_theta=0.0, lead=0.010)
    assert rc.angles == (-2.618, -2.2689, -1.9199)
    assert rc.search.r_range == (0.025, 0.075, 0.001)


def test_bundled_platform_values():
    rc = load_config(PLATFORM)
    assert rc.leg.total_mass() == pytest.approx(24.93, rel=1e-12)
    assert rc.mechanism.s0 == pytest.approx(0.259, rel=1e-12)
    assert rc.mechanism.r == pytest.approx(0.047, rel=1e-12)


def test_unit_conversions(tmp_path):
    path = write_config(tmp_path, **{"mechanism.delta_theta_deg": 2.0,
                                     "motor.omega_max_rpm": 4500.0})
    rc = load_config(path)
    assert rc.mechanism.delta_theta == pytest.approx(math.radians(2.0), rel=1e-15)
    assert rc.motor.omega_max == pytest.approx(4500 * math.pi / 30, rel=1e-15)
    assert rc.motor.omega_hpl == pytest.approx(0.75 * rc.motor.omega_max, rel=1e-12)


def test_frr_mechanism_config(tmp_path):
    path = write_config(tmp_path, mechanism={"type": "frr", "k_fixed": 22.0})
    rc = load_config(path)
    assert rc.mechanism == FrrParams(22.0)


def test_defaults_are_materialized(tmp_path):
    path = write_config(tmp_path, **{"motor.eta_j": None, "sim.dt_s": None})
    rc = load_config(path)
    assert rc.motor.eta_j == 0.9
    assert rc.sim.dt == 1e-4
    doc = rc.resolved_doc
    assert doc["motor"]["eta_j"] == 0.9
    assert doc["sim"]["dt_s"] == 1e-4
    assert doc["motor"]["c_iron2_w_s2_per_rad2"] > 0


def test_c_iron2_default_is_the_motor_fit(tmp_path):
    assert load_config(FULLSCALE).motor == default_motor()
    path = write_config(tmp_path, **{"motor.r_phase_ohm": 0.04,
                                     "motor.c_iron1_w_s_per_rad": 0.3,
                                     "motor.c_iron2_w_s2_per_rad2": None})
    m = load_config(path).motor
    assert m.c_iron2 == loss_balance_c_iron2(m.k_t, m.i_q_peak, m.omega_max,
                                             0.04, 0.3)
    assert power_loss(m, m.i_q_peak, m.omega_max) == pytest.approx(
        m.k_t * m.i_q_peak * m.omega_max, rel=1e-12)


def test_round_trip_through_resolved_doc(tmp_path):
    rc = load_config(FULLSCALE)
    echo = tmp_path / "resolved.json"
    echo.write_text(rc.resolved)
    rc2 = load_config(echo)
    assert rc2 == rc
    assert rc2.config_hash == rc.config_hash


def test_jacobian_mode_override(tmp_path):
    rc = load_config(FULLSCALE, jacobian_mode="paper")
    assert rc.leg.jacobian_mode is JacobianMode.PAPER_LITERAL
    assert rc.resolved_doc["leg"]["jacobian_mode"] == "paper"


def test_negative_crank_rejected(tmp_path):
    path = write_config(tmp_path, **{"mechanism.r_mm": -5.0})
    with pytest.raises(ConfigError, match="crank length"):
        load_config(path)


def test_empty_angles_rejected(tmp_path):
    path = write_config(tmp_path, angles_rad=[])
    with pytest.raises(ConfigError, match="angles_rad"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, **{"leg.footprint": 1.0})
    with pytest.raises(ConfigError, match="leg.footprint"):
        load_config(path)
    path = write_config(tmp_path, wheels=4)
    with pytest.raises(ConfigError, match="wheels"):
        load_config(path)


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"leg": {,}}')
    with pytest.raises(ConfigError, match="line 1"):
        load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")


def test_missing_required_leg_key(tmp_path):
    path = write_config(tmp_path, **{"leg.m3_kg": None})
    with pytest.raises(ConfigError, match="leg.m3_kg"):
        load_config(path)


@pytest.mark.parametrize("rule", ["angle_cap", "contact_force_zero",
                                  "sometimes"])
def test_bad_takeoff_rule(tmp_path, capsys, monkeypatch, rule):
    """"either" is the only takeoff rule: any other exits 2 naming the key,
    before any simulation runs."""
    refuse_work(monkeypatch)
    path = write_config(tmp_path, **{"sim.takeoff_rule": rule})
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert (f"config error: 'sim.takeoff_rule': expected one of ['either'], "
            f"got {rule!r}" in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value,field", [
    ("sim.dt_s", -1.0, "dt"), ("sim.t_max_s", 5e-4, "t_max"),
    ("sim.q2_takeoff_cap_rad", 0.0, "q2_takeoff_cap"),
])
def test_sim_section_errors_name_sim(tmp_path, capsys, key, value, field):
    path = write_config(tmp_path, **{key: value})
    with pytest.raises(ConfigError, match=f"^sim: {field}=") as exc:
        load_config(path)
    assert "angles_rad" not in str(exc.value)
    assert main(["simulate", "--config", path]) == 2
    assert "config error: sim: " in capsys.readouterr().err


def test_run_config_sim_is_first_angle(tmp_path):
    cfg = load_config(write_config(tmp_path, **{"angles_rad": [-2.2689, -2.618],
                                                "sim.t_max_s": 0.5}))
    assert cfg.sim == SimConfig(q2_init=-2.2689, t_max=0.5)


@pytest.mark.parametrize("key,value", [
    ("sim.dt_s", math.nan), ("leg.m3_kg", math.inf),
    ("motor.tau_peak_nm", -math.inf), ("mechanism.r_mm", math.nan),
    ("search.s0_mm", [100.0, math.inf, 5.0]), ("angles_rad", [math.nan]),
])
def test_non_finite_numbers_rejected(tmp_path, key, value):
    path = write_config(tmp_path, **{key: value})
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        load_config(path)


def test_overflowing_literal_rejected(tmp_path):
    path = write_config(tmp_path, **{"sim.t_max_s": 0.123456})
    with open(path) as fh:
        text = fh.read().replace("0.123456", "1e999")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ConfigError, match=r"sim\.t_max_s"):
        load_config(path)


def test_non_finite_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, **{"sim.dt_s": math.nan})
    assert main(["simulate", "--config", cfg]) == 2
    assert "sim.dt_s" in capsys.readouterr().err


def test_oversized_search_box_rejected(tmp_path):
    path = write_config(tmp_path, **{"search.r_mm": [25.0, 75.0, 1e-9]})
    with pytest.raises(ConfigError, match="search.*r_range.*limit"):
        load_config(path)


# Each case is a set of write_config overrides of fullscale.json (None drops
# the key or section), or the name of a shipped config. The pins are the
# sha256 of the resolved document: a refactor of the loader must leave every
# default, unit conversion and derived motor value bit-identical. Most cases
# omit a key whose default equals fullscale.json's value, so they share its pin.
RESOLVED_CASES = {
    "fullscale": FULLSCALE,
    "platform": PLATFORM,
    **{f"no-{key}": {key: None} for key in (
        "leg.jacobian_mode", "motor.tau_peak_nm", "motor.i_q_peak_a",
        "motor.p_peak_w", "motor.omega_max_rpm", "motor.eta_j",
        "mechanism.delta_theta_deg", "mechanism.lead_mm", "sim.dt_s",
        "sim.t_max_s", "sim.q2_takeoff_cap_rad", "sim.takeoff_rule",
        "search.r_mm", "search.s0_mm", "search.delta_theta_deg",
        "search.k_fixed", "output_dir", "motor", "mechanism", "sim",
        "search")},
    "weak-motor": {"motor": {"tau_peak_nm": 0.5, "i_q_peak_a": 5.0,
                             "p_peak_w": 80.0}},
    "motor-4500rpm": {"motor.omega_max_rpm": 4500.0},
    "motor-explicit": {"motor": {
        "tau_peak_nm": 12.0, "i_q_peak_a": 100.0, "k_t_nm_per_a": 0.121,
        "p_peak_w": 1800.0, "omega_break_rpm": 1430.0,
        "omega_max_rpm": 5100.0, "omega_hpl_rpm": 4000.0,
        "r_phase_ohm": 0.04, "c_iron1_w_s_per_rad": 0.3,
        "c_iron2_w_s2_per_rad2": 0.01, "eta_j": 0.85}},
    "frr": {"mechanism": {"type": "frr", "k_fixed": 22.0}},
    "vrr-minimal": {"mechanism": {"type": "vrr", "r_mm": 47.0, "s0_mm": 150.0}},
}
FULLSCALE_SHA256 = "b3d66fcdafc242f6cc5f362c2fa5e86600d2b7e821c3b507fd21d5e542202087"
NO_OFFSET_AXIS_SHA256 = "5b2bddfd1c1bee179fab47f634c4df1044633fe0c52b87814f287deb7addfa9e"
RESOLVED_SHA256 = {
    **{case: FULLSCALE_SHA256 for case in RESOLVED_CASES},
    "platform":
        "da63ccaf73b83427bb9cc5d47617a432a7555b3febd82a4d760baad797fb2a78",
    "no-search.delta_theta_deg": NO_OFFSET_AXIS_SHA256,
    "no-search": NO_OFFSET_AXIS_SHA256,
    "no-mechanism":
        "7146d590dc634748f34f2308de7acef1e428b4f48209efefab22fc808621596d",
    "weak-motor":
        "6e2deb73391964cd7d3a7be0b8b06d205d58d2b1cd0054c1d1b8ee68f7087af4",
    "motor-4500rpm":
        "244f1b628dcd7d766b0619dcd08bdbab7220d3df3af3c413d5fb089889dd237c",
    "motor-explicit":
        "6783fa727f57ad31aff9a0d8544f13c47acfc34595ef61d8f9da7a36b6de3244",
    "frr":
        "3fa61013d20655428a2d4a6896527679ac6f8aca9003bbf09b972047cae8c2e4",
}


@pytest.mark.parametrize("case", RESOLVED_CASES)
def test_resolved_document_pins(tmp_path, case):
    spec = RESOLVED_CASES[case]
    path = spec if isinstance(spec, str) else write_config(tmp_path, **spec)
    digest = hashlib.sha256(load_config(path).resolved.encode()).hexdigest()
    assert digest == RESOLVED_SHA256[case]


OPTIONAL_KEYS = {
    "leg.g_mps2": ("leg", "g"),
    "leg.jacobian_mode": ("leg", "jacobian_mode"),
    "mechanism.delta_theta_deg": ("mechanism", "delta_theta"),
    "mechanism.lead_mm": ("mechanism", "lead"),
    "sim.dt_s": ("sim", "dt"),
    "sim.t_max_s": ("sim", "t_max"),
    "sim.q2_takeoff_cap_rad": ("sim", "q2_takeoff_cap"),
    "sim.takeoff_rule": ("sim", "takeoff_rule"),
    "motor.tau_peak_nm": ("motor", "tau_peak"),
    "motor.i_q_peak_a": ("motor", "i_q_peak"),
    "motor.p_peak_w": ("motor", "p_peak"),
    "motor.omega_max_rpm": ("motor", "omega_max"),
    "motor.eta_j": ("motor", "eta_j"),
}


@pytest.mark.parametrize("key", OPTIONAL_KEYS)
def test_omitted_key_takes_model_default(tmp_path, key):
    """An omitted key builds the model's own default: the dataclass field
    default, or for the motor the value of default_motor()."""
    section, name = OPTIONAL_KEYS[key]
    built = getattr(load_config(write_config(tmp_path, **{key: None})), section)
    if section == "motor":
        expected = getattr(default_motor(), name)
    else:
        expected = next(f.default for f in dataclasses.fields(built)
                        if f.name == name)
    assert getattr(built, name) == expected


def test_omega_hpl_zero_rejected(tmp_path, capsys):
    path = write_config(tmp_path, **{"motor.omega_hpl_rpm": 0})
    with pytest.raises(ConfigError, match=r"^motor: omega_hpl=0\.0 "):
        load_config(path)
    assert main(["envelope", "--config", path]) == 2
    assert "config error: motor: omega_hpl=0.0 " in capsys.readouterr().err


@pytest.mark.parametrize("key,derived", [
    ("motor.i_q_peak_a", "k_t_nm_per_a"), ("motor.tau_peak_nm", "omega_break_rpm"),
    ("motor.omega_max_rpm", "c_iron2_w_s2_per_rad2"),
])
def test_zero_motor_value_fails_at_the_boundary(tmp_path, capsys, key, derived):
    """A zero that a derived motor default divides by exits 2, naming the
    derived key, instead of raising ZeroDivisionError."""
    path = write_config(tmp_path, **{key: 0})
    assert main(["envelope", "--config", path]) == 2
    assert f"'motor.{derived}': its default" in capsys.readouterr().err


def test_missing_key_message_ignores_hash_seed(tmp_path):
    """With several required keys missing, the first in table order is
    named, whatever the interpreter's string hash seed."""
    path = write_config(tmp_path, **{f"leg.{key}": None for key in
                                     ("l1_m", "a2_m", "m1_kg", "m3_kg")})
    src = str(Path(vrrjump.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import vrrjump\n"
            "try:\n    vrrjump.load_config(sys.argv[2])\n"
            "except vrrjump.ConfigError as exc:\n    print(exc)")
    messages = {subprocess.run(
        [sys.executable, "-c", code, src, path], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")}
    assert messages == {"missing required key 'leg.l1_m'\n"}


# ------------------------------------------------------------- formatting ----

def test_csv_number_formatting():
    assert fmt(1.0 / 3.0) == "0.333333333"
    assert fmt(123456789012.0) == "1.23456789e+11"
    assert fmt(-2.618) == "-2.618"
    assert fmt(None) == ""
    assert fmt(0.0) == "0"


# -------------------------------------------------------------------- cli ----

def test_envelope_stdout(capsys):
    assert main(["envelope", "--n", "5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "omega_rpm,tau_max_nm,p_out_w,p_loss_w"
    assert len(out) == 6
    assert out[1].startswith("0,9.37,0,")


def test_envelope_to_file(tmp_path):
    assert main(["envelope", "--n", "10", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "envelope.csv").read_text().strip().splitlines()
    assert len(lines) == 11


def _cli(*argv: str, **kwargs):
    """`python -m vrrjump argv` in a fresh interpreter on this package."""
    src = str(Path(vrrjump.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-m", "vrrjump", *argv],
                            env=env, **kwargs)


def test_envelope_stdout_and_file_are_the_same_bytes(tmp_path):
    """The writer's two sinks: standard output and --out write one table,
    with bare \n line ends."""
    proc = _cli("envelope", "--n", "50", stdout=subprocess.PIPE)
    stdout, _ = proc.communicate()
    assert proc.returncode == 0
    with _cli("envelope", "--n", "50", "--out", str(tmp_path),
              stdout=subprocess.DEVNULL) as proc:
        assert proc.wait() == 0
    written = (tmp_path / "envelope.csv").read_bytes()
    assert stdout == written
    assert b"\r" not in written and written.count(b"\n") == 51


def test_envelope_into_a_closed_pipe_exits_quietly():
    """A reader that closes after one line, as `| head -1` does: nothing
    on standard error, and the closed-pipe exit status. The table is far
    larger than a pipe's buffer, so the writer meets the closed pipe."""
    proc = _cli("envelope", "--n", "20000", stdout=subprocess.PIPE,
                stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"omega_rpm,tau_max_nm,p_out_w,p_loss_w\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.EXIT_PIPE
    assert stderr == b""


@pytest.mark.parametrize("value", ["info", "basic_format", "_styles", "verbose"])
def test_log_level_from_env(tmp_path, monkeypatch, value):
    """VRRJUMP_LOG names a level in any case; any other value, even an
    upper-case name of the logging module that is not a level, means
    WARNING. Run in a fresh interpreter, whose root logger has no handler
    yet, so that the level is set."""
    monkeypatch.setenv("VRRJUMP_LOG", value)
    proc = _cli("simulate", "--config", FULLSCALE, "--out", str(tmp_path),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, stderr = proc.communicate()
    assert proc.returncode == 0, stderr
    if value == "info":
        assert b" INFO vrrjump: wrote " in stderr, stderr
    else:
        assert stderr == b"", stderr


def test_sweep_ratio(tmp_path, capsys):
    assert main(["sweep-ratio", "--config", FULLSCALE, "--out", str(tmp_path),
                 "--n", "50"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "argmax_q2_rad" in summary and "k_max" in summary
    lines = (tmp_path / "ratio_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "q2_rad,theta_rad,k"
    assert len(lines) == 51


def test_simulate_cli(tmp_path, capsys):
    assert main(["simulate", "--config", FULLSCALE, "--out", str(tmp_path),
                 "--angle", "-2.618"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["terminated_by"] == "angle_cap"
    assert 0.4 < summary["h_jump_m"] < 0.6
    traj = tmp_path / "trajectory_-2.6180.csv"
    header = traj.read_text().splitlines()[0]
    assert header == ("t_s,q2_rad,dq2_rads,theta_rad,k,lambda_radpm,tau_m_nm,"
                      "tau_j_nm,omega_m_rpm,p_m_w,p_j_w,y_com_m,dy_com_mps,"
                      "f_contact_n,w_motor_j")


def test_simulate_cli_names_a_static_hold(tmp_path, capsys):
    """A motor too weak to lift the CoM: simulate prints the kernel's class,
    not a timeout."""
    cfg = write_config(tmp_path, motor={
        "tau_peak_nm": 0.5, "i_q_peak_a": 5.0, "p_peak_w": 80.0})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--angle", "-2.618"]) == 0
    assert '"terminated_by": "static_hold"' in capsys.readouterr().out


def test_optimize_cli_with_grid_dump(tmp_path, capsys):
    cfg = tiny_search(tmp_path)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path),
                 "--dump-grid"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_evaluations"] == 9
    assert summary["n_infeasible"] == 0
    grid = (tmp_path / "grid_vrr_-2.6180.csv").read_text().splitlines()
    assert grid[0] == "r_mm,s0_mm,dtheta_deg,k_fixed,feasible,w_takeoff_j,h_jump_m"
    assert len(grid) == 10


def test_compare_cli_and_reports(tmp_path, capsys):
    cfg = tiny_search(tmp_path)
    out = tmp_path / "rep"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    manifest = capsys.readouterr().out.strip().splitlines()
    names = {p.split("/")[-1] for p in manifest}
    assert {"metadata.json", "config_resolved.json", "summary.csv",
            "summary.json", "summary.txt"} <= names
    rows = (out / "summary.csv").read_text().strip().splitlines()
    assert rows[0].startswith("joint_type,angle_rad,")
    assert len(rows) == 3  # header + evrr + frr for the single angle
    meta = json.loads((out / "metadata.json").read_text())
    assert {"config_sha256", "timestamp", "tool_version", "wall_time_s"} <= set(meta)
    assert (out / "trajectory_evrr_-2.6180.csv").exists()
    assert (out / "overall_ratio_-2.6180.csv").exists()


def test_compare_round_trips_resolved_config(tmp_path, capsys):
    cfg = tiny_search(tmp_path)
    out = tmp_path / "rep"
    main(["compare", "--config", cfg, "--out", str(out)])
    capsys.readouterr()
    rc_orig = load_config(cfg)
    rc_echo = load_config(out / "config_resolved.json")
    assert rc_echo == rc_orig


def test_compare_determinism(tmp_path, capsys):
    cfg = tiny_search(tmp_path)
    main(["compare", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["compare", "--config", cfg, "--out", str(tmp_path / "b")])
    capsys.readouterr()
    a_files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert a_files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in a_files:
        if name == "metadata.json":
            continue
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_exit_code_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    bad = write_config(tmp_path, **{"mechanism.r_mm": -5.0})
    assert main(["simulate", "--config", bad]) == 2
    capsys.readouterr()


def test_exit_code_infeasible(tmp_path, capsys):
    cfg = tiny_search(tmp_path, **{"search.delta_theta_deg": [-3.0, -3.0, 1.0]})
    assert main(["optimize", "--config", cfg]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv,overrides,message", [
    (["sweep-ratio", "--lo", "nan"], {},
     "argument --lo: must be a finite number, got 'nan'"),
    (["sweep-ratio", "--hi=-inf"], {},
     "argument --hi: must be a finite number, got '-inf'"),
    (["simulate", "--angle", "x"], {},
     "argument --angle: must be a finite number, got 'x'"),
    (["optimize", "--angle", "inf"], {},
     "argument --angle: must be a finite number, got 'inf'"),
    (["simulate", "--angle", "0.5"], {},
     "config error: --angle: q2_init=0.5 must lie in [-pi, cap=-0.05)"),
    (["optimize", "--angle", "-4", "--dump-grid"], {},
     "config error: --angle: q2_init=-4.0 must lie in [-pi, cap=-0.05)"),
    (["simulate", "--angle", "-3.14"], {},
     "config error: --angle: q2=-3.14 maps to theta=0.00159265 rad outside "
     "(0.01, 3.14059)"),
    (["simulate"], {"angles_rad": [-3.14]},
     "config error: angles_rad: q2=-3.14 maps to theta=0.00159265 rad"),
    (["simulate"], {"mechanism.delta_theta_deg": -5.0},
     "config error: sim.q2_takeoff_cap_rad: q2=-0.05 maps to theta=3.17886 rad"),
    (["sweep-ratio", "--lo", "0.5", "--hi", "0.9"], {},
     "config error: --lo: crank angle theta=3.64159 rad outside the working "
     "range [0, pi] for q2=0.5"),
    (["sweep-ratio", "--lo", "-2", "--hi", "0.9"], {},
     "config error: --hi: crank angle theta=4.04159 rad outside"),
    (["sweep-ratio", "--lo", "-0.5", "--hi", "-0.9"], {},
     "config error: --lo=-0.5 must be below --hi=-0.9"),
    (["sweep-ratio", "--lo", "0.1"], {},
     "config error: --lo=0.1 must be below sim.q2_takeoff_cap_rad=-0.05"),
    (["sweep-ratio", "--hi", "-3"], {},
     "config error: angles_rad=-2.618 must be below --hi=-3"),
    (["sweep-ratio"], {"angles_rad": [-3.1], "mechanism.delta_theta_deg": 5.0},
     "config error: angles_rad: crank angle theta=-0.0456738 rad outside"),
    (["sweep-ratio"], {"mechanism.delta_theta_deg": -5.0},
     "config error: sim.q2_takeoff_cap_rad: crank angle theta=3.17886 rad outside"),
], ids=["lo-nan", "hi-inf", "angle-text", "angle-inf", "simulate-above-cap",
        "optimize-below-pi", "simulate-unreachable", "simulate-angles_rad",
        "simulate-cap", "sweep-lo", "sweep-hi", "sweep-lo-above-hi",
        "sweep-lo-above-cap", "sweep-first-angle-above-hi",
        "sweep-first-angle", "sweep-cap"])
def test_bad_angle_option_names_the_flag(tmp_path, capsys, monkeypatch, argv,
                                         overrides, message):
    """A non-finite --angle, --lo or --hi, an --angle outside [-pi, cap), a
    knee angle the configured crank cannot reach, or a sweep range whose
    start is not below its end, exits 2 naming the flag, else the config key
    the value came from, before any work, sample or output directory."""
    refuse_work(monkeypatch)
    monkeypatch.setattr(cli, "ratio_samples", lambda *args: pytest.fail("sampled"))
    out = tmp_path / "o"
    try:
        code = main([*argv, "--config", write_config(tmp_path, **overrides),
                     "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_envelope_help_says_where_output_goes(capsys):
    with pytest.raises(SystemExit):
        main(["envelope", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--out OUT directory for envelope.csv (default: standard output)" in help_text
    assert "--n N motor speeds sampled over [0, omega_max] (default 200)" in help_text


def test_seedless_flag(tmp_path, capsys):
    assert main(["envelope", "--n", "3", "--seedless"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["envelope", "--n", "3", "--seedless=1"])
    assert exc.value.code == 2


def test_log_env_smoke(monkeypatch, capsys):
    monkeypatch.setenv("VRRJUMP_LOG", "DEBUG")
    assert main(["envelope", "--n", "3"]) == 0
    capsys.readouterr()


def test_optimize_cli_frr(tmp_path, capsys):
    cfg = tiny_search(tmp_path)
    assert main(["optimize", "--config", cfg, "--joint", "frr"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_evaluations"] == 3
    assert "k_fixed" in summary


def test_sweep_ratio_custom_range(tmp_path, capsys):
    assert main(["sweep-ratio", "--config", FULLSCALE, "--out", str(tmp_path),
                 "--lo", "-2.0", "--hi", "-1.0", "--n", "11"]) == 0
    summary = json.loads(capsys.readouterr().out)
    lines = (tmp_path / "ratio_curve.csv").read_text().strip().splitlines()
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == -2.0


def test_compare_cli_dump_grid(tmp_path, capsys):
    cfg = tiny_search(tmp_path)
    out = tmp_path / "rep"
    assert main(["compare", "--config", cfg, "--out", str(out),
                 "--dump-grid"]) == 0
    capsys.readouterr()
    grid = (out / "grid_vrr_-2.6180.csv").read_text().splitlines()
    assert len(grid) == 10
    assert (out / "grid_frr_-2.6180.csv").exists()


def test_compare_dump_grid_same_bytes_with_a_pool(tmp_path, capsys, monkeypatch):
    """--workers 2 writes the same bytes as --workers 1; only metadata.json,
    which records the processes used, differs. At -3.14 every VRR candidate
    leaves the crank's working range: the workers send that error back, and
    the angle keeps its FRR optimum and FRR grid."""
    monkeypatch.setattr(optimize, "usable_cpus", lambda: 2)
    cfg = tiny_search(tmp_path, angles_rad=[-2.618, -1.9199, -3.14])
    for workers in (1, 2):
        out = tmp_path / str(workers)
        assert main(["compare", "--config", cfg, "--out", str(out),
                     "--workers", str(workers), "--dump-grid"]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert (meta["workers"], meta["n_candidates"]) == (workers, 3 * (9 + 3))
        [row] = [r for r in json.loads((out / "summary.json").read_text())["rows"]
                 if r["angle_rad"] == -3.14]
        assert row["vrr"] is None and row["frr"] is not None, row
        rows = [line.split(",")[:2] for line in
                (out / "summary.csv").read_text().splitlines()]
        assert ["frr", "-3.14"] in rows, rows
    capsys.readouterr()
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    assert {"grid_frr_-1.9199.csv", "grid_frr_-3.1400.csv"} <= set(names)
    for name in names:
        if name != "metadata.json":
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / "2" / name).read_bytes(), name


def test_compare_with_static_hold_optima(tmp_path, capsys):
    """A motor too weak to lift the CoM at any angle: every optimum is a
    static hold, and each ratio curve still spans [angle, cap]."""
    cfg = tiny_search(tmp_path, angles_rad=[-2.618, -1.9199], motor={
        "tau_peak_nm": 0.5, "i_q_peak_a": 5.0, "p_peak_w": 80.0})
    out = tmp_path / "rep"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    for angle in ("-2.6180", "-1.9199"):
        rows = (out / f"ratio_curve_evrr_{angle}.csv").read_text().splitlines()
        assert (rows[1].split(",")[0], rows[-1].split(",")[0]) == \
            (f"{float(angle):.9g}", "-0.05")


def test_nonpositive_frr_height_leaves_improvement_blank(tmp_path, capsys):
    """A motor too weak to reach full extension: both heights are negative
    and equal, so no improvement percentage is defined."""
    cfg = write_config(tmp_path, motor={
        "tau_peak_nm": 0.5, "i_q_peak_a": 5.0, "p_peak_w": 80.0})
    out = tmp_path / "rep"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    for row in rows[0::2]:
        assert row.startswith("evrr,") and float(row.split(",")[7]) < 0
        assert row.split(",")[8] == ""
    for row in json.loads((out / "summary.json").read_text())["rows"]:
        assert row["improvement_pct"] is None and row["error"] is None
    lines = (out / "summary.txt").read_text().splitlines()
    for line in lines[1::2]:
        assert line.startswith("evrr") and line.endswith(" " * 11)


@pytest.mark.parametrize("command", ["envelope", "sweep-ratio"])
@pytest.mark.parametrize("value", ["1", "1000001", "1000000000", "-5", "x"])
def test_sample_count_bounded_before_allocation(tmp_path, capsys, monkeypatch,
                                                command, value):
    def sampled(*args):
        raise AssertionError("samples built for an out-of-range --n")
    monkeypatch.setattr(cli, "envelope_table", sampled)
    monkeypatch.setattr(cli, "ratio_samples", sampled)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", FULLSCALE, "--out", str(tmp_path / "o"),
              "--n", value])
    assert exc.value.code == 2
    assert "argument --n: must be an integer in [2, 1000000]" in \
        capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["envelope"], ["sweep-ratio", "--config", FULLSCALE]],
                         ids=["envelope", "sweep-ratio"])
def test_tables_stream(tmp_path, capsys, argv):
    """A table command holds no more than a few rows at a time: 20,000
    rows, about 0.7 MB of CSV, are written under a 1 MB peak of traced
    allocations."""
    tracemalloc.start()
    try:
        assert main([*argv, "--n", "20000", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    [table] = tmp_path.glob("*.csv")
    assert table.read_text().count("\n") == 20001
    assert peak < 1e6, peak


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_workers_below_one_rejected(tmp_path, capsys, value):
    cfg = tiny_search(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--config", cfg, "--out", str(tmp_path / "rep"),
              "--workers", value])
    assert exc.value.code == 2
    assert "argument --workers: must be an integer of at least 1" in \
        capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("command", ["simulate", "optimize", "compare",
                                     "sweep-ratio", "envelope"])
@pytest.mark.parametrize("option,value,dest", [("--workers", "2", "workers"),
                                               ("--jacobian-mode", "paper",
                                                "jacobian_mode")])
def test_option_registered_only_where_read(capsys, command, option, value, dest):
    """--workers belongs to the commands that search a grid, --jacobian-mode
    to those that build a leg; any other command refuses them."""
    read_by = {"--workers": {"optimize", "compare"},
               "--jacobian-mode": {"simulate", "optimize", "compare"}}
    argv = [command, "--config", FULLSCALE, option, value]
    if command in read_by[option]:
        assert str(getattr(cli.build_parser().parse_args(argv), dest)) == value
        return
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


def refuse_work(monkeypatch):
    """Make every simulation and search a command can start fail."""
    def work(*args, **kwargs):
        raise AssertionError("work began")
    for name in ("simulate_jump", "optimize_vrr", "optimize_frr",
                 "compare_designs", "envelope_table"):
        monkeypatch.setattr(cli, name, work)
    monkeypatch.setattr(optimize, "simulate_jump", work)


@pytest.mark.parametrize("angles", [[-2.61801, -2.61804],
                                    [-2.618, -1.9199, -2.618]])
def test_angles_sharing_a_label_rejected(tmp_path, capsys, monkeypatch, angles):
    """Two angles with one 4-decimal file label would write one set of
    files: the config is refused before any candidate is evaluated."""
    refuse_work(monkeypatch)
    cfg = tiny_search(tmp_path, angles_rad=angles)
    out = tmp_path / "rep"
    assert main(["compare", "--config", cfg, "--out", str(out),
                 "--dump-grid"]) == 2
    assert (f"config error: angles_rad: angles {angles[0]} and {angles[-1]} "
            f"share the output file label {angles[0]:.4f}"
            in capsys.readouterr().err)
    assert not out.exists()
    with pytest.raises(ConfigError, match="^angles_rad: "):
        load_config(cfg)


def test_box_with_s0_floor_not_above_largest_r_rejected(tmp_path, capsys,
                                                        monkeypatch):
    """An S0 floor of 60 mm with r up to 75 mm would build candidates with
    s0 <= r, such as (r, s0) = (60, 60) mm: the config is refused, naming
    both keys, before any candidate is built. The floor must lie above the
    largest r, not merely reach it."""
    refuse_work(monkeypatch)

    def build(*args):
        raise AssertionError("candidates built")
    monkeypatch.setattr(optimize, "_vrr_candidates", build)
    cfg = write_config(tmp_path, **{"search.r_mm": [25.0, 75.0, 1.0],
                                    "search.s0_mm": [60.0, 250.0, 5.0]})
    out = tmp_path / "rep"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
    assert ("config error: 'search.s0_mm': floor 60 mm must exceed the "
            "largest 'search.r_mm' value, 75 mm" in capsys.readouterr().err)
    assert not out.exists()
    cfg = write_config(tmp_path, **{"search.s0_mm": [75.0, 250.0, 5.0]})
    with pytest.raises(ConfigError, match="'search.r_mm'"):
        load_config(cfg)
    cfg = write_config(tmp_path, **{"search.s0_mm": [75.5, 250.0, 5.0]})
    assert load_config(cfg).search.s0_range[0] == 75.5 / 1000.0


@pytest.mark.parametrize("command,extra", [
    ("simulate", []), ("optimize", ["--dump-grid"]), ("compare", []),
    ("sweep-ratio", []), ("envelope", [])])
def test_unusable_output_directory_exits_2_before_work(
        tmp_path, capsys, monkeypatch, command, extra):
    """A regular file, or a path beneath one, as the output directory exits
    2 naming --out or output_dir, before any simulation or search, and
    without a traceback."""
    refuse_work(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cases = [("--out", blocker, tiny_search(tmp_path)),
             ("--out", blocker / "sub", tiny_search(tmp_path))]
    if command != "envelope":  # envelope writes a file only with --out
        cases.append(("output_dir", blocker,
                      tiny_search(tmp_path, output_dir=str(blocker))))
    for key, out, cfg in cases:
        argv = [command, "--config", cfg, *extra]
        argv += ["--out", str(out)] if key == "--out" else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: cannot create directory "
                              f"{str(out)!r}: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("command,extra", [
    ("simulate", []), ("optimize", ["--dump-grid"]), ("optimize", []),
    ("compare", []), ("sweep-ratio", []), ("envelope", [])])
def test_empty_out_exits_2_before_work(tmp_path, capsys, monkeypatch,
                                       command, extra):
    """--out "" is no directory: Path("") would be the working directory,
    and envelope would print to standard output. It exits 2 naming --out,
    before any work, with nothing written."""
    refuse_work(monkeypatch)
    cfg = tiny_search(tmp_path)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, *extra, "--out", ""])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "argument --out: must be a directory path, got ''" in err
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "cwd"]
    assert not any(cwd.iterdir())


# A config the parser or the OS cannot take exits 2 naming the file or the
# key, with no traceback.

def test_config_not_utf8_exits_2(tmp_path, capsys, monkeypatch):
    """The file is read as UTF-8 whatever the locale: byte 0xff names the
    file and its offset."""
    refuse_work(monkeypatch)
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"output_dir": "r\xe9sultats"}')
    assert main(["compare", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {str(path)!r}: not UTF-8 text (invalid continuation byte "
        f"at offset 17)\n")


def test_config_nested_too_deeply_exits_2(tmp_path, capsys, monkeypatch):
    refuse_work(monkeypatch)
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["compare", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {str(path)!r}: JSON nested too deeply to parse\n")


@pytest.mark.parametrize("key,first,second", [
    ("angles_rad", "[-2.618]", "[-1.9199]"), ("eta_j", "0.9", "0.5")])
def test_duplicate_key_rejected(tmp_path, capsys, monkeypatch, key, first,
                                second):
    """json.loads would keep the last of two equal names; the loader names
    the key instead, at the top level and inside a section."""
    refuse_work(monkeypatch)
    text = json.dumps(json.loads(Path(FULLSCALE).read_text()), indent=1)
    assert text.count(f'"{key}": ') == 1
    path = tmp_path / "dup.json"
    path.write_text(text.replace(f'"{key}": ', f'"{key}": {first}, "{key}": '))
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(repr(str(path)))}: duplicate key '{key}'$"):
        load_config(path)
    assert main(["compare", "--config", str(path)]) == 2
    assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize("out_dir", ["a\x00b", "\ud800"])
def test_output_dir_the_os_refuses_exits_2(tmp_path, out_dir):
    """A NUL or a lone surrogate cannot be a path: exit 2 naming output_dir,
    with no traceback. Run as a process, so that standard error escapes the
    surrogate as the interpreter's own stream does."""
    cfg = tiny_search(tmp_path, output_dir=out_dir)
    with _cli("compare", "--config", cfg, stdout=subprocess.DEVNULL,
              stderr=subprocess.PIPE) as proc:
        stderr = proc.stderr.read().decode("utf-8", "replace")
    assert proc.returncode == 2
    assert stderr.startswith(
        "config error: output_dir: cannot create directory ")
    assert "Traceback" not in stderr


@pytest.mark.parametrize("override", [
    {"angles_rad": [-2.618] * 5000 + ["x"]},
    {"output_dir": "a\x00b"}, {"output_dir": "\ud800"},
    {"leg.\x1b[31m" + "k" * 5000: 1.0}])
def test_echoed_values_are_short_and_printable(tmp_path, capsys, monkeypatch,
                                               override):
    """A value the message echoes is escaped and cut: a list of 5,000
    numbers and a string, a NUL and a lone surrogate in output_dir, and an
    unknown key of 5,000 characters after a terminal escape each exit 2
    with one printable line under 400 characters, even through a stream
    that encodes strictly."""
    refuse_work(monkeypatch)
    assert main(["compare", "--config", tiny_search(tmp_path, **override)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert len(err) < 400 and err[:-1].isprintable()
    if "angles_rad" in override:
        assert err.endswith(" more items]\n")


def test_error_text_escapes_what_stderr_cannot_encode(capsys):
    """A config path from the command line that holds an undecodable byte
    is quoted as a backslash escape."""
    assert main(["compare", "--config", "missing\udcff.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "config error: cannot read config 'missing\\udcff.json': ")


@pytest.mark.parametrize("exists", [False, True])
def test_config_path_is_escaped(tmp_path, capsys, monkeypatch, exists):
    """A terminal escape and a newline in the config path, of a file that
    is missing or not JSON, reach standard error as backslash escapes, on
    one line."""
    refuse_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    path = "\x1b[31mx\n.json"
    if exists:
        Path(path).write_text("{")
    assert main(["compare", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {'' if exists else 'cannot read config '}"
                          "'\\x1b[31mx\\n.json': ")
    assert err.count("\n") == 1 and err[:-1].isprintable()


def test_first_fault_in_section_order_is_reported(tmp_path, capsys):
    """Each section is checked and built before the next is read: a model
    fault in leg is reported before an unknown key in motor."""
    path = write_config(tmp_path, **{"leg.l1_m": -0.45, "motor.bogus": 1.0})
    assert main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: leg: link lengths must be positive")
