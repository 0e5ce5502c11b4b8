"""Run-configuration ingestion: JSON with human-native units, strict keys.

Config files use mm / degrees / rpm where the engineering drawings would;
conversion to SI happens once at this boundary. Loading proceeds in two
stages: the raw document is validated against a strict schema (unknown keys
rejected), defaults are materialized into a fully-explicit "resolved"
document in the same human units, and the model objects are built from the
resolved document. Re-loading an emitted resolved document therefore
reproduces the configuration exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError, DomainError
from .leg import JacobianMode, LegModel
from .mechanism import DEG, FrrParams, VrrParams
from .motor import (RADS_PER_RPM, MotorParams, default_motor,
                    loss_balance_c_iron2)
from .optimize import SearchBox
from .sim import SimConfig, TakeoffRule

_LEG_KEYS = {"l1_m", "l2_m", "a1_m", "a2_m", "m1_kg", "m2_kg", "m3_kg",
             "g_mps2", "jacobian_mode"}
_LEG_REQUIRED = {"l1_m", "l2_m", "a1_m", "a2_m", "m1_kg", "m2_kg", "m3_kg"}
_MOTOR_KEYS = {"tau_peak_nm", "i_q_peak_a", "k_t_nm_per_a", "p_peak_w",
               "omega_break_rpm", "omega_max_rpm", "omega_hpl_rpm",
               "r_phase_ohm", "c_iron1_w_s_per_rad", "c_iron2_w_s2_per_rad2",
               "eta_j"}
_MECH_VRR_KEYS = {"type", "r_mm", "s0_mm", "delta_theta_deg", "lead_mm"}
_MECH_FRR_KEYS = {"type", "k_fixed"}
_SIM_KEYS = {"dt_s", "t_max_s", "q2_takeoff_cap_rad", "takeoff_rule"}
_SEARCH_KEYS = {"r_mm", "s0_mm", "delta_theta_deg", "k_fixed"}
_TOP_KEYS = {"leg", "motor", "mechanism", "sim", "search", "angles_rad",
             "output_dir"}


@dataclass(frozen=True)
class RunConfig:
    leg: LegModel
    motor: MotorParams
    mechanism: VrrParams | FrrParams | None
    sim: SimConfig
    """The sim section at the first angle; use dataclasses.replace for others."""
    search: SearchBox
    angles: tuple[float, ...]
    output_dir: str
    resolved: str
    """Fully-explicit human-unit config document (canonical JSON text)."""

    @property
    def resolved_doc(self) -> dict:
        return json.loads(self.resolved)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.resolved.encode()).hexdigest()


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed: set, path: str) -> None:
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path else
                              f"unknown key '{key}'")


class _NonFinite:
    """A NaN, Infinity or -Infinity token of the JSON text.

    json.loads would turn these into floats; keeping them as this marker
    makes every reader reject them, naming the key.
    """

    def __init__(self, token: str):
        self.token = token

    def __repr__(self) -> str:
        return self.token


def _is_number(val) -> bool:
    """A finite JSON number (literals such as 1e999 overflow to inf)."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and math.isfinite(val))


def _number(node: dict, key: str, path: str, default=None):
    if key not in node:
        if default is None:
            raise ConfigError(f"missing required key '{path}.{key}'")
        return default
    val = node[key]
    if not _is_number(val):
        raise ConfigError(f"'{path}.{key}': expected a finite number, got {val!r}")
    return float(val)


def _triple(node: dict, key: str, path: str, default: list) -> list:
    val = node.get(key, default)
    if (not isinstance(val, list) or len(val) != 3
            or not all(_is_number(v) for v in val)):
        raise ConfigError(f"'{path}.{key}': expected [min, max, step] finite "
                          f"numbers, got {val!r}")
    return [float(v) for v in val]


def _resolve(doc: dict) -> dict:
    """Validate the raw document and materialize every default."""
    _check_keys(doc, _TOP_KEYS, "")
    if "leg" not in doc:
        raise ConfigError("missing required section 'leg'")
    leg_in = _require_mapping(doc["leg"], "leg")
    _check_keys(leg_in, _LEG_KEYS, "leg")
    for key in _LEG_REQUIRED:
        if key not in leg_in:
            raise ConfigError(f"missing required key 'leg.{key}'")
    mode = leg_in.get("jacobian_mode", JacobianMode.GEOMETRIC.value)
    if mode not in (JacobianMode.GEOMETRIC.value, JacobianMode.PAPER_LITERAL.value):
        raise ConfigError(f"'leg.jacobian_mode': expected 'geometric' or 'paper', got {mode!r}")
    leg = {k: _number(leg_in, k, "leg") for k in sorted(_LEG_REQUIRED)}
    leg["g_mps2"] = _number(leg_in, "g_mps2", "leg", 9.81)
    leg["jacobian_mode"] = mode

    motor_in = _require_mapping(doc.get("motor", {}), "motor")
    _check_keys(motor_in, _MOTOR_KEYS, "motor")
    base = default_motor()
    tau_peak = _number(motor_in, "tau_peak_nm", "motor", base.tau_peak)
    i_q_peak = _number(motor_in, "i_q_peak_a", "motor", base.i_q_peak)
    p_peak = _number(motor_in, "p_peak_w", "motor", base.p_peak)
    k_t = _number(motor_in, "k_t_nm_per_a", "motor", tau_peak / i_q_peak)
    omega_break_rpm = _number(motor_in, "omega_break_rpm", "motor",
                              (p_peak / tau_peak) / RADS_PER_RPM)
    omega_max_rpm = _number(motor_in, "omega_max_rpm", "motor",
                            base.omega_max / RADS_PER_RPM)
    omega_hpl_rpm = _number(motor_in, "omega_hpl_rpm", "motor",
                            0.75 * omega_max_rpm)
    r_phase = _number(motor_in, "r_phase_ohm", "motor", base.r_phase)
    c1 = _number(motor_in, "c_iron1_w_s_per_rad", "motor", base.c_iron1)
    omega_max = omega_max_rpm * RADS_PER_RPM
    c2_fit = loss_balance_c_iron2(k_t, i_q_peak, omega_max, r_phase, c1)
    c2 = _number(motor_in, "c_iron2_w_s2_per_rad2", "motor", max(c2_fit, 0.0))
    motor = {
        "tau_peak_nm": tau_peak, "i_q_peak_a": i_q_peak, "k_t_nm_per_a": k_t,
        "p_peak_w": p_peak, "omega_break_rpm": omega_break_rpm,
        "omega_max_rpm": omega_max_rpm, "omega_hpl_rpm": omega_hpl_rpm,
        "r_phase_ohm": r_phase, "c_iron1_w_s_per_rad": c1,
        "c_iron2_w_s2_per_rad2": c2,
        "eta_j": _number(motor_in, "eta_j", "motor", base.eta_j),
    }

    mech = None
    if "mechanism" in doc:
        mech_in = _require_mapping(doc["mechanism"], "mechanism")
        mtype = mech_in.get("type")
        if mtype == "vrr":
            _check_keys(mech_in, _MECH_VRR_KEYS, "mechanism")
            mech = {
                "type": "vrr",
                "r_mm": _number(mech_in, "r_mm", "mechanism"),
                "s0_mm": _number(mech_in, "s0_mm", "mechanism"),
                "delta_theta_deg": _number(mech_in, "delta_theta_deg", "mechanism", 0.0),
                "lead_mm": _number(mech_in, "lead_mm", "mechanism", 10.0),
            }
        elif mtype == "frr":
            _check_keys(mech_in, _MECH_FRR_KEYS, "mechanism")
            mech = {"type": "frr", "k_fixed": _number(mech_in, "k_fixed", "mechanism")}
        else:
            raise ConfigError(f"'mechanism.type': expected 'vrr' or 'frr', got {mtype!r}")

    sim_in = _require_mapping(doc.get("sim", {}), "sim")
    _check_keys(sim_in, _SIM_KEYS, "sim")
    rule = sim_in.get("takeoff_rule", TakeoffRule.EITHER.value)
    if rule not in (r.value for r in TakeoffRule):
        raise ConfigError(f"'sim.takeoff_rule': expected one of "
                          f"{sorted(r.value for r in TakeoffRule)}, got {rule!r}")
    sim = {
        "dt_s": _number(sim_in, "dt_s", "sim", 1e-4),
        "t_max_s": _number(sim_in, "t_max_s", "sim", 1.0),
        "q2_takeoff_cap_rad": _number(sim_in, "q2_takeoff_cap_rad", "sim", -0.05),
        "takeoff_rule": rule,
    }

    search_in = _require_mapping(doc.get("search", {}), "search")
    _check_keys(search_in, _SEARCH_KEYS, "search")
    search = {
        "r_mm": _triple(search_in, "r_mm", "search", [25.0, 75.0, 1.0]),
        "s0_mm": _triple(search_in, "s0_mm", "search", [100.0, 250.0, 5.0]),
        "delta_theta_deg": _triple(search_in, "delta_theta_deg", "search", [-3.0, 3.0, 1.0]),
        "k_fixed": _triple(search_in, "k_fixed", "search", [10.0, 40.0, 1.0]),
    }

    angles = doc.get("angles_rad")
    if not isinstance(angles, list) or not angles or not all(map(_is_number, angles)):
        raise ConfigError("'angles_rad': expected a non-empty list of finite "
                          f"numbers, got {angles!r}")

    out_dir = doc.get("output_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"'output_dir': expected a non-empty string, got {out_dir!r}")

    return {
        "leg": leg, "motor": motor,
        **({"mechanism": mech} if mech is not None else {}),
        "sim": sim, "search": search,
        "angles_rad": [float(a) for a in angles],
        "output_dir": out_dir,
    }


def _build(resolved: dict) -> RunConfig:
    leg_r = resolved["leg"]
    try:
        leg = LegModel(
            l1=leg_r["l1_m"], l2=leg_r["l2_m"], a1=leg_r["a1_m"], a2=leg_r["a2_m"],
            m1=leg_r["m1_kg"], m2=leg_r["m2_kg"], m3=leg_r["m3_kg"],
            g=leg_r["g_mps2"], jacobian_mode=JacobianMode(leg_r["jacobian_mode"]),
        )
    except DomainError as exc:
        raise ConfigError(f"leg: {exc}") from exc

    mo = resolved["motor"]
    try:
        motor = MotorParams(
            tau_peak=mo["tau_peak_nm"], i_q_peak=mo["i_q_peak_a"],
            k_t=mo["k_t_nm_per_a"], p_peak=mo["p_peak_w"],
            omega_break=mo["omega_break_rpm"] * RADS_PER_RPM,
            omega_max=mo["omega_max_rpm"] * RADS_PER_RPM,
            omega_hpl=mo["omega_hpl_rpm"] * RADS_PER_RPM,
            r_phase=mo["r_phase_ohm"], c_iron1=mo["c_iron1_w_s_per_rad"],
            c_iron2=mo["c_iron2_w_s2_per_rad2"], eta_j=mo["eta_j"],
        )
    except DomainError as exc:
        raise ConfigError(f"motor: {exc}") from exc

    mech = None
    if "mechanism" in resolved:
        me = resolved["mechanism"]
        try:
            if me["type"] == "vrr":
                mech = VrrParams(r=me["r_mm"] / 1000.0, s0=me["s0_mm"] / 1000.0,
                                 delta_theta=me["delta_theta_deg"] * DEG,
                                 lead=me["lead_mm"] / 1000.0)
            else:
                mech = FrrParams(k_fixed=me["k_fixed"])
        except DomainError as exc:
            raise ConfigError(f"mechanism: {exc}") from exc

    si = resolved["sim"]
    try:
        # -pi suits every valid cap, so an error here is the section's own.
        sim = SimConfig(q2_init=-math.pi, dt=si["dt_s"], t_max=si["t_max_s"],
                        q2_takeoff_cap=si["q2_takeoff_cap_rad"],
                        takeoff_rule=TakeoffRule(si["takeoff_rule"]))
    except DomainError as exc:
        raise ConfigError(f"sim: {exc}") from exc

    se = resolved["search"]
    try:
        search = SearchBox(
            r_range=tuple(v / 1000.0 for v in se["r_mm"]),
            s0_range=tuple(v / 1000.0 for v in se["s0_mm"]),
            dtheta_range=tuple(v * DEG for v in se["delta_theta_deg"]),
            frr_range=tuple(se["k_fixed"]),
        )
    except DomainError as exc:
        raise ConfigError(f"search: {exc}") from exc

    angles = tuple(resolved["angles_rad"])
    for a in angles:
        try:
            replace(sim, q2_init=a)
        except DomainError as exc:
            raise ConfigError(f"angles_rad: angle {a}: {exc}") from exc

    return RunConfig(
        leg=leg, motor=motor, mechanism=mech,
        sim=replace(sim, q2_init=angles[0]), search=search,
        angles=angles, output_dir=resolved["output_dir"],
        resolved=json.dumps(resolved, sort_keys=True, indent=1),
    )


def load_config(path: str | Path, jacobian_mode: str | None = None) -> RunConfig:
    """Parse, validate and unit-convert a JSON run configuration.

    jacobian_mode ('paper' or 'geometric') overrides the config value before
    resolution, so the override is echoed in the resolved document.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_NonFinite)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    doc = _require_mapping(doc, str(path))
    if jacobian_mode is not None:
        doc.setdefault("leg", {})
        _require_mapping(doc["leg"], "leg")["jacobian_mode"] = jacobian_mode
    resolved = _resolve(doc)
    return _build(resolved)
