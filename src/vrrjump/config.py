"""Run-configuration ingestion: JSON with human-native units, strict keys.

Config files use mm / degrees / rpm where the engineering drawings would;
conversion to SI happens once at this boundary. Each section is one table of
(JSON key, model field, unit[, default]) rows, from which come the allowed
keys, the required keys, the defaults and the conversion. A row without a
default takes the model field's default, converted to the document unit; a
row whose model field has none is required. Loading is one pass over the
sections in a fixed order (leg, motor, mechanism, sim, search, angles_rad,
output_dir): each section's keys are checked against its table, its
defaults are materialized into a fully-explicit "resolved" section in the
same human units, and its model object is built from the resolved values,
before the next section is read. The first fault in that order is the one
reported, whether it is a key, a value or a model's own check. Re-loading
an emitted resolved document therefore reproduces the configuration
exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from pathlib import Path

from .errors import ConfigError, echo, naming
from .leg import JacobianMode, LegModel
from .mechanism import DEG, FrrParams, VrrParams
from .motor import RADS_PER_RPM, MotorParams, loss_balance_c_iron2
from .optimize import SearchBox, _axis
from .report import check_angle_labels
from .sim import SimConfig, TakeoffRule


class _Unit:
    """A number's conversion from the document unit to the model's SI unit
    and back."""

    def __init__(self, to_si: Callable[[float], float],
                 to_doc: Callable[[float], float]):
        self.to_si, self.to_doc = to_si, to_doc


class _Range:
    """A [min, max, step] list of numbers in one unit."""

    def __init__(self, unit: _Unit):
        self.unit = unit


SI = _Unit(lambda v: v, lambda v: v)
MM = _Unit(lambda v: v / 1000.0, lambda v: v * 1000.0)
DEGREES = _Unit(lambda v: v * DEG, lambda v: v / DEG)
RPM = _Unit(lambda v: v * RADS_PER_RPM, lambda v: v / RADS_PER_RPM)

_LEG = (("l1_m", "l1", SI), ("l2_m", "l2", SI), ("a1_m", "a1", SI),
        ("a2_m", "a2", SI), ("m1_kg", "m1", SI), ("m2_kg", "m2", SI),
        ("m3_kg", "m3", SI), ("g_mps2", "g", SI),
        ("jacobian_mode", "jacobian_mode", JacobianMode))
_MOTOR = (
    # The 72 V, 1.5 kW / 9.37 Nm knee-drive preset. omega_break sits at the
    # constant-torque/constant-power corner, omega_max at the 4800 rpm
    # no-load region; r_phase and c_iron1 are plausible fixed values, and
    # c_iron2 is loss_balance_c_iron2's fit, clamped at 0, so that net output
    # power vanishes at (i_q_peak, omega_max). Derived defaults are computed
    # in document units from the keys above them.
    ("tau_peak_nm", "tau_peak", SI, 9.37),
    ("i_q_peak_a", "i_q_peak", SI, 92.0),
    ("p_peak_w", "p_peak", SI, 1500.0),
    ("k_t_nm_per_a", "k_t", SI, lambda m: m["tau_peak_nm"] / m["i_q_peak_a"]),
    ("omega_break_rpm", "omega_break", RPM,
     lambda m: (m["p_peak_w"] / m["tau_peak_nm"]) / RADS_PER_RPM),
    ("omega_max_rpm", "omega_max", RPM, 4800.0),
    ("omega_hpl_rpm", "omega_hpl", RPM, lambda m: 0.75 * m["omega_max_rpm"]),
    ("r_phase_ohm", "r_phase", SI, 0.05),
    ("c_iron1_w_s_per_rad", "c_iron1", SI, 0.5),
    ("c_iron2_w_s2_per_rad2", "c_iron2", SI, lambda m: max(loss_balance_c_iron2(
        m["k_t_nm_per_a"], m["i_q_peak_a"], m["omega_max_rpm"] * RADS_PER_RPM,
        m["r_phase_ohm"], m["c_iron1_w_s_per_rad"]), 0.0)),
    ("eta_j", "eta_j", SI),
)
_MECHANISMS = {
    "vrr": (VrrParams, (("r_mm", "r", MM), ("s0_mm", "s0", MM),
                        ("delta_theta_deg", "delta_theta", DEGREES),
                        ("lead_mm", "lead", MM))),
    "frr": (FrrParams, (("k_fixed", "k_fixed", SI),)),
}
_SIM = (("dt_s", "dt", SI), ("t_max_s", "t_max", SI),
        ("q2_takeoff_cap_rad", "q2_takeoff_cap", SI),
        ("takeoff_rule", "takeoff_rule", TakeoffRule))
_SEARCH = (("r_mm", "r_range", _Range(MM), (25.0, 75.0, 1.0)),
           ("s0_mm", "s0_range", _Range(MM), (100.0, 250.0, 5.0)),
           ("delta_theta_deg", "dtheta_range", _Range(DEGREES), (-3.0, 3.0, 1.0)),
           ("k_fixed", "frr_range", _Range(SI), (10.0, 40.0, 1.0)))
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
            raise ConfigError(
                f"unknown key {echo(f'{path}.{key}' if path else key)}")


class _NonFinite:
    """A NaN, Infinity or -Infinity token of the JSON text.

    json.loads would turn these into floats; keeping them as this marker
    makes every reader reject them, naming the key.
    """

    def __init__(self, token: str):
        self.token = token

    def __repr__(self) -> str:
        return self.token


def _unique_keys(pairs: list) -> dict:
    """One JSON object, refused when a name repeats: json.loads would keep
    the last value without a word."""
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key '{key}'")
        obj[key] = val
    return obj


def _is_number(val) -> bool:
    """A finite JSON number (literals such as 1e999 overflow to inf)."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and math.isfinite(val))


def _read(val, unit, where: str):
    """Validate one document value of the unit's kind, in document units."""
    if isinstance(unit, _Unit):
        if not _is_number(val):
            raise ConfigError(f"'{where}': expected a finite number, got {echo(val)}")
        return float(val)
    if isinstance(unit, _Range):
        if (not isinstance(val, list) or len(val) != 3
                or not all(_is_number(v) for v in val)):
            raise ConfigError(f"'{where}': expected [min, max, step] finite "
                              f"numbers, got {echo(val)}")
        return [float(v) for v in val]
    allowed = sorted(member.value for member in unit)
    if val not in allowed:
        raise ConfigError(f"'{where}': expected one of {allowed}, got {echo(val)}")
    return val


def _to_si(unit, val):
    if isinstance(unit, _Unit):
        return unit.to_si(val)
    if isinstance(unit, _Range):
        return tuple(unit.unit.to_si(v) for v in val)
    return unit(val)


def _section(node, rows: tuple, model: type, path: str, **extra):
    """Check one section against its table, materialize every default and
    build its model object in SI: (the resolved section, the model)."""
    _check_keys(_require_mapping(node, path), {row[0] for row in rows}, path)
    model_defaults = {f.name: f.default for f in fields(model)}
    out = {}
    for key, field, unit, *default in rows:
        where = f"{path}.{key}"
        if key in node:
            out[key] = _read(node[key], unit, where)
        elif default:
            try:
                out[key] = default[0](out) if callable(default[0]) else default[0]
            except ZeroDivisionError:
                raise ConfigError(f"'{where}': its default, derived from the "
                                  f"section's other keys, divides by zero") from None
        elif model_defaults[field] is not MISSING:
            val = model_defaults[field]
            out[key] = val.value if isinstance(val, Enum) else unit.to_doc(val)
        else:
            raise ConfigError(f"missing required key '{where}'")
    return out, naming(path, model, **{field: _to_si(unit, out[key])
                                       for key, field, unit, *_ in rows}, **extra)


def _run_config(doc: dict) -> RunConfig:
    """Check, resolve and build the document, one section at a time."""
    _check_keys(doc, _TOP_KEYS, "")
    if "leg" not in doc:
        raise ConfigError("missing required section 'leg'")
    resolved, mech = {}, None
    resolved["leg"], leg = _section(doc["leg"], _LEG, LegModel, "leg")
    resolved["motor"], motor = _section(doc.get("motor", {}), _MOTOR,
                                        MotorParams, "motor")
    if "mechanism" in doc:
        mech_in = dict(_require_mapping(doc["mechanism"], "mechanism"))
        mtype = mech_in.pop("type", None)
        if not isinstance(mtype, str) or mtype not in _MECHANISMS:
            raise ConfigError(f"'mechanism.type': expected 'vrr' or 'frr', got {echo(mtype)}")
        model, rows = _MECHANISMS[mtype]
        resolved["mechanism"], mech = _section(mech_in, rows, model, "mechanism")
        resolved["mechanism"]["type"] = mtype
    # -pi suits every valid cap, so an error here is the section's own.
    resolved["sim"], sim = _section(doc.get("sim", {}), _SIM, SimConfig, "sim",
                                    q2_init=-math.pi)
    resolved["search"], search = _section(doc.get("search", {}), _SEARCH,
                                          SearchBox, "search")
    # Every VRR candidate needs s0 > r: the pair of the S0 floor and the
    # largest r is the first to fail.
    r_max = _axis(search.r_range)[-1]
    if search.s0_range[0] <= r_max:
        raise ConfigError(
            f"'search.s0_mm': floor {resolved['search']['s0_mm'][0]:g} mm must "
            f"exceed the largest 'search.r_mm' value, {MM.to_doc(r_max):g} mm")

    angles = doc.get("angles_rad")
    if not isinstance(angles, list) or not angles or not all(map(_is_number, angles)):
        raise ConfigError("'angles_rad': expected a non-empty list of finite "
                          f"numbers, got {echo(angles)}")
    angles = tuple(float(a) for a in angles)
    resolved["angles_rad"] = list(angles)
    sims = [naming(f"angles_rad: angle {a}", replace, sim, q2_init=a)
            for a in angles]
    naming("angles_rad", check_angle_labels, angles)

    out_dir = doc.get("output_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"'output_dir': expected a non-empty string, got {echo(out_dir)}")
    resolved["output_dir"] = out_dir
    return RunConfig(
        leg=leg, motor=motor, mechanism=mech, sim=sims[0], search=search,
        angles=angles, output_dir=out_dir,
        resolved=json.dumps(resolved, sort_keys=True, indent=1),
    )


def default_motor() -> MotorParams:
    """The motor of a config with no motor section: the knee-drive preset
    at the head of the motor table, with its derived values."""
    return _section({}, _MOTOR, MotorParams, "motor")[1]


def load_config(path: str | Path, jacobian_mode: str | None = None) -> RunConfig:
    """Parse, validate and unit-convert a JSON run configuration.

    jacobian_mode ('paper' or 'geometric') overrides the config value before
    resolution, so the override is echoed in the resolved document.
    """
    path = Path(path)
    name = echo(str(path))
    try:
        doc = json.loads(path.read_text(encoding="utf-8"),
                         parse_constant=_NonFinite, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{name}: not UTF-8 text ({exc.reason} at offset "
                          f"{exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{name}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ConfigError(f"{name}: JSON nested too deeply to parse") from None
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    doc = _require_mapping(doc, name)
    if jacobian_mode is not None:
        doc.setdefault("leg", {})
        _require_mapping(doc["leg"], "leg")["jacobian_mode"] = jacobian_mode
    return _run_config(doc)
