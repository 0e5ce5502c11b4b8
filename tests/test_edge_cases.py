import dataclasses
import importlib.resources
import json
import math
import pickle

import pytest

from vrrjump import (ConfigError, DomainError, FrrParams, LegModel,
                     SimConfig, Termination, VrrParams, default_motor,
                     errors, load_config, ratio_curve, simulate_jump)


def test_takeoff_from_just_below_cap(leg, motor, mech_opt):
    """Terminal stepping engages immediately when starting near the cap."""
    cfg = SimConfig(q2_init=-0.06)
    res = simulate_jump(leg, motor, mech_opt, cfg)
    assert res.terminated_by is Termination.ANGLE_CAP
    assert res.q2_at_takeoff == pytest.approx(-0.05, abs=1e-8)
    assert res.t_takeoff < 0.05
    assert res.w_takeoff < 250.0


def test_takeoff_from_shallow_crouch_frr(leg, motor):
    """From a shallow crouch the motor reaches omega_max before the cap."""
    cfg = SimConfig(q2_init=-0.8)
    res = simulate_jump(leg, motor, FrrParams(22.0), cfg, record=False)
    assert res.terminated_by is Termination.CONTACT_FORCE_ZERO
    assert res.h_jump == pytest.approx(0.121, abs=5e-4)
    assert res.q2_at_takeoff == pytest.approx(-0.357, abs=5e-4)


def test_ratio_curve_argmax_at_interval_edge(mech_opt):
    """On a range past the peak the refined argmax is the left endpoint."""
    curve = ratio_curve(mech_opt, -0.5, -0.1, 50)
    assert curve.argmax_q2 == pytest.approx(-0.5, abs=1e-5)
    assert curve.k_max == pytest.approx(curve.samples[0][1], rel=1e-6)


def test_vrr_large_lead_scales_ratio_down(leg, motor, deep_crouch):
    """Doubling the screw lead halves the ratio curve and weakens the jump."""
    base = simulate_jump(leg, motor, VrrParams(0.047, 0.150, lead=0.010),
                         deep_crouch, record=False)
    coarse = simulate_jump(leg, motor, VrrParams(0.047, 0.150, lead=0.020),
                           deep_crouch, record=False)
    assert coarse.w_takeoff < base.w_takeoff


def test_config_angle_above_cap_rejected(tmp_path):
    doc = json.loads(importlib.resources.files("vrrjump.configs")
                     .joinpath("fullscale.json").read_text())
    doc["angles_rad"] = [-0.04]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="^angles_rad: angle -0.04: "):
        load_config(path)


def test_every_package_error_pickles():
    """Pool workers send errors back pickled: each class must round-trip
    with its message and its extra fields."""
    samples = [
        errors.VrrJumpError("base"),
        errors.DomainError("out of domain"),
        errors.MechanismRangeError("theta out of range"),
        errors.SimulationRangeError("left the range"),
        errors.NoFeasibleDesignError("no design"),
        errors.ConfigError("bad key"),
    ]
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.VrrJumpError)}
    assert {type(e) for e in samples} == classes
    for exc in samples:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)


def test_simulation_insensitive_to_record_flag_near_events(leg, motor, mech_opt):
    for q0 in (-0.06, -2.618):
        cfg = SimConfig(q2_init=q0)
        a = simulate_jump(leg, motor, mech_opt, cfg, record=True)
        b = simulate_jump(leg, motor, mech_opt, cfg, record=False)
        assert a.w_takeoff == b.w_takeoff
        assert a.q2_at_takeoff == b.q2_at_takeoff


def test_custom_gravity_scales_energy(motor, mech_opt, deep_crouch):
    from vrrjump import LegModel
    earth = LegModel(0.45, 0.45, 0.225, 0.225, 2.5, 5.0, 20.0)
    moon = dataclasses.replace(earth, g=1.62)
    res_e = simulate_jump(earth, motor, mech_opt, deep_crouch, record=False)
    res_m = simulate_jump(moon, motor, mech_opt, deep_crouch, record=False)
    assert res_m.h_jump > res_e.h_jump


def test_timeout_when_horizon_too_short(leg, motor, mech_opt):
    cfg = SimConfig(q2_init=-2.618, t_max=0.05)
    res = simulate_jump(leg, motor, mech_opt, cfg, record=False)
    assert res.terminated_by is Termination.TIMEOUT
    assert res.t_takeoff == pytest.approx(0.05, abs=1e-9)
    assert res.q2_at_takeoff > -2.618


def test_deep_fold_start(leg, motor):
    """Start at the fully folded pose; the model lifts through the flat zone."""
    cfg = SimConfig(q2_init=-math.pi)
    res = simulate_jump(leg, motor, FrrParams(25.0), cfg, record=False)
    assert res.terminated_by in (Termination.CONTACT_FORCE_ZERO,
                                 Termination.ANGLE_CAP)
    assert res.h_jump > 0.2


def test_custom_takeoff_cap(leg, motor, mech_opt):
    res = simulate_jump(leg, motor, mech_opt,
                        SimConfig(q2_init=-2.618, q2_takeoff_cap=-0.3),
                        record=False)
    assert res.terminated_by is Termination.ANGLE_CAP
    assert res.q2_at_takeoff == pytest.approx(-0.3, abs=1e-8)


@pytest.mark.parametrize("make", [
    lambda: LegModel(0.45, 0.45, 0.225, 0.225, 2.5, 5.0, math.inf),
    lambda: LegModel(0.45, 0.45, 0.225, 0.225, 2.5, 5.0, 20.0, g=math.nan),
    lambda: dataclasses.replace(default_motor(), eta_j=math.nan),
    lambda: dataclasses.replace(default_motor(), omega_hpl=math.inf),
    lambda: dataclasses.replace(default_motor(), c_iron1=math.inf),
    lambda: VrrParams(0.047, 0.150, delta_theta=math.nan),
    lambda: VrrParams(0.047, math.inf),
    lambda: FrrParams(math.inf),
    lambda: SimConfig(q2_init=-2.0, dt=math.nan),
])
def test_models_reject_non_finite_numbers(make):
    with pytest.raises(DomainError, match="must be finite"):
        make()
