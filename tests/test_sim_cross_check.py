"""Cross-validation of the takeoff integration against an independent solver.

The same dynamics closure is integrated in the time domain with scipy's
adaptive RK45 at tight tolerance, with takeoff located by event detection.
The production integrator steps in the knee angle instead, so agreement to
1e-8 in energy and 1e-6 in time checks both the formulation and its
convergence.
"""

import math

import pytest
from scipy.integrate import solve_ivp

from vrrjump import (FrrParams, SimConfig, Termination, VrrParams,
                     com_height, com_jacobian, max_torque, reduction_ratio,
                     simulate_jump)

W_REL = 1e-8
T_REL = 1e-6


def jacobian_derivative(leg, q2):
    """dJ/dq2 = -(f/2) cos(q2/2) of J = f |sin(q2/2)| for q2 < 0."""
    return -0.5 * leg.jacobian_scale * math.cos(0.5 * q2)


def test_jacobian_derivative_consistency(leg):
    h = 1e-7
    for q2 in (-2.5, -1.5, -0.5):
        fd = (com_jacobian(leg, q2 + h) - com_jacobian(leg, q2 - h)) / (2 * h)
        assert jacobian_derivative(leg, q2) == pytest.approx(fd, abs=1e-6)


def independent_takeoff(leg, motor, mech, q2_init, cap=-0.05, t_max=1.0):
    """(energy, time, termination) of a time-domain RK45 run."""
    m = leg.total_mass()

    def k_of(q2):
        if isinstance(mech, FrrParams):
            return mech.k_fixed
        return reduction_ratio(mech, q2)

    def rhs(t, y):
        q2, dq2 = y
        k = k_of(q2)
        tau_j = max_torque(motor, abs(k * dq2)) * k * motor.eta_j
        jj = com_jacobian(leg, q2)
        jp = jacobian_derivative(leg, q2)
        ydd = tau_j / (jj * m) - leg.g
        return [dq2, (ydd - jp * dq2 * dq2) / jj]

    def hit_cap(t, y):
        return y[0] - cap
    hit_cap.terminal = True
    hit_cap.direction = 1.0

    def force_zero(t, y):
        # The envelope torque, and with it the contact force, vanishes where
        # the motor speed reaches omega_max.
        q2, dq2 = y
        return motor.omega_max - k_of(q2) * dq2
    force_zero.terminal = True
    force_zero.direction = -1.0

    sol = solve_ivp(rhs, (0.0, t_max), [q2_init, 0.0], rtol=1e-11,
                    atol=1e-12, events=(hit_cap, force_zero), max_step=1e-2)
    assert sol.status in (0, 1), sol.message
    if sol.status == 0:
        how = Termination.TIMEOUT
    elif sol.t_events[0].size:
        how = Termination.ANGLE_CAP
    else:
        how = Termination.CONTACT_FORCE_ZERO
    q2, dq2 = sol.y[0][-1], sol.y[1][-1]
    dy = com_jacobian(leg, q2) * dq2
    return 0.5 * m * dy * dy + m * leg.g * com_height(leg, q2), sol.t[-1], how


def assert_agrees(leg, motor, mech, cfg):
    res = simulate_jump(leg, motor, mech, cfg, record=False)
    w_ref, t_ref, how = independent_takeoff(leg, motor, mech, cfg.q2_init,
                                            t_max=cfg.t_max)
    assert res.terminated_by is how
    assert res.w_takeoff == pytest.approx(w_ref, rel=W_REL)
    assert res.t_takeoff == pytest.approx(t_ref, rel=T_REL)


@pytest.mark.parametrize("mech", [VrrParams(r=0.047, s0=0.150),
                                  VrrParams(r=0.035, s0=0.220),
                                  FrrParams(22.0), FrrParams(28.0)])
@pytest.mark.parametrize("q2_init", [-2.6180, -1.9199])
def test_energy_matches_independent_integrator(leg, motor, mech, q2_init):
    assert_agrees(leg, motor, mech, SimConfig(q2_init=q2_init))


@pytest.mark.parametrize("q2_init", [-2.6180, -2.2689, -1.9199])
def test_frr_force_zero_matches_independent_integrator(leg, motor, q2_init):
    res = simulate_jump(leg, motor, FrrParams(23.0),
                        SimConfig(q2_init=q2_init), record=False)
    assert res.terminated_by is Termination.CONTACT_FORCE_ZERO
    assert_agrees(leg, motor, FrrParams(23.0), SimConfig(q2_init=q2_init))


def test_piece0_reentry_matches_independent_integrator(leg, motor):
    """With the ratio falling to nearly zero at the cap, the motor speed
    crosses omega_break upward and, in the last step, back down: the run
    enters the constant-torque piece a second time."""
    mech = VrrParams(0.047, 0.100, delta_theta=math.radians(-2.8))
    cfg = SimConfig(q2_init=-2.6180)
    assert_agrees(leg, motor, mech, cfg)
    omega = [s.omega_m for s in simulate_jump(leg, motor, mech,
                                              cfg).trajectory]
    up = next(i for i, om in enumerate(omega) if om > motor.omega_break)
    assert min(omega[up:]) < motor.omega_break


def test_piece1_reentry_matches_independent_integrator(leg, motor):
    """The motor speed crosses omega_hpl upward and falls back below it
    before the cap: the run enters the constant-power piece a second time,
    from above."""
    mech = VrrParams(0.047, 0.200, delta_theta=math.radians(-1.0))
    cfg = SimConfig(q2_init=-2.6180)
    assert_agrees(leg, motor, mech, cfg)
    omega = [s.omega_m for s in simulate_jump(leg, motor, mech,
                                              cfg).trajectory]
    up = next(i for i, om in enumerate(omega) if om > motor.omega_hpl)
    assert motor.omega_break < min(omega[up:]) < motor.omega_hpl


@pytest.mark.parametrize("mech,angle,t_max", [
    pytest.param(VrrParams(r=0.047, s0=0.150), -2.6180, 0.05, id="mech0"),
    pytest.param(FrrParams(22.0), -2.6180, 0.05, id="mech1"),
    # t_max inside the piece-1 rows that the kernel skips (recorded, piece
    # 1 spans t = 0.132 to 0.265 s of this run).
    pytest.param(VrrParams(r=0.047, s0=0.150), -2.2689, 0.2,
                 id="piece1"),
])
def test_moving_timeout_matches_independent_integrator(leg, motor, mech,
                                                       angle, t_max):
    cfg = SimConfig(q2_init=angle, t_max=t_max)
    assert_agrees(leg, motor, mech, cfg)
    res = simulate_jump(leg, motor, mech, cfg, record=False)
    assert res.q2_at_takeoff > cfg.q2_init
    assert math.isclose(res.t_takeoff, cfg.t_max, abs_tol=1e-9)
