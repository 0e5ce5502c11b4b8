"""Piece 0 of the motor envelope in closed form, against the kernel.

Below omega_break the motor holds tau_peak, so work and energy give the
state at every knee angle q2 = q2_init + d without integrating:

    w_motor = tau_peak (phi(q2) - phi(q2_init))
    K       = eta_j w_motor - m g (y(q2) - y(q2_init))
    t       = int_0^sqrt(d) 2 x J / v dx,   v = sqrt(2 K / m),  d = x^2

The motor angle is phi = (2 pi / Q) s(theta), with the actuator length s
from the law of cosines, s^2 = (S0 + r)^2 + r^2 - 2 r (S0 + r) cos(theta),
or k_fixed q2 for a fixed ratio, and the CoM height is y = 2 f cos(q2/2).
This file writes each difference in product form, so that no digits cancel
near the start, and integrates t with scipy's quad. It calls neither
ratio_law nor the simulator's internals: every recorded sample at or below
omega_break must match it.
"""

import math

import pytest
from scipy.integrate import quad

from vrrjump import FrrParams, SimConfig, VrrParams, simulate_jump

K_REL = 5e-13
W_REL = 5e-13
T_REL = 2e-10

ANGLES = [-2.618, -2.2689, -1.9199]
MECHS = [VrrParams(0.047, 0.150), VrrParams(0.050, 0.100),
         VrrParams(0.036, 0.200), FrrParams(23.0)]


def piece0(leg, motor, mech, q2_init):
    """d -> (K, w_motor, dt/dx at x = sqrt(d)) on piece 0, from rest at
    q2_init."""
    m, f = leg.total_mass(), leg.jacobian_scale
    if isinstance(mech, FrrParams):
        def motor_angle(d):
            return mech.k_fixed * d
    else:
        th0 = q2_init + math.pi - mech.delta_theta
        a_cos = 2.0 * mech.r * (mech.s0 + mech.r)
        a_sq = (mech.s0 + mech.r) ** 2 + mech.r ** 2
        s_init = math.sqrt(a_sq - a_cos * math.cos(th0))

        def motor_angle(d):
            # s^2 - s_init^2 = a_cos (cos th0 - cos(th0 + d))
            ds2 = a_cos * 2.0 * math.sin(th0 + 0.5 * d) * math.sin(0.5 * d)
            s = math.sqrt(a_sq - a_cos * math.cos(th0 + d))
            return 2.0 * math.pi / mech.lead * ds2 / (s + s_init)

    def state(d):
        w = motor.tau_peak * motor_angle(d)
        # y(q2_init + d) - y(q2_init)
        dy = -4.0 * f * math.sin(0.5 * q2_init + 0.25 * d) * math.sin(0.25 * d)
        k = motor.eta_j * w - m * leg.g * dy
        jj = f * abs(math.sin(0.5 * (q2_init + d)))
        return k, w, 2.0 * math.sqrt(d) * jj / math.sqrt(2.0 * k / m)
    return state


@pytest.mark.parametrize("mech", MECHS,
                         ids=["vrr47-150", "vrr50-100", "vrr36-200", "frr23"])
@pytest.mark.parametrize("angle", ANGLES)
def test_piece0_matches_closed_form(leg, motor, mech, angle):
    """K, w_motor and t of every sample before the first omega_break
    crossing. K and w_motor differ by rounding, mostly of q2 - q2_init;
    t carries the error of the kernel's order-6 quadrature."""
    res = simulate_jump(leg, motor, mech, SimConfig(q2_init=angle))
    state = piece0(leg, motor, mech, angle)
    m = leg.total_mass()
    start, *rest = res.trajectory
    assert (start.t, start.w_motor, start.dy_com) == (0.0, 0.0, 0.0)
    t, u, checked = 0.0, 0.0, 0
    for s in rest:
        if s.omega_m > motor.omega_break:
            break
        d = s.q2 - angle
        x = math.sqrt(d)
        t += quad(lambda x: state(x * x)[2], u, x, epsabs=0.0,
                  epsrel=1e-13, limit=200)[0]
        u = x
        k, w, _ = state(d)
        assert 0.5 * m * s.dy_com ** 2 == pytest.approx(k, rel=K_REL, abs=0)
        assert s.w_motor == pytest.approx(w, rel=W_REL, abs=0)
        assert s.t == pytest.approx(t, rel=T_REL, abs=0)
        checked += 1
    assert checked >= 10
