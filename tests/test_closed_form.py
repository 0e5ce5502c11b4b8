"""Pieces 0 and 1 of the motor envelope in closed form, against the kernel.

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

Above omega_break the motor holds the power p_peak, so dK/dy = eta_j p_peak
/ v - m g, whatever the ratio. In p = sqrt(K), with Y = m g (y - y_init),
a = eta_j p_peak / (m g sqrt(2/m)) (the terminal p) and delta = p - p_a
from the state a where the run enters the piece,

    Y - Y_a = -delta (p + p_a + 2 a) - 2 a^2 log1p(-delta / (a - p_a))
    t - t_a = 2 / (m g sqrt(2/m)) (-delta - a log1p(-delta / (a - p_a)))
    w_motor = w_a + p_peak (t - t_a)

The test finds the omega_break crossing with brentq on piece 0's closed
form, and p at each later sample with brentq on the first line.
"""

import math

import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from vrrjump import (FrrParams, SimConfig, Termination, VrrParams,
                     simulate_jump)

K_REL = 5e-13
W_REL = 5e-13
T_REL = 2e-10
# Piece 1: every sample past the crossing, and W and t at the cap.
K1_REL = 4e-15
W1_REL = 4e-15
T1_REL = 4e-15

ANGLES = [-2.618, -2.2689, -1.9199]
MECHS = [VrrParams(0.047, 0.150), VrrParams(0.050, 0.100),
         VrrParams(0.036, 0.200), FrrParams(23.0)]


def ratio(mech, q2):
    """k = d(motor angle)/dq2 = (pi a_cos / Q) sin(theta) / s(theta)."""
    if isinstance(mech, FrrParams):
        return mech.k_fixed
    th = q2 + math.pi - mech.delta_theta
    a_cos = 2.0 * mech.r * (mech.s0 + mech.r)
    a_sq = (mech.s0 + mech.r) ** 2 + mech.r ** 2
    return (math.pi * a_cos / mech.lead * math.sin(th)
            / math.sqrt(a_sq - a_cos * math.cos(th)))


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


def rise(leg, q2_init, d):
    """m g (y(q2_init + d) - y(q2_init))."""
    return (-4.0 * leg.total_mass() * leg.g * leg.jacobian_scale
            * math.sin(0.5 * q2_init + 0.25 * d) * math.sin(0.25 * d))


@pytest.mark.parametrize("mech, angle", [
    (VrrParams(0.047, 0.150), -2.2689), (VrrParams(0.047, 0.150), -1.9199),
    (VrrParams(0.050, 0.100), -1.9199), (VrrParams(0.036, 0.200), -2.2689),
], ids=["vrr47-150-2.2689", "vrr47-150-1.9199", "vrr50-100-1.9199",
        "vrr36-200-2.2689"])
def test_piece1_matches_closed_form(leg, motor, mech, angle):
    """K, w_motor and t of every sample past the one omega_break crossing,
    and W and t at the cap, of runs that end on piece 1."""
    res = simulate_jump(leg, motor, mech, SimConfig(q2_init=angle))
    m, f = leg.total_mass(), leg.jacobian_scale
    mg, c_v = m * leg.g, math.sqrt(2.0 / m)
    state = piece0(leg, motor, mech, angle)

    def omega(d):
        q2 = angle + d
        return (ratio(mech, q2) * math.sqrt(2.0 * state(d)[0] / m)
                / (f * abs(math.sin(0.5 * q2))))
    d_a = brentq(lambda d: omega(d) - motor.omega_break, 1e-9,
                 -0.05 - angle, xtol=1e-15)
    k_a, w_a, _ = state(d_a)
    t_a = quad(lambda x: state(x * x)[2], 0.0, math.sqrt(d_a), epsabs=0.0,
               epsrel=2e-14, limit=200)[0]
    p_a, y_a = math.sqrt(k_a), rise(leg, angle, d_a)
    a = motor.eta_j * motor.p_peak / (mg * c_v)
    assert p_a < a

    def piece1(d):
        """(K, w_motor, t) at q2 = angle + d on piece 1."""
        def excess(p):
            delta = p - p_a
            return (y_a - delta * (p + p_a + 2.0 * a)
                    - 2.0 * a * a * math.log1p(-delta / (a - p_a))
                    - rise(leg, angle, d))
        p = brentq(excess, 0.5 * p_a, a * (1.0 - 1e-12), xtol=1e-300)
        p -= excess(p) * (a - p) / (2.0 * p * p)   # one Newton step
        delta = p - p_a
        t = t_a + 2.0 / (mg * c_v) * (-delta - a * math.log1p(
            -delta / (a - p_a)))
        return p * p, w_a + motor.p_peak * (t - t_a), t

    assert res.terminated_by is Termination.ANGLE_CAP
    past = [s for s in res.trajectory if s.q2 - angle > d_a]
    assert len(past) >= 10
    for s in past:
        assert motor.omega_break <= s.omega_m <= motor.omega_hpl
        k, w, t = piece1(s.q2 - angle)
        assert 0.5 * m * s.dy_com ** 2 == pytest.approx(k, rel=K1_REL, abs=0)
        assert s.w_motor == pytest.approx(w, rel=W1_REL, abs=0)
        assert s.t == pytest.approx(t, rel=T1_REL, abs=0)
    k, _, t = piece1(-0.05 - angle)
    w_cap = k + mg * 2.0 * f * math.cos(0.5 * -0.05)
    assert res.w_takeoff == pytest.approx(w_cap, rel=W1_REL, abs=0)
    assert res.t_takeoff == pytest.approx(t, rel=T1_REL, abs=0)
