"""Properties of the models over fixed samples of their inputs.

Each property is checked on a fixed, parametrized sample: the corners and
centre of the default design box, and motors around the default preset.
"""

import math

import pytest

from vrrjump import (SimConfig, VrrParams, joint_angle, max_torque,
                     peak_crank_angle, reduction_ratio, simulate_jump)
from conftest import motor_variant

DEG = math.pi / 180.0

DESIGNS = [(r, s0, dth) for r in (0.025, 0.047, 0.075)
           for s0 in (0.100, 0.150, 0.250) for dth in (-3 * DEG, 0.0, 3 * DEG)]

MOTORS = [dict(), dict(tau_peak=6.0), dict(tau_peak=14.0), dict(p_peak=900.0),
          dict(p_peak=2400.0), dict(tau_peak=6.0, p_peak=2400.0)]


@pytest.mark.parametrize("r,s0,dth", DESIGNS)
def test_ratio_nonnegative_and_peaks_at_closed_form(r, s0, dth):
    """k >= 0 on the crank range (0, pi), rises up to theta* and falls after
    it, and k(theta*) = 2 pi r / lead is the largest sampled value."""
    params = VrrParams(r=r, s0=s0, delta_theta=dth)
    peak = peak_crank_angle(params)
    thetas = sorted([math.pi * i / 400 for i in range(1, 400)] + [peak])
    ks = [reduction_ratio(params, joint_angle(params, th)) for th in thetas]
    i_peak = thetas.index(peak)
    assert min(ks) >= 0.0
    assert ks[i_peak] == pytest.approx(2 * math.pi * r / params.lead, rel=1e-12)
    assert max(ks) == ks[i_peak]
    rising, falling = ks[:i_peak + 1], ks[i_peak:]
    assert all(a < b for a, b in zip(rising, rising[1:]))
    assert all(a > b for a, b in zip(falling, falling[1:]))


@pytest.mark.parametrize("variant", MOTORS, ids=str)
def test_envelope_continuous_and_nonincreasing(motor, variant):
    m = motor_variant(motor, **variant)
    top = 1.2 * m.omega_max
    omegas = [top * i / 4000 for i in range(4001)]
    taus = [max_torque(m, w) for w in omegas]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(taus, taus[1:]))
    # Continuous: no jump across a breakpoint, where the formula changes.
    for corner in (m.omega_break, m.omega_hpl, m.omega_max):
        eps = 1e-9 * corner
        below, above = max_torque(m, corner - eps), max_torque(m, corner + eps)
        assert below >= above
        assert below - above <= 1e-6 * m.tau_peak


@pytest.mark.parametrize("angle", [-2.618, -2.2689, -1.9199])
@pytest.mark.parametrize("field,values", [
    ("tau_peak", (3.0, 5.0, 7.0, 9.37, 12.0, 16.0)),
    ("p_peak", (600.0, 900.0, 1200.0, 1500.0, 2000.0, 2600.0)),
])
def test_energy_nondecreasing_in_motor_peaks(leg, motor, mech_opt, angle,
                                             field, values):
    """A stronger motor never lowers the takeoff energy of the reference
    design (r = 47 mm, S0 = 150 mm)."""
    cfg = SimConfig(q2_init=angle)
    ws = [simulate_jump(leg, motor_variant(motor, **{field: v}), mech_opt, cfg,
                        record=False).w_takeoff for v in values]
    assert all(a <= b for a, b in zip(ws, ws[1:])), ws
