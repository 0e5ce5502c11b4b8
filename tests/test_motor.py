import bisect
import math

import numpy as np
import pytest

from vrrjump import (DomainError, MotorParams, envelope_pieces,
                     envelope_table, max_torque, power_loss)

RADS_PER_RPM = math.pi / 30.0


def test_default_preset_anchors(motor):
    assert motor.tau_peak == 9.37
    assert motor.p_peak == 1500.0
    assert motor.k_t == pytest.approx(9.37 / 92.0, rel=1e-15)
    assert motor.omega_break == pytest.approx(1500.0 / 9.37, rel=1e-15)
    assert motor.omega_break / RADS_PER_RPM == pytest.approx(1529, abs=1.0)
    assert motor.omega_max == pytest.approx(4800 * RADS_PER_RPM, rel=1e-15)
    assert motor.omega_hpl == pytest.approx(0.75 * motor.omega_max, rel=1e-15)


def test_loss_coefficients_frozen_fit(motor):
    # regression fixture: the fit renders net output ~0 at (i_q_peak, omega_max)
    assert motor.r_phase == 0.05
    assert motor.c_iron1 == 0.5
    assert motor.c_iron2 == pytest.approx(0.0151338555896828, rel=1e-12)
    em_power = motor.k_t * motor.i_q_peak * motor.omega_max
    assert power_loss(motor, motor.i_q_peak, motor.omega_max) == pytest.approx(
        em_power, rel=1e-12)


def test_max_torque_piecewise(motor):
    assert max_torque(motor, 0.0) == 9.37
    assert max_torque(motor, motor.omega_break * 0.5) == 9.37
    assert max_torque(motor, motor.omega_max) == 0.0
    assert max_torque(motor, motor.omega_max * 2) == 0.0
    for bad in (-1.0, math.nan):
        with pytest.raises(DomainError):
            max_torque(motor, bad)


def test_max_torque_continuous_at_corner(motor):
    eps = 1e-9
    below = max_torque(motor, motor.omega_break - eps)
    above = max_torque(motor, motor.omega_break + eps)
    assert below == pytest.approx(9.37, rel=1e-9)
    assert above == pytest.approx(9.37, rel=1e-7)


def test_max_torque_continuous_at_derate_onset(motor):
    eps = 1e-9
    below = max_torque(motor, motor.omega_hpl - eps)
    above = max_torque(motor, motor.omega_hpl + eps)
    assert above == pytest.approx(below, rel=1e-6)


def test_envelope_is_its_pieces(motor):
    """envelope_pieces states the envelope's shape once: its rule changes
    piece exactly at its kinks, max_torque takes the piece the rule names,
    and each piece's formula continues smoothly past the kinks that bound
    it."""
    pieces, kinks, piece = envelope_pieces(motor)
    peak, power, derated, zero = pieces
    assert kinks == (motor.omega_break, motor.omega_hpl, motor.omega_max)
    assert [piece(w) for w in (0.0, *kinks)] == [0, 0, 1, 3]
    for i, w in enumerate(kinks):
        assert piece(math.nextafter(w, 0.0)) == i
        assert piece(math.nextafter(w, math.inf)) == i + 1
    omegas = [w * f for w in kinks for f in (1 - 1e-12, 1.0, 1 + 1e-12)]
    omegas += list(np.linspace(0.0, 1.2 * motor.omega_max, 1000))
    for w in omegas:
        # Each kink belongs to the piece below it, but omega_max to zero.
        assert piece(w) == bisect.bisect_left(kinks, w) + (w == kinks[-1])
        assert max_torque(motor, w) == pieces[piece(w)](w)
    w = 1.1 * motor.omega_max
    assert peak(w) == motor.tau_peak and zero(0.5) == 0.0
    assert power(w) == motor.p_peak / w
    assert derated(w) == pytest.approx(
        -0.1 * motor.omega_max * motor.p_peak
        / (w * (motor.omega_max - motor.omega_hpl)), rel=1e-12)


def test_max_torque_nonincreasing(motor):
    omegas = np.linspace(0.0, motor.omega_max, 10_000)
    taus = [max_torque(motor, w) for w in omegas]
    for a, b in zip(taus, taus[1:]):
        assert b <= a + 1e-9


def test_envelope_power_bounded_and_exact_at_corner(motor):
    omegas = np.linspace(0.0, motor.omega_max, 10_000)
    for w in omegas:
        assert max_torque(motor, w) * w <= motor.p_peak * 1.05
    corner = max_torque(motor, motor.omega_break) * motor.omega_break
    assert corner == pytest.approx(motor.p_peak, rel=1e-6)


def test_power_loss_basics(motor):
    assert power_loss(motor, 0.0, 0.0) == 0.0
    base = power_loss(motor, 10.0, 0.0)
    assert power_loss(motor, 20.0, 0.0) == pytest.approx(4 * base, rel=1e-14)
    assert power_loss(motor, 5.0, -100.0) == power_loss(motor, 5.0, 100.0)


def test_power_loss_regression_fixture(motor):
    # frozen: 1.5*0.05*92^2 + 0.5*160 + c2*160^2 at the recorded c2
    expected = 1.5 * 0.05 * 92.0 ** 2 + 0.5 * 160.0 + motor.c_iron2 * 160.0 ** 2
    assert power_loss(motor, 92.0, 160.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(1102.23, abs=0.01)


def test_power_loss_monotone_and_convex_in_current(motor):
    iqs = np.linspace(0.0, 92.0, 200)
    losses = [power_loss(motor, i, 100.0) for i in iqs]
    assert all(b >= a for a, b in zip(losses, losses[1:]))
    second = np.diff(losses, 2)
    assert np.all(second >= -1e-9)


def test_envelope_table(motor):
    table = list(envelope_table(motor, 501))
    assert len(table) == 501
    assert table[0].omega == 0.0 and table[0].p_out == 0.0
    assert table[-1].omega == motor.omega_max and table[-1].tau_max == 0.0
    peak = max(p.p_out for p in table)
    assert abs(peak - motor.p_peak) <= 0.05 * motor.p_peak
    assert all(p.p_loss >= 0.0 for p in table)
    # unimodal output power: once it has fallen, it never rises again
    fallen = False
    for a, b in zip(table, table[1:]):
        if b.p_out < a.p_out - 1e-9:
            fallen = True
        elif fallen:
            assert b.p_out <= a.p_out + 1e-9
    with pytest.raises(DomainError):
        envelope_table(motor, 1)


@pytest.mark.parametrize("bad", [
    dict(tau_peak=-1.0),
    dict(p_peak=0.0),
    dict(omega_break=600.0),          # >= omega_max
    dict(eta_j=0.0),
    dict(eta_j=1.2),
    dict(omega_break=100.0),          # breaks the corner consistency
    dict(k_t=0.2),                    # breaks k_t*i_q ~ tau_peak
    dict(omega_hpl=0.0),              # below omega_break; no longer a sentinel
])
def test_params_invariants(bad):
    fields = dict(
        tau_peak=9.37, i_q_peak=92.0, k_t=9.37 / 92.0, p_peak=1500.0,
        omega_break=1500.0 / 9.37, omega_max=4800 * RADS_PER_RPM,
        r_phase=0.05, c_iron1=0.5, c_iron2=0.0151338555896828,
        omega_hpl=3600 * RADS_PER_RPM,
    )
    MotorParams(**fields)
    fields.update(bad)
    with pytest.raises(DomainError):
        MotorParams(**fields)
