import math

import numpy as np
import pytest

from vrrjump import (DomainError, FrrParams, MechanismRangeError, VrrParams,
                     check_working_range, com_jacobian, crank_angle,
                     joint_angle, peak_crank_angle, ratio_curve, ratio_law,
                     reduction_ratio)


def k_oracle(r, s0, theta, lead=0.010):
    """Direct evaluation of the crank-slider ratio for cross-checks."""
    s = math.sqrt((s0 + r) ** 2 + r ** 2 - 2 * r * (s0 + r) * math.cos(theta))
    return 2 * math.pi * r * (s0 + r) * math.sin(theta) / (lead * s)


def test_reference_ratio_value(mech_opt):
    # theta = pi/2: numerator 2*pi*0.047*0.197, radicand 0.197^2 + 0.047^2
    expected = (2 * math.pi * 0.047 * 0.197) / (0.010 * math.sqrt(0.197 ** 2 + 0.047 ** 2))
    got = reduction_ratio(mech_opt, -math.pi / 2)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(28.7248, abs=1e-4)


@pytest.mark.parametrize("q2", [-2.9, -2.0, -1.2, -0.4])
@pytest.mark.parametrize("r,s0,dth", [(0.047, 0.150, 0.0), (0.030, 0.250, 0.02),
                                      (0.070, 0.110, -0.03)])
def test_ratio_matches_oracle(q2, r, s0, dth):
    params = VrrParams(r=r, s0=s0, delta_theta=dth)
    assert reduction_ratio(params, q2) == pytest.approx(
        k_oracle(r, s0, q2 + math.pi - dth), rel=1e-13)


def test_ratio_vanishes_at_full_extension(mech_opt):
    assert reduction_ratio(mech_opt, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_ratio_range_errors(mech_opt):
    with pytest.raises(MechanismRangeError):
        reduction_ratio(mech_opt, 0.1)
    with pytest.raises(MechanismRangeError):
        reduction_ratio(mech_opt, -math.pi - 0.2)


def test_crank_angle_identities():
    p0 = VrrParams(r=0.047, s0=0.150)
    assert crank_angle(p0, -math.pi) == pytest.approx(0.0, abs=1e-15)
    assert crank_angle(p0, 0.0) == pytest.approx(math.pi, rel=1e-15)
    p1 = VrrParams(r=0.047, s0=0.150, delta_theta=0.05)
    assert crank_angle(p1, -1.0) == pytest.approx(math.pi - 1.05, rel=1e-14)


@pytest.mark.parametrize("dth", [0.0, 0.05, -0.0349, math.radians(3.0)])
def test_crank_joint_round_trip(dth):
    params = VrrParams(r=0.047, s0=0.150, delta_theta=dth)
    for q2 in np.linspace(-math.pi, -0.001, 1500):
        assert abs(joint_angle(params, crank_angle(params, q2)) - q2) <= 5e-16


def test_working_range_guard():
    check_working_range(VrrParams(0.047, 0.150), -2.618, -0.05)
    check_working_range(VrrParams(0.047, 0.150, delta_theta=math.radians(-2)),
                        -2.618, -0.05)
    # -3 deg offset pushes theta(cap) past pi - 0.001
    with pytest.raises(MechanismRangeError):
        check_working_range(VrrParams(0.047, 0.150, delta_theta=math.radians(-3)),
                            -2.618, -0.05)
    with pytest.raises(DomainError):
        check_working_range(VrrParams(0.047, 0.150), -0.05, -2.618)


def test_ratio_curve_two_point_sampling(mech_opt):
    curve = ratio_curve(mech_opt, -2.0, -1.0, 2)
    assert len(curve.samples) == 2
    assert curve.samples[0][0] == -2.0 and curve.samples[1][0] == -1.0
    assert curve.samples[0][1] == reduction_ratio(mech_opt, -2.0)


def test_ratio_curve_argmax_matches_closed_form():
    for r_mm, s0_mm in ((30, 250), (47, 150), (60, 120)):
        params = VrrParams(r=r_mm / 1000, s0=s0_mm / 1000)
        curve = ratio_curve(params, -math.pi + 1e-9, -1e-9, 2000)
        predicted = joint_angle(params, peak_crank_angle(params))
        assert curve.argmax_q2 == pytest.approx(predicted, abs=2e-6)
        # at the peak the crank is perpendicular to the actuator: k = 2*pi*r/Q
        assert curve.k_max == pytest.approx(2 * math.pi * params.r / params.lead,
                                            rel=1e-9)


def test_ratio_curve_argmax_in_expected_band():
    curve = ratio_curve(VrrParams(r=0.030, s0=0.250), -math.pi + 1e-9, -1e-9, 2000)
    assert -math.pi <= curve.argmax_q2 <= -math.pi / 2


def test_peak_ratio_strictly_increasing_in_crank_length():
    k_prev = 0.0
    for r_mm in (10, 20, 30, 40, 50):
        curve = ratio_curve(VrrParams(r=r_mm / 1000, s0=0.250),
                            -math.pi + 1e-9, -1e-9, 1000)
        assert curve.k_max > k_prev
        k_prev = curve.k_max


def test_argmax_monotone_in_frame_length():
    argmaxes = []
    for s0_mm in (150, 175, 200, 225, 250):
        curve = ratio_curve(VrrParams(r=0.030, s0=s0_mm / 1000),
                            -math.pi + 1e-9, -1e-9, 2000)
        assert -math.pi <= curve.argmax_q2 <= -math.pi / 2
        argmaxes.append(curve.argmax_q2)
    assert all(b > a for a, b in zip(argmaxes, argmaxes[1:]))


@pytest.mark.parametrize("r_mm,s0_mm", [(25, 100), (25, 250), (75, 100),
                                        (75, 250), (47, 150)])
def test_ratio_unimodal_over_crank_range(r_mm, s0_mm):
    params = VrrParams(r=r_mm / 1000, s0=s0_mm / 1000)
    thetas = np.linspace(1e-6, math.pi - 1e-6, 2000)
    k = np.array([k_oracle(params.r, params.s0, th) for th in thetas])
    signs = np.sign(np.diff(k))
    changes = np.count_nonzero(np.diff(signs[signs != 0]))
    assert changes == 1


def test_ratio_curve_error_carries_sample_index(mech_opt):
    with pytest.raises(MechanismRangeError) as exc:
        ratio_curve(mech_opt, -1.0, 0.5, 10)
    assert "sample" in str(exc.value)


@pytest.mark.parametrize("dth,lo,hi,n,first", [
    # theta = q2 + pi: the first sample is already below 0.
    (0.0, -3.3, -1.0, 10, "sample 0 (q2=-3.3)"),
    # Sample 6 lands on q2 ~ 0, theta ~ pi, still inside; 7 is past it.
    (0.0, -1.0, 0.5, 10, "sample 7 (q2=0.166667)"),
    # theta = q2 + pi + 0.2: only the last sample, q2_hi itself, is out.
    (-0.2, -2.05, -0.05, 11, "sample 10 (q2=-0.05)"),
])
def test_ratio_curve_error_names_first_offending_sample(dth, lo, hi, n, first):
    params = VrrParams(r=0.047, s0=0.150, delta_theta=dth)
    with pytest.raises(MechanismRangeError) as exc:
        ratio_curve(params, lo, hi, n)
    assert str(exc.value).startswith(first + ": crank angle theta=")


def test_ratio_curve_argument_validation(mech_opt):
    with pytest.raises(DomainError):
        ratio_curve(mech_opt, -1.0, -2.0, 10)
    with pytest.raises(DomainError):
        ratio_curve(mech_opt, -2.0, -1.0, 1)


def test_fixed_ratio_is_constant():
    frr = FrrParams(22.0)
    assert reduction_ratio(frr, -2.9) == reduction_ratio(frr, -0.1) == 22.0
    assert ratio_law(frr)(0.3, -0.7) == 22.0


def test_ratio_law_is_reduction_ratio(mech_opt):
    p = VrrParams(r=0.047, s0=0.150, delta_theta=0.03)
    law = ratio_law(p)
    for q2 in (-2.9, -2.0, -1.2, -0.4):
        theta = crank_angle(p, q2)
        assert law(math.sin(theta), math.cos(theta)) == reduction_ratio(p, q2)
        assert reduction_ratio(p, q2) == pytest.approx(
            k_oracle(p.r, p.s0, theta), rel=1e-14)


def test_vrr_band_flatter_than_frr_band(leg, mech_opt):
    """Motor-to-CoM ratio spread over the takeoff range: variable < fixed."""
    grid = np.linspace(-2.618, -0.3, 400)
    vrr = [reduction_ratio(mech_opt, q) / com_jacobian(leg, q) for q in grid]
    frr = [22.0 / com_jacobian(leg, q) for q in grid]
    assert max(vrr) / min(vrr) < max(frr) / min(frr)


@pytest.mark.parametrize("bad", [
    dict(r=0.0, s0=0.1), dict(r=-0.01, s0=0.1), dict(r=0.05, s0=0.05),
    dict(r=0.05, s0=0.04), dict(r=0.05, s0=0.1, lead=0.0),
    dict(r=0.05, s0=0.1, delta_theta=1.0),
])
def test_vrr_params_invariants(bad):
    with pytest.raises(DomainError):
        VrrParams(**bad)


def test_frr_params_invariant():
    with pytest.raises(DomainError):
        FrrParams(0.0)
    with pytest.raises(DomainError):
        FrrParams(-3.0)
