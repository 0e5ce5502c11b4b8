import math

import numpy as np
import pytest

from vrrjump import DomainError, JacobianMode, LegModel, com_height, com_jacobian

# Independent oracle for the CoM chain factor of the reference leg:
# (a1*m1 + (l1+a2)*m2 + (l1+l2)*m3) / (m1+m2+m3)
C_REF = (0.225 * 2.5 + (0.45 + 0.225) * 5.0 + 0.9 * 20.0) / 27.5


def test_chain_factor_matches_oracle(leg):
    assert leg.com_chain_length == pytest.approx(C_REF, rel=1e-15)
    assert C_REF == pytest.approx(0.79773, abs=5e-6)


def test_total_mass_is_exact_sum(leg):
    assert leg.total_mass() == 2.5 + 5.0 + 20.0


def test_jacobian_paper_literal_reference_value(leg_paper):
    # C * |sin(-pi/6)| = C/2
    assert com_jacobian(leg_paper, -math.pi / 3) == pytest.approx(C_REF * 0.5, rel=1e-14)
    assert com_jacobian(leg_paper, -math.pi / 3) == pytest.approx(0.39886, abs=5e-6)


def test_jacobian_geometric_is_half_of_paper(leg, leg_paper):
    for q2 in (-3.0, -2.0, -1.0, -0.3):
        assert com_jacobian(leg, q2) == pytest.approx(
            0.5 * com_jacobian(leg_paper, q2), rel=1e-15)


def test_jacobian_zero_at_full_extension(leg, leg_paper):
    assert com_jacobian(leg, 0.0) == 0.0
    assert com_jacobian(leg_paper, 0.0) == 0.0


def test_jacobian_at_full_flexion_paper(leg_paper):
    assert com_jacobian(leg_paper, -math.pi) == pytest.approx(C_REF, rel=1e-14)


def test_jacobian_strictly_increasing_in_flexion(leg):
    grid = np.linspace(-0.01, -math.pi, 500)
    vals = [com_jacobian(leg, q) for q in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_jacobian_domain_errors(leg):
    with pytest.raises(DomainError):
        com_jacobian(leg, 0.1)
    with pytest.raises(DomainError):
        com_jacobian(leg, -math.pi - 0.01)


@pytest.mark.parametrize("mode", [JacobianMode.GEOMETRIC, JacobianMode.PAPER_LITERAL])
def test_height_derivative_matches_jacobian(mode):
    model = LegModel(0.45, 0.45, 0.225, 0.225, 2.5, 5.0, 20.0, jacobian_mode=mode)
    h = 1e-6
    for q2 in np.linspace(-math.pi + 0.01, -0.01, 1000):
        fd = (com_height(model, q2 + h) - com_height(model, q2 - h)) / (2 * h)
        assert abs(fd - com_jacobian(model, q2)) < 1e-6


def test_height_anchors(leg, leg_paper):
    assert com_height(leg, 0.0) == pytest.approx(C_REF, rel=1e-14)
    assert com_height(leg, -math.pi) == pytest.approx(0.0, abs=1e-15)
    assert com_height(leg_paper, 0.0) == pytest.approx(2 * C_REF, rel=1e-14)
    assert leg.standing_com_height == com_height(leg, 0.0)


def test_geometric_standing_height_physically_plausible():
    for a_frac in (0.0, 0.3, 0.5, 1.0):
        for m3 in (1.0, 20.0, 100.0):
            model = LegModel(0.4, 0.5, a_frac * 0.4, a_frac * 0.5,
                             2.0, 3.0, m3)
            assert model.standing_com_height <= 0.4 + 0.5 + 1e-12


@pytest.mark.parametrize("bad", [
    dict(l1=-0.1), dict(l2=0.0), dict(a1=0.5), dict(a2=-0.01),
    dict(m1=0.0), dict(m2=-1.0), dict(m3=0.0), dict(g=0.0),
])
def test_model_invariant_violations(bad):
    fields = dict(l1=0.45, l2=0.45, a1=0.225, a2=0.225, m1=2.5, m2=5.0, m3=20.0)
    fields.update(bad)
    with pytest.raises(DomainError):
        LegModel(**fields)
