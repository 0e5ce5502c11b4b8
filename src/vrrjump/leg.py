"""Simplified 1-DOF leg model: knee angle to CoM height, velocity and force.

The leg is a planar shank-thigh-torso chain whose hip is constrained to move
vertically above the ankle. With the knee angle q2 (0 = fully extended,
negative = flexed) both links tilt by |q2|/2 from vertical, so every mass
point sits at (distance along chain) * cos(q2/2). The mass-weighted CoM
height is therefore

    y_CoM(q2) = C * cos(q2/2),
    C = (a1*m1 + (l1 + a2)*m2 + (l1 + l2)*m3) / (m1 + m2 + m3)

and the vertical CoM Jacobian is its derivative, (C/2)*|sin(q2/2)|.

Two Jacobian conventions are supported:

* ``GEOMETRIC``  -- the derivative above, consistent with y_CoM = C*cos(q2/2).
* ``PAPER_LITERAL`` -- magnitude C*|sin(q2/2)| without the half factor, with
  the matching antiderivative 2C*cos(q2/2) used for heights. This variant is
  kept because some published parameter sets are calibrated against it.

All functions are pure; the model object is immutable. The unchecked jacobian,
height and rise (a height difference) of f and q2 are the one definition of
each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, require_finite


class JacobianMode(str, Enum):
    PAPER_LITERAL = "paper"
    GEOMETRIC = "geometric"


@dataclass(frozen=True)
class LegModel:
    """Link lengths, CoM offsets and masses of the simplified leg.

    Lengths in m, masses in kg. a1/a2 are the CoM distances of shank/thigh
    from their proximal joints.
    """

    l1: float
    l2: float
    a1: float
    a2: float
    m1: float
    m2: float
    m3: float
    g: float = 9.81
    jacobian_mode: JacobianMode = JacobianMode.GEOMETRIC

    def __post_init__(self):
        require_finite(self)
        if self.l1 <= 0 or self.l2 <= 0:
            raise DomainError(f"link lengths must be positive, got l1={self.l1}, l2={self.l2}")
        if not (0 <= self.a1 <= self.l1):
            raise DomainError(f"a1={self.a1} must lie in [0, l1={self.l1}]")
        if not (0 <= self.a2 <= self.l2):
            raise DomainError(f"a2={self.a2} must lie in [0, l2={self.l2}]")
        if self.m1 <= 0 or self.m2 <= 0 or self.m3 <= 0:
            raise DomainError("all masses must be positive")
        if self.g <= 0:
            raise DomainError(f"g={self.g} must be positive")

    def total_mass(self) -> float:
        return self.m1 + self.m2 + self.m3

    @property
    def com_chain_length(self) -> float:
        """Mass-weighted CoM distance C along the leg chain (m)."""
        num = self.a1 * self.m1 + (self.l1 + self.a2) * self.m2 + (self.l1 + self.l2) * self.m3
        return num / self.total_mass()

    @property
    def jacobian_scale(self) -> float:
        """Factor f such that com_jacobian = f*|sin(q2/2)| in the active mode."""
        c = self.com_chain_length
        return c if self.jacobian_mode is JacobianMode.PAPER_LITERAL else 0.5 * c

    @property
    def standing_com_height(self) -> float:
        """CoM height with the leg fully extended (q2 = 0), mode-consistent."""
        return 2.0 * self.jacobian_scale


def _check_q2(q2: float) -> None:
    if not (-math.pi <= q2 <= 0.0):
        raise DomainError(f"knee angle q2={q2:.6g} rad outside [-pi, 0]")


def jacobian(f: float, q2: float) -> float:
    """CoM Jacobian f*|sin(q2/2)| (bitwise -f*sin(q2/2) for q2 < 0)."""
    return f * abs(math.sin(0.5 * q2))


def height(f: float, q2: float) -> float:
    """CoM height 2 f cos(q2/2), the antiderivative of jacobian."""
    return 2.0 * f * math.cos(0.5 * q2)


def rise(f: float, q2: float, d: float) -> float:
    """height(f, q2 + d) - height(f, q2), in product form so that no digits
    cancel for small d."""
    return -4.0 * f * math.sin(0.5 * q2 + 0.25 * d) * math.sin(0.25 * d)


def com_jacobian(model: LegModel, q2: float) -> float:
    """Vertical CoM Jacobian magnitude dy/dq2 (m/rad); zero at q2 = 0."""
    _check_q2(q2)
    return jacobian(model.jacobian_scale, q2)


def com_height(model: LegModel, q2: float) -> float:
    """CoM height above ground (m), maximal at q2 = 0."""
    _check_q2(q2)
    return height(model.jacobian_scale, q2)
