"""Angle-dependent reduction ratio of the linear-actuator guide-rod knee.

A crank of length r turns about the knee axis; a ball-screw actuator anchored
at distance S0 + r from the axis drives the crank tip. The actuator length at
crank angle theta follows the law of cosines,

    s(theta) = sqrt((S0 + r)^2 + r^2 - 2 r (S0 + r) cos(theta)),

so screw rotation per joint radian (the reduction ratio) is

    k(theta) = (2 pi / Q) * ds/dtheta
             = 2 pi r (S0 + r) sin(theta) / (Q * s(theta)),

with Q the screw lead. The crank angle maps to knee angle via
q2 = theta - pi + delta_theta, where delta_theta is an assembly offset.

k vanishes at both ends of [0, pi] and has exactly one interior maximum:
setting d(sin(theta)/s)/dtheta = 0 factors into ((S0+r)cos(theta) - r)^2 = 0,
so the peak sits at cos(theta*) = r/(S0+r), where the crank is perpendicular
to the actuator line and k_max = 2*pi*r/Q exactly. For S0 > r this places
theta* in (pi/3, pi/2), i.e. the knee-angle argmax in (-2*pi/3, -pi/2).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .errors import DomainError, MechanismRangeError, require_finite

THETA_MIN = 0.01
THETA_MAX = math.pi - 0.001
"""Working-range guard band for the crank angle (rad)."""

DEG = math.pi / 180.0


@dataclass(frozen=True)
class VrrParams:
    """Guide-rod mechanism design variables, SI units.

    r: crank length (m); s0: frame length (m); delta_theta: assembly offset
    (rad); lead: ball-screw lead (m per revolution).
    """

    r: float
    s0: float
    delta_theta: float = 0.0
    lead: float = 0.010

    def __post_init__(self):
        require_finite(self)
        if self.r <= 0:
            raise DomainError(f"crank length r={self.r} must be positive")
        if self.s0 <= self.r:
            raise DomainError(
                f"frame length s0={self.s0} must exceed crank length r={self.r}")
        if self.lead <= 0:
            raise DomainError(f"screw lead={self.lead} must be positive")
        if abs(self.delta_theta) > math.pi / 6:
            raise DomainError(
                f"assembly offset delta_theta={self.delta_theta} outside +-pi/6")


@dataclass(frozen=True)
class FrrParams:
    """Fixed reduction ratio baseline: motor rad per joint rad."""

    k_fixed: float

    def __post_init__(self):
        require_finite(self)
        if self.k_fixed <= 0:
            raise DomainError(f"k_fixed={self.k_fixed} must be positive")


@dataclass
class RatioCurve:
    """Sampled ratio curve with the refined location/value of its maximum."""

    samples: list[tuple[float, float]]
    argmax_q2: float
    k_max: float


def crank_offset(params: VrrParams) -> float:
    """theta - q2 = pi - delta_theta, the same for every knee angle."""
    return math.pi - params.delta_theta


def crank_angle(params: VrrParams, q2: float) -> float:
    """Crank-to-frame angle theta for a knee angle q2."""
    return q2 + crank_offset(params)


def joint_angle(params: VrrParams, theta: float) -> float:
    """Knee angle q2 for a crank angle theta (inverse of crank_angle)."""
    return theta - crank_offset(params)


def ratio_law(params: VrrParams | FrrParams) -> Callable[[float, float], float]:
    """k as a function of (sin theta, cos theta), with the design's constants
    bound once; unchecked, for the simulator's inner loop. In float form,
    k = (pi a_cos / Q) sin(theta) / sqrt(a_sq - a_cos cos(theta)) with
    a_cos = 2 r (S0 + r), a_sq = (S0 + r)^2 + r^2; k_fixed for a fixed ratio.
    The one definition of k: reduction_ratio and ratio_samples call it.
    """
    if isinstance(params, FrrParams):
        k_fixed = params.k_fixed
        return lambda sin_th, cos_th: k_fixed
    a_sq = (params.s0 + params.r) ** 2 + params.r ** 2
    a_cos = 2.0 * params.r * (params.s0 + params.r)
    k_num = math.pi * a_cos / params.lead
    sqrt = math.sqrt

    def law(sin_th: float, cos_th: float) -> float:
        return k_num * sin_th / sqrt(a_sq - a_cos * cos_th)
    return law


def cos_drop(theta: float, d: float) -> float:
    """cos(theta) - cos(theta + d), in product form so that no digits cancel
    for small d."""
    return 2.0 * math.sin(theta + 0.5 * d) * math.sin(0.5 * d)


def turn_law(params: VrrParams | FrrParams,
             theta_init: float) -> Callable[[float, float, float], float]:
    """The motor's turn since the crank angle theta_init, the integral of k
    over the knee angle, as a function of (d, cos theta, cos_drop(theta_init,
    d)) at theta = theta_init + d; unchecked, like ratio_law. The motor
    angle is (2 pi / Q) s(theta), so the turn is (2 pi / Q) a_cos
    (cos theta_init - cos theta) / (s(theta) + s(theta_init)), which loses
    no digits near theta_init; k_fixed d for a fixed ratio.
    """
    if isinstance(params, FrrParams):
        k_fixed = params.k_fixed
        return lambda d, cos_th, drop: k_fixed * d
    a_sq = (params.s0 + params.r) ** 2 + params.r ** 2
    a_cos = 2.0 * params.r * (params.s0 + params.r)
    c = 2.0 * math.pi * a_cos / params.lead
    sqrt = math.sqrt
    s_init = sqrt(a_sq - a_cos * math.cos(theta_init))

    def turn(d: float, cos_th: float, drop: float) -> float:
        return c * drop / (sqrt(a_sq - a_cos * cos_th) + s_init)
    return turn


def _range_error(params: VrrParams, theta: float,
                 q2: float) -> MechanismRangeError:
    """The error for a crank angle theta outside [0, pi] at knee angle q2."""
    return MechanismRangeError(
        f"crank angle theta={theta:.6g} rad outside the working range [0, pi] "
        f"for q2={q2:.6g}, delta_theta={params.delta_theta:.6g}")


def _working_theta(params: VrrParams, q2: float) -> float:
    """crank_angle, refused outside [0, pi]."""
    theta = crank_angle(params, q2)
    if not (0.0 <= theta <= math.pi):
        raise _range_error(params, theta, q2)
    return theta


def reduction_ratio(params: VrrParams | FrrParams, q2: float) -> float:
    """Motor-to-joint reduction ratio k(q2), dimensionless and >= 0.

    Vanishes at the range endpoints theta = 0 and theta = pi (sin theta = 0);
    angles strictly outside [0, pi] are range errors. A fixed ratio is
    k_fixed at every q2.
    """
    if isinstance(params, FrrParams):
        return params.k_fixed
    theta = _working_theta(params, q2)
    return ratio_law(params)(math.sin(theta), math.cos(theta))


def check_working_range(params: VrrParams, q2_lo: float, q2_hi: float) -> None:
    """Reject configurations whose crank angle leaves (THETA_MIN, THETA_MAX).

    theta is affine in q2, so checking the interval endpoints suffices.
    """
    if q2_lo > q2_hi:
        raise DomainError(f"empty knee range [{q2_lo}, {q2_hi}]")
    for q2 in (q2_lo, q2_hi):
        theta = crank_angle(params, q2)
        if not (THETA_MIN < theta < THETA_MAX):
            raise MechanismRangeError(
                f"q2={q2:.6g} maps to theta={theta:.6g} rad outside "
                f"({THETA_MIN:.6g}, {THETA_MAX:.6g}) for r={params.r}, "
                f"s0={params.s0}, delta_theta={params.delta_theta:.6g}")


def peak_crank_angle(params: VrrParams) -> float:
    """Crank angle of the unique interior maximum of k on (0, pi).

    The crank is perpendicular to the actuator line there, giving
    cos(theta*) = r/(S0+r) and k(theta*) = 2*pi*r/lead.
    """
    return math.acos(params.r / (params.s0 + params.r))


def ratio_samples(params: VrrParams, q2_lo: float, q2_hi: float,
                  n: int) -> Iterator[tuple[float, float]]:
    """(q2, k) at n uniform knee angles over [q2_lo, q2_hi], made as they
    are read. A sample whose crank angle leaves [0, pi] raises
    MechanismRangeError naming its index and q2 when it is reached; n and
    the range are checked when the first sample is read.
    """
    if n < 2:
        raise DomainError(f"need at least 2 samples, got n={n}")
    if q2_lo >= q2_hi:
        raise DomainError(f"require q2_lo < q2_hi, got [{q2_lo}, {q2_hi}]")
    step = (q2_hi - q2_lo) / (n - 1)
    law = ratio_law(params)
    th_off = crank_offset(params)
    sin, cos, pi = math.sin, math.cos, math.pi
    for i in range(n):
        q2 = q2_hi if i == n - 1 else q2_lo + i * step
        theta = q2 + th_off
        if not (0.0 <= theta <= pi):
            exc = _range_error(params, theta, q2)
            raise MechanismRangeError(f"sample {i} (q2={q2:.6g}): {exc}") from exc
        yield q2, law(sin(theta), cos(theta))


def ratio_peak(params: VrrParams, q2_lo: float, q2_hi: float) -> tuple[float, float]:
    """(argmax_q2, k_max) of k over [q2_lo, q2_hi]: the closed-form peak
    (see peak_crank_angle) when it lies in the range, else the nearer
    endpoint, since k is unimodal."""
    argmax_q2 = min(max(joint_angle(params, peak_crank_angle(params)), q2_lo), q2_hi)
    return argmax_q2, reduction_ratio(params, argmax_q2)


def ratio_curve(params: VrrParams, q2_lo: float, q2_hi: float, n: int) -> RatioCurve:
    """ratio_samples as a list, with ratio_peak's maximum."""
    samples = list(ratio_samples(params, q2_lo, q2_hi, n))
    return RatioCurve(samples, *ratio_peak(params, q2_lo, q2_hi))
