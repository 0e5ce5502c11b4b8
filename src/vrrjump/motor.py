"""Parametric PMSM output model: torque-speed envelope and losses.

The available-torque envelope is piecewise in speed:

* constant peak torque up to omega_break (thermal/current limit),
* constant peak power p_peak/omega above it (power limit),
* a linear derate of the power-limited branch to zero between omega_hpl and
  omega_max, standing in for the steep high-speed loss growth,
* zero at and beyond omega_max.

Losses are modeled as three-phase copper loss 1.5*R*iq^2 plus lumped
speed-proportional and speed-squared terms. The default coefficients are
fitted once so that at peak current and omega_max the losses cancel the
electromagnetic power (no net output at top speed); the preset and its
derived values are the defaults of the config's motor table.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import DomainError, require_finite

RADS_PER_RPM = math.pi / 30.0
RPM_PER_RADS = 30.0 / math.pi


@dataclass(frozen=True)
class MotorParams:
    """Envelope and loss parameters of the joint motor plus drivetrain.

    tau_peak: peak torque (Nm); i_q_peak: peak q-axis current (A);
    k_t: torque constant (Nm/A); p_peak: peak mechanical power (W);
    omega_break, omega_max: power-limit onset and zero-torque speeds (rad/s);
    omega_hpl: onset of the high-speed derate (rad/s, keyword-only);
    r_phase: effective winding resistance (ohm); c_iron1, c_iron2: lumped
    speed and speed-squared loss coefficients; eta_j: transmission efficiency.
    """

    tau_peak: float
    i_q_peak: float
    k_t: float
    p_peak: float
    omega_break: float
    omega_max: float
    r_phase: float
    c_iron1: float
    c_iron2: float
    eta_j: float = 0.90
    omega_hpl: float = field(kw_only=True)

    def __post_init__(self):
        require_finite(self)
        if self.tau_peak <= 0 or self.p_peak <= 0:
            raise DomainError("tau_peak and p_peak must be positive")
        if not (0.0 < self.omega_break < self.omega_max):
            raise DomainError(
                f"need 0 < omega_break < omega_max, got {self.omega_break}, {self.omega_max}")
        if not (self.omega_break <= self.omega_hpl < self.omega_max):
            raise DomainError(
                f"omega_hpl={self.omega_hpl} must lie in [omega_break, omega_max)")
        if not (0.0 < self.eta_j <= 1.0):
            raise DomainError(f"eta_j={self.eta_j} outside (0, 1]")
        if self.r_phase < 0 or self.c_iron1 < 0 or self.c_iron2 < 0:
            raise DomainError("loss coefficients must be nonnegative")
        corner = self.tau_peak * self.omega_break
        if abs(corner - self.p_peak) > 0.02 * self.p_peak:
            raise DomainError(
                f"envelope corner mismatch: tau_peak*omega_break={corner:.6g} "
                f"differs from p_peak={self.p_peak:.6g} by more than 2%")
        tau_kt = self.k_t * self.i_q_peak
        if abs(tau_kt - self.tau_peak) > 0.02 * self.tau_peak:
            raise DomainError(
                f"k_t*i_q_peak={tau_kt:.6g} differs from tau_peak={self.tau_peak:.6g} "
                f"by more than 2%")


@dataclass(frozen=True)
class EnvelopePoint:
    """One sample of the torque/power envelope."""

    omega: float
    tau_max: float
    p_out: float
    p_loss: float


def loss_balance_c_iron2(k_t: float, i_q_peak: float, omega_max: float,
                         r_phase: float, c_iron1: float) -> float:
    """The speed-squared loss coefficient that makes the losses at
    (i_q_peak, omega_max) cancel the electromagnetic power there:

        k_t*i_q_peak*omega_max = 1.5*r_phase*i_q_peak^2
                                 + c_iron1*omega_max + c_iron2*omega_max^2

    The one definition of the fit: the config's motor defaults call it. The
    result may be negative; callers clamp it if they must.
    """
    return (k_t * i_q_peak * omega_max - 1.5 * r_phase * i_q_peak ** 2
            - c_iron1 * omega_max) / omega_max ** 2


def envelope_pieces(params: MotorParams) -> tuple[
        tuple[Callable[[float], float], ...], tuple[float, ...],
        Callable[[float], int]]:
    """The shape of the envelope, its one definition: (pieces, kinks, piece).

    pieces are its four smooth pieces, omega -> torque (Nm), in order of
    speed: the peak torque, the power limit p_peak/omega, its linear derate
    to zero at omega_max, and zero. Each formula holds for every omega > 0,
    past the kinks that bound its piece, so an integrator can keep one piece
    over a whole step. kinks are the speeds omega_break, omega_hpl and
    omega_max; pieces[i] and pieces[i + 1] meet at kinks[i]. piece(omega)
    is the index of the piece in force: 0 up to omega_break, 1 up to
    omega_hpl, 2 below omega_max and 3 from it on.
    """
    tau_peak, p_peak = params.tau_peak, params.p_peak
    kinks = w_break, w_hpl, w_max = params.omega_break, params.omega_hpl, params.omega_max
    derate = 1.0 / (w_max - w_hpl)

    def peak(omega: float) -> float:
        return tau_peak

    def power(omega: float) -> float:
        return p_peak / omega

    def derated(omega: float) -> float:
        return p_peak / omega * ((w_max - omega) * derate)

    def zero(omega: float) -> float:
        return 0.0

    def piece(omega: float) -> int:
        if omega <= w_break:
            return 0
        if omega <= w_hpl:
            return 1
        return 2 if omega < w_max else 3
    return (peak, power, derated, zero), kinks, piece


def torque_envelope(params: MotorParams) -> Callable[[float], float]:
    """The envelope omega -> available torque (Nm) for omega >= 0, with the
    motor's constants bound once; unchecked, for the simulator's inner loop.
    Built from envelope_pieces: max_torque and envelope_table call it.
    """
    pieces, _, piece = envelope_pieces(params)

    def envelope(omega: float) -> float:
        return pieces[piece(omega)](omega)
    return envelope


def max_torque(params: MotorParams, omega: float) -> float:
    """Available torque at motor speed omega >= 0 (Nm); continuous in omega."""
    if not omega >= 0:
        raise DomainError(f"omega={omega} must be nonnegative; pass |omega|")
    return torque_envelope(params)(omega)


def power_loss(params: MotorParams, i_q: float, omega: float) -> float:
    """Total copper + iron + mechanical loss (W), nonnegative."""
    return (1.5 * params.r_phase * i_q * i_q
            + params.c_iron1 * abs(omega)
            + params.c_iron2 * omega * omega)


def envelope_table(params: MotorParams, n: int) -> list[EnvelopePoint]:
    """n uniform envelope samples over omega in [0, omega_max].

    Loss is evaluated at the envelope current i_q = tau_max/k_t.
    """
    if n < 2:
        raise DomainError(f"need at least 2 samples, got n={n}")
    step = params.omega_max / (n - 1)
    envelope = torque_envelope(params)
    table = []
    for i in range(n):
        omega = params.omega_max if i == n - 1 else i * step
        tau = envelope(omega)
        table.append(EnvelopePoint(
            omega=omega,
            tau_max=tau,
            p_out=tau * omega,
            p_loss=power_loss(params, tau / params.k_t, omega),
        ))
    return table
