"""Forward simulation of explosive takeoff under the motor envelope.

Model closure: the robot is a point mass m_tot at the CoM, driven along the
vertical by the knee through the CoM Jacobian J(q2):

    omega_m = k(q2) * dq2                  motor speed
    tau_m   = max_torque(|omega_m|)        maximum-effort command
    tau_J   = tau_m * k(q2) * eta_j        joint torque
    m ydd   = tau_J / J(q2) - m g          CoM dynamics

Link rotational inertia and reflected actuator inertia are neglected.

The physics is not defined here: k, the envelope, the crank angle, J and
the height come from mechanism.ratio_law, motor.torque_envelope (both bound
once per run), mechanism.crank_offset, leg.jacobian and leg.height, so every
recorded sample equals max_torque, reduction_ratio, com_height and
com_jacobian bit for bit.

The model has one degree of freedom and the knee only extends, so the knee
angle serves as the independent variable. Work and energy give, for the CoM
kinetic energy K = m v^2 / 2 with v = J dq2,

    dK/dq2 = eta_j k tau_env(k v / J) - m g J

on the fixed interval [q2_init, cap]. The kernel substitutes
q2 = q2_init + u^2 and integrates the state (p = sqrt(K), t, w_motor) with
Butcher's 7-stage order-6 Runge-Kutta method (nodes 0, 1/3, 2/3, 1/3, 1/2,
1/2, 1; Hairer, Norsett & Wanner, Solving ODEs I, section II.5) on
SimConfig.u_steps uniform steps in u:

    dp/du     = u f / p         f = dK/dq2
    dt/du     = 2 u J / v       v = sqrt(2/m) p
    dw_m/du   = 2 u tau_m k     motor work

At u = 0 the knee is at rest (p = 0) and the derivatives take their limits
dp/du = sqrt(f0) and dt/du = 2 J0 / (sqrt(2/m) sqrt(f0)), so the square-root
singularity of the start never enters a step, and the 1/J growth of dq2 near
full extension does not shrink the steps. advance writes rhs out for stages
2 to 7, in rhs's order of operations and with 2u, 2uJ and m g J formed once
per node, so each stage is rhs's bit for bit; the six calls this replaces
took 13 % of a grid's time.

The envelope has kinks, and a method of order 6 keeps its order only on a
smooth right-hand side. One motor.envelope_pieces call gives the kernel the
pieces, the kink speeds and the piece rule. Each step integrates the piece
in force at its start, extended smoothly past its kink even where a stage's
speed lands beyond it. A step ending on another piece is cut at the first
kink crossed, located by regula falsi on |omega_m| = k v / J, and the next
step starts on the new piece (the standard treatment of a discontinuous
right-hand side, ibid. section II.6). Crossing the last kink, omega_max,
upward is the contact-force-zero event.

The lift margin mu = 1 - m g J0 / (eta_j k0 tau_peak) sets how far from the
start K stops growing like f0 u^2. A run with mu < GRADED_MARGIN, which
starts close to a static hold, replaces its first 21 uniform steps with
steps that grow by 1.05 from 1e-4 u_cap, so that the bend in K near u = 0,
and the nearly singular t = int J/v dq2 there, are resolved; other runs
stay uniform.

Every candidate at one angle walks the same u-grid, and the geometry at a
grid step does not depend on the design: the Jacobian J and, for the
crank angle theta = q2 + (pi - delta_theta), sin(theta) and cos(theta).
_u_grid tabulates them once per (q2_init, cap, u_steps, jacobian scale,
delta_theta, graded) at each step's stage nodes 1/3, 1/2, 2/3 and 1,
through the same _row the kernel uses off the grid, in a bounded cache that
each process (each pool worker too) fills on first use. A full grid step
reads the table and computes only k from it, at those four nodes; the
fixed-ratio kernel reads only J. A step that starts off the grid (after a
kink or event split, and the trial steps of event location and stall
bisection) computes its row from u. Either way the results are bit for bit
those of computing everything per step, and a candidate's result does not
depend on the others in its grid.

Takeoff is the first of two events (the one takeoff rule, "either"):

* AngleCap -- q2 reaches the configured extension cap, which is the last
  grid point u = sqrt(cap - q2_init).
* ContactForceZero -- the ground reaction tau_J / J reaches zero, which
  happens first where |omega_m| reaches omega_max and the envelope torque
  vanishes. It is located inside its step.

Every other run ends at t_max, and the kernel names how:

* StaticHold -- the commanded torque cannot lift the CoM at the initial
  pose (eta_j k tau_peak <= m g J), and the state is held at rest: the
  crouch posture is assumed supported, which also keeps under-actuated
  optimizer candidates well defined.
* Stall -- the kinetic energy falls to zero mid-stroke, and the knee is
  held at the stall pose with dq2 = 0 by the same reasoning.
* Timeout -- the knee is still moving at t_max, located to well under
  1e-9 s.

A recorded trajectory holds one sample per u-step (graded steps included)
plus one at each kink and event.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError, require_finite
from .leg import LegModel, com_height, height, jacobian
from .mechanism import (FrrParams, VrrParams, check_working_range,
                        crank_offset, ratio_law)
from .motor import MotorParams, envelope_pieces, torque_envelope

U_STEPS = 75
"""SimConfig.u_steps default: order-6 u-steps before kink and event splits."""

GRADED_MARGIN = 0.05
"""A run whose lift margin 1 - m g J0 / (eta_j k0 tau_peak) is below this
starts on graded steps (see _u_grid)."""


class _Stall(Exception):
    """The kinetic energy reached zero inside a step."""


def _geometry(q2: float, jfac: float,
              th_off: float) -> tuple[float, float, float]:
    """(J, sin theta, cos theta) at knee angle q2, for the Jacobian scale
    jfac and the crank angle theta = q2 + th_off (see crank_offset)."""
    th = q2 + th_off
    return jacobian(jfac, q2), math.sin(th), math.cos(th)


def _row(u: float, ue: float, q2_init: float, jfac: float,
         th_off: float) -> tuple[float, ...]:
    """One step from u to ue with its geometry: (u, ue, the stage nodes
    u + h/3, u + h/2 and u + 2h/3, then J, sin theta and cos theta at each
    of those nodes and at ue)."""
    h = ue - u
    nodes = (u + h / 3.0, u + 0.5 * h, u + 2.0 * h / 3.0)
    geometry = []
    for x in nodes + (ue,):
        geometry += _geometry(q2_init + x * x, jfac, th_off)
    return (u, ue, *nodes, *geometry)


@functools.lru_cache(maxsize=64)
def _u_grid(q2_init: float, cap: float, n: int, jfac: float, th_off: float,
            graded: bool) -> tuple[tuple[float, ...], ...]:
    """The u-steps of a takeoff with their geometry, one _row per step.

    n uniform steps. graded replaces the first 21 of them with steps that
    shrink by 1.05 toward u = 0, the first of them at least 1e-4 * u_cap
    long: at the 21st node a step of ratio 1.05 is one uniform step long,
    so no graded step is longer than a uniform one. The table depends on no
    design parameter but the crank offset th_off, so every candidate of a
    grid at one angle shares it. 64 tables hold the default box's 8 offsets,
    graded and uniform, at three angles or at a census angle's n and 16n.
    """
    u_cap = math.sqrt(cap - q2_init)
    nodes = [u_cap * i / n for i in range(n)] + [u_cap]
    if graded:
        last = min(21, n)
        first = []
        x = nodes[last]
        while x / 1.05 >= 1e-4 * u_cap:
            x /= 1.05
            first.append(x)
        nodes[1:last] = first[::-1]
    return tuple(_row(u, ue, q2_init, jfac, th_off)
                 for u, ue in zip(nodes, nodes[1:]))


class TakeoffRule(str, Enum):
    EITHER = "either"


class Termination(str, Enum):
    CONTACT_FORCE_ZERO = "contact_force_zero"
    ANGLE_CAP = "angle_cap"
    STATIC_HOLD = "static_hold"
    STALL = "stall"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class SimConfig:
    """Initial pose, step size, horizon, takeoff rule and u-step count.

    simulate_jump takes u_steps steps in u and has one takeoff rule, so dt
    and takeoff_rule are still validated but not read; perfbench passes both.
    """

    q2_init: float
    dt: float = 1e-4
    t_max: float = 1.0
    q2_takeoff_cap: float = -0.05
    takeoff_rule: TakeoffRule = TakeoffRule.EITHER
    u_steps: int = U_STEPS

    def __post_init__(self):
        require_finite(self)
        if type(self.u_steps) is not int or self.u_steps < 1:
            raise DomainError(f"u_steps={self.u_steps!r} must be an int >= 1")
        if self.dt <= 0:
            raise DomainError(f"dt={self.dt} must be positive")
        if self.t_max < 10 * self.dt:
            raise DomainError(f"t_max={self.t_max} must be at least 10*dt")
        if not (self.q2_takeoff_cap <= -0.01):
            raise DomainError(
                f"q2_takeoff_cap={self.q2_takeoff_cap} must be <= -0.01 rad")
        if not (-math.pi <= self.q2_init < self.q2_takeoff_cap):
            raise DomainError(
                f"q2_init={self.q2_init} must lie in [-pi, cap={self.q2_takeoff_cap})")


@dataclass(slots=True)
class SimState:
    """One trajectory sample; joint, CoM, ratio (k), motor and contact channels.

    Slotted and not frozen: a recorded takeoff builds one per step, and a
    frozen dataclass pays an object.__setattr__ per field.
    """

    t: float
    q2: float
    dq2: float
    y_com: float
    dy_com: float
    k: float
    tau_m: float
    tau_j: float
    omega_m: float
    p_m: float
    p_j: float
    f_contact: float
    w_motor: float


@dataclass
class TakeoffResult:
    w_takeoff: float
    h_jump: float
    t_takeoff: float
    q2_at_takeoff: float
    terminated_by: Termination
    trajectory: list[SimState] = field(default_factory=list)


def takeoff_energy(leg: LegModel, q2: float, dy_com: float) -> float:
    """Mechanical CoM energy 0.5*m*dy^2 + m*g*y(q2) at a state (J)."""
    m = leg.total_mass()
    return 0.5 * m * dy_com * dy_com + m * leg.g * com_height(leg, q2)


def jump_height(leg: LegModel, w_takeoff: float) -> float:
    """CoM rise above the fully extended stance implied by takeoff energy.

    Negative values mean the energy does not suffice to reach full extension.
    """
    if w_takeoff < 0:
        raise DomainError(f"w_takeoff={w_takeoff} must be nonnegative")
    return w_takeoff / (leg.total_mass() * leg.g) - leg.standing_com_height


def simulate_jump(leg: LegModel, motor: MotorParams,
                  mech: VrrParams | FrrParams, cfg: SimConfig,
                  record: bool = True) -> TakeoffResult:
    """Integrate a maximum-effort takeoff and report energy and height.

    With record=False the trajectory list is left empty (used by the
    optimizer); the scalar outputs are identical either way.
    """
    vrr = isinstance(mech, VrrParams)
    if vrr:
        check_working_range(mech, cfg.q2_init, cfg.q2_takeoff_cap)

    m_tot = leg.total_mass()
    mg = m_tot * leg.g
    c_v = math.sqrt(2.0 / m_tot)
    jfac = leg.jacobian_scale
    eta = motor.eta_j
    tau_peak = motor.tau_peak
    q2_init = cfg.q2_init
    cap = cfg.q2_takeoff_cap
    t_max = cfg.t_max
    u_cap = math.sqrt(cap - q2_init)
    envelope = torque_envelope(motor)
    pieces, kinks, piece_of = envelope_pieces(motor)
    ratio = ratio_law(mech)
    # A fixed ratio reads only J, so it shares the delta_theta = 0 table.
    th_off = crank_offset(mech) if vrr else math.pi

    def geom(q2: float) -> tuple[float, float]:
        """(k, J) at knee angle q2."""
        jj, sin_th, cos_th = _geometry(q2, jfac, th_off)
        return ratio(sin_th, cos_th), jj

    def rhs(u: float, p: float, k: float,
            jj: float) -> tuple[float, float, float, float]:
        """(dp/du, dt/du, dw_m/du, omega_m) at u > 0, where the ratio is k
        and the Jacobian jj, under the envelope piece tau of the step."""
        if p <= 0.0:
            raise _Stall
        v = c_v * p
        om = k * v / jj
        tk = tau(om) * k
        return (u * (eta * tk - mg * jj) / p, 2.0 * u * jj / v, 2.0 * u * tk,
                om)

    # A state is (u, p, t, w_motor, rhs at the state).
    def advance(s: tuple, row: tuple) -> tuple:
        """One step of Butcher's 7-stage order-6 Runge-Kutta method from
        state s over row (see _row); s[0] is the row's start."""
        u, p, t, w, (a1, b1, c1, _) = s
        (_, ue, u1, u2, u3, j1, sin1, cos1, j2, sin2, cos2, j3, sin3, cos3,
         je, sin_e, cos_e) = row
        k1, k2, k3, ke = (ratio(sin1, cos1), ratio(sin2, cos2),
                          ratio(sin3, cos3), ratio(sin_e, cos_e))
        h = ue - u
        # Only p feeds back into the stages; t and w_motor are quadratures
        # that take the same weights b = (11, 0, 81, 81, -32, -32, 11)/120.
        # Stages 2 to 7 are rhs written out (see the module docstring).
        d1, d2, d3, de = 2.0 * u1, 2.0 * u2, 2.0 * u3, 2.0 * ue
        dj1, dj2, dj3 = d1 * j1, d2 * j2, d3 * j3
        g1, g2, g3 = mg * j1, mg * j2, mg * j3
        x = p + h * a1 / 3.0
        if x <= 0.0:
            raise _Stall
        v = c_v * x
        tk = tau(k1 * v / j1) * k1
        a2, b2, c2 = u1 * (eta * tk - g1) / x, dj1 / v, d1 * tk
        x = p + h * 2.0 * a2 / 3.0
        if x <= 0.0:
            raise _Stall
        v = c_v * x
        tk = tau(k3 * v / j3) * k3
        a3, b3, c3 = u3 * (eta * tk - g3) / x, dj3 / v, d3 * tk
        x = p + h * (a1 + 4.0 * a2 - a3) / 12.0
        if x <= 0.0:
            raise _Stall
        v = c_v * x
        tk = tau(k1 * v / j1) * k1
        a4, b4, c4 = u1 * (eta * tk - g1) / x, dj1 / v, d1 * tk
        x = p + h * (18.0 * a2 - a1 - 3.0 * a3 - 6.0 * a4) / 16.0
        if x <= 0.0:
            raise _Stall
        v = c_v * x
        tk = tau(k2 * v / j2) * k2
        a5, b5, c5 = u2 * (eta * tk - g2) / x, dj2 / v, d2 * tk
        x = p + h * (9.0 * a2 - 3.0 * a3 - 6.0 * a4 + 4.0 * a5) / 8.0
        if x <= 0.0:
            raise _Stall
        v = c_v * x
        tk = tau(k2 * v / j2) * k2
        a6, b6, c6 = u2 * (eta * tk - g2) / x, dj2 / v, d2 * tk
        x = p + h * (9.0 * a1 - 36.0 * a2 + 63.0 * a3 + 72.0 * a4
                     - 64.0 * a6) / 44.0
        if x <= 0.0:
            raise _Stall
        v = c_v * x
        tk = tau(ke * v / je) * ke
        a7, b7, c7 = ue * (eta * tk - mg * je) / x, de * je / v, de * tk
        h120 = h / 120.0
        pe = p + h120 * (11.0 * (a1 + a7) + 81.0 * (a3 + a4)
                         - 32.0 * (a5 + a6))
        return (ue, pe,
                t + h120 * (11.0 * (b1 + b7) + 81.0 * (b3 + b4)
                            - 32.0 * (b5 + b6)),
                w + h120 * (11.0 * (c1 + c7) + 81.0 * (c3 + c4)
                            - 32.0 * (c5 + c6)),
                rhs(ue, pe, ke, je))

    def step(s: tuple, ue: float) -> tuple:
        """One step from s to ue, with the geometry computed from u: for
        steps that do not start on a grid point."""
        return advance(s, _row(s[0], ue, q2_init, jfac, th_off))

    def locate(s: tuple, end: tuple, phi, tol: float) -> tuple:
        """The first state past the root of phi on the step from s to end.

        phi < 0 before the root and phi(end) >= 0. Illinois regula falsi on
        u; the state returned has 0 <= phi <= tol, or lies within 1e-12
        relative in u of the last state before the root.
        """
        lo, flo = s[0], phi(s)
        if flo >= 0.0:
            return s
        hi, fhi, best = end[0], phi(end), end
        side = 0
        while fhi > tol and hi - lo > 1e-12 * hi:
            x = hi - fhi * (hi - lo) / (fhi - flo)
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
            trial = step(s, x)
            fx = phi(trial)
            if fx >= 0.0:
                hi, fhi, best = x, fx, trial
                if side == 1:
                    flo *= 0.5
                side = 1
            else:
                lo, flo = x, fx
                if side == -1:
                    fhi *= 0.5
                side = -1
        return best

    def q2_of(s: tuple) -> float:
        return cap if s[0] == u_cap else q2_init + s[0] * s[0]

    def snapshot(s: tuple) -> SimState:
        q2 = q2_of(s)
        k, jj = geom(q2)
        v = c_v * s[1]
        om = k * v / jj
        tau_m = envelope(om)
        tau_j = tau_m * k * eta
        # Positional, in field order: keywords cost as much again.
        return SimState(
            s[2], q2, v / jj,                   # t, q2, dq2
            height(jfac, q2), v, k,             # y_com, dy_com, k
            tau_m, tau_j, om,                   # tau_m, tau_j, omega_m
            tau_m * om, eta * tau_m * om,       # p_m, p_j
            tau_j / jj, s[3])                   # f_contact, w_motor

    def finish(s: tuple, how: Termination) -> TakeoffResult:
        q2 = q2_of(s)
        w = takeoff_energy(leg, q2, c_v * s[1])
        return TakeoffResult(
            w_takeoff=w, h_jump=jump_height(leg, w), t_takeoff=s[2],
            q2_at_takeoff=q2, terminated_by=how, trajectory=trajectory)

    def stall(s: tuple, ue: float) -> TakeoffResult:
        """End a run whose kinetic energy reaches zero between s and ue.

        Bisection finds the last state before the stall or t_max, whichever
        comes first. After a stall the knee holds its pose until t_max, as
        in a static hold; K falls linearly to zero at the stall pose.
        """
        lo, hi, last, stalled = s[0], ue, s, True
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            try:
                trial = step(s, mid)
            except _Stall:
                hi, stalled = mid, True
                continue
            if trial[2] > t_max:
                hi, stalled = mid, False
            else:
                lo, last = mid, trial
        if record and last is not s:
            trajectory.append(snapshot(last))
        if not stalled:
            return finish(last, Termination.TIMEOUT)
        u, p = last[0], last[1]
        f = last[4][0] * p / u if u > 0.0 else 0.0
        u_stop = min(math.sqrt(u * u + p * p / -f), hi) if f < 0.0 else u
        stop = (u_stop, 0.0, t_max, last[3], None)
        if record:
            trajectory.append(snapshot(stop))
        return finish(stop, Termination.STALL)

    trajectory: list[SimState] = []

    k0, j0 = geom(q2_init)
    lift = eta * k0 * tau_peak
    if lift <= mg * j0:
        # Static hold: the commanded torque cannot start lifting the CoM.
        held = (0.0, 0.0, t_max, 0.0, None)
        if record:
            trajectory += [snapshot((0.0, 0.0, 0.0, 0.0, None)), snapshot(held)]
        return finish(held, Termination.STATIC_HOLD)
    # At rest K ~ f0 u^2, which gives the limits dp/du = sqrt(f0) and
    # dt/du = 2 J0 / (sqrt(2/m) sqrt(f0)).
    rate = math.sqrt(lift - mg * j0)
    state = (0.0, 0.0, 0.0, 0.0, (rate, 2.0 * j0 / (c_v * rate), 0.0, 0.0))
    if record:
        trajectory.append(snapshot(state))

    piece = 0
    tau = pieces[piece]
    # With a small lift margin f0 is small against the growth of f, and K
    # bends within the first uniform step: those runs start graded.
    graded = 1.0 - mg * j0 / lift < GRADED_MARGIN
    for row in _u_grid(q2_init, cap, cfg.u_steps, jfac, th_off, graded):
        ue = row[1]
        while state[0] < ue:
            ended = None
            try:
                # The table holds the geometry of a step from its start
                # only; a split left the state between grid points.
                new = (advance(state, row) if state[0] == row[0]
                       else step(state, ue))
                now = piece_of(new[4][3])
                if now != piece:
                    # End the step at the first kink crossed; crossing the
                    # last one upward is the contact-force-zero event.
                    up = now > piece
                    level = kinks[piece if up else piece - 1]
                    sign = 1.0 if up else -1.0
                    new = locate(state, new,
                                 lambda s: sign * (s[4][3] - level),
                                 1e-10 * level)
                    if up and piece == len(kinks) - 1:
                        ended = Termination.CONTACT_FORCE_ZERO
                    now = piece + (1 if up else -1)
                if new[2] > t_max:
                    new = locate(state, new, lambda s: s[2] - t_max, 1e-11)
                    ended = Termination.TIMEOUT
                if now != piece and ended is None:
                    # The next step starts on the piece past the kink.
                    piece = now
                    tau = pieces[piece]
                    new = (*new[:4],
                           rhs(new[0], new[1], *geom(q2_init + new[0] ** 2)))
            except _Stall:
                return stall(state, ue)
            # A kink located at the state itself adds no row.
            if record and new[0] > state[0]:
                trajectory.append(snapshot(new))
            state = new
            if ended is not None:
                return finish(state, ended)

    return finish(state, Termination.ANGLE_CAP)
