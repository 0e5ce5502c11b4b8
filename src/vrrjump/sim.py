"""Forward simulation of explosive takeoff under the motor envelope.

Model closure: the robot is a point mass m_tot at the CoM, driven along the
vertical by the knee through the CoM Jacobian J(q2):

    omega_m = k(q2) * dq2                  motor speed
    tau_m   = max_torque(|omega_m|)        maximum-effort command
    tau_J   = tau_m * k(q2) * eta_j        joint torque
    m ydd   = tau_J / J(q2) - m g          CoM dynamics

Link rotational inertia and reflected actuator inertia are neglected.

The physics is not defined here: k, the envelope, the crank angle, J and
the height come from mechanism.ratio_law, motor.envelope_pieces (both bound
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
2 to 7, in rhs's order of operations and with its products read from the
step's row (below), so each stage at p > 0 is rhs's bit for bit. rhs
stalls at p <= 0 before it divides; advance tests the p of its six stages
once, after them, and takes a division by an exact p = 0 on the way for
the same stall. The step's end, like every other state, takes its
derivative from rhs.

On the first envelope piece, below omega_break, the motor holds tau_peak,
and work and energy solve the state exactly: with the motor's turn
phi(q2) since the anchor a (mechanism.turn_law, the integral of k),

    w_motor = w_a + tau_peak (phi - phi_a)
    K       = K_a + eta_j tau_peak (phi - phi_a) - m g (y - y_a)

where a is the start, or the state where the run re-enters the piece from
above. There walk0 replaces the stages and steps over pairs of u-steps: it
takes K and w_motor in closed form at each node of a pair, and t by the
5-point Gauss-Lobatto rule (Abramowitz & Stegun 25.4.32), whose weights at
the nodes 0, 1/2 - sqrt(21)/14, 1/2, 1/2 + sqrt(21)/14 and 1 of the pair
are (9, 49, 64, 49, 9)/180 (LOBATTO_NODES, LOBATTO_WEIGHTS). The rule has
order 8, and it takes four new evaluations per pair, where the method's
own quadrature would take four per u-step.

On the second piece the motor holds the power p_peak, so dK/dY =
eta_j p_peak / v - 1 in Y = m g (y - y_init), whatever the ratio. In
p = sqrt(K), with the terminal a = eta_j p_peak / (m g sqrt(2/m)),
delta = p - p_a and L = log1p(-delta / (a - p_a)),

    Y - Y_a = -delta (p + p_a + 2 a) - 2 a^2 L
    t - t_a = 2 / (m g sqrt(2/m)) (-delta - a L)
    w_motor = w_a + p_peak (t - t_a)

from the anchor, the state where the run last entered the piece, from
below or above. There exact1 replaces the stages: it takes Y at the step's
end from the row, newton solves the first line for p, and K never reaches
zero. Most rows of the piece need no state at all. Y(p) is monotone on
the anchor's side of a, since dY/dp = 2 p^2 / (a - p), so a row's end
stays on the piece exactly when its Y lies between Y(p) at the p of
omega_break, J omega_break / (k sqrt(2/m)), and at that of omega_hpl (a
p that the run cannot reach bounds nothing). t rises along the piece, so
the first of those rows whose end passes t_max is found by bisection on
t. The last two pieces run the Runge-Kutta method from the exact states.

From a grid point each piece walks its rows in one loop, and every walk
gives the same thing: the state at the start and at the end of the first
row (on piece 0, pair of rows) that may leave the piece or pass t_max, or
the state at the cap. walk0 keeps only t, dt/du and omega_m of each pair
and builds a state (p, w_motor, rhs) only where it stops, or for a
recorded sample; a step that starts off the grid is walk0 over one pair,
_row0 from the state to where the pair that holds it ends. walk1 tests
rows as above, at one ratio and at most two log1p each: the ends of pairs
counted from the row it starts on, and in the first pair that fails its
first row too. It takes the start of the first row that fails, or of the
last row, by one newton from the anchor, and its end by exact1 from there;
where that start lies past t_max, it takes the first row whose end does,
bisecting on the row ends, each one newton from the anchor. A recorded run
samples the pair ends it tested on the way and that start, each from the
sample before. walk2 steps each row by advance while omega_hpl < omega_m
< omega_max. An end of None is a stall inside the row.

The closed forms of the two exact pieces are written where the loops that
read them run. Piece 0's K = k_off + eta_j tau_peak phi - m g (y - y_init)
is written out at walk0's four nodes and in probe0, and inverted in the
re-entry's k_off; piece 1's Y(p) - Y_a in newton's residual, in probe1 and
in past; its t - t_a in sample1. Each copy of K and of Y(p) has a comment
that names the others. A closure for either in their place measured 2.8
to 5.5 % slower, on grid work or on recorded runs, so the copies stay, the
way advance keeps rhs's. The geometry is written once on the grid, in _row
and _row0, and once off it, in node1 and turn_at (the motor's turn, from
node1's cos theta).

The envelope has kinks, and a method of order 6 keeps its order only on a
smooth right-hand side. One motor.envelope_pieces call gives the kernel the
pieces, the kink speeds and the piece rule. Each step integrates the piece
in force at its start, extended smoothly past its kink even where a stage's
speed lands beyond it. A step ending on another piece is cut at the first
kink crossed, located by regula falsi on |omega_m| = k v / J, and the next
step starts on the new piece (the standard treatment of a discontinuous
right-hand side, ibid. section II.6). On pieces 0 and 1 the closed form
gives omega_m at any u, so a trial of that search is one probe at one
node, for a crossing up or down, and one exact step goes to the root. On
piece 0 the probe is omega_m - level itself. On piece 1 it is
(Y - Y(p_level)) / (dY/dp) level / p_level with p_level = J level / (k
sqrt(2/m)), the row test's closed form: one ratio and one log1p, and a
newton only where Y lies within rounding of Y(p_level), so that its sign
is the sign the state at the root gets, and a located kink never lies one
ulp short of it. These probe searches scale by Anderson and Bjorck's rule;
the searches whose trials are full steps keep Illinois' (see locate).
Crossing the last kink, omega_max, upward is the contact-force-zero event.
A moving timeout is located with full trial steps on every piece, and a
stall is bisected with Runge-Kutta steps on every piece, whose stages stop
where K reaches zero instead of integrating t through its 1/sqrt(K)
singularity. A change of piece reads J, sin theta, cos theta and m g
(y - y_init) at the kink from node1, and the motor's turn (turn_at) only
on re-entry into piece 0. A kink located at the state itself that would
take the run back to the piece it left at that u raises VrrJumpError: the
two pieces would alternate there without end (seen only on two u-steps).

The lift margin mu = 1 - m g J0 / (eta_j k0 tau_peak) sets how far from the
start K stops growing like f0 u^2. A run with mu < GRADED_MARGIN, which
starts close to a static hold, replaces its first 21 uniform steps with
steps that grow by 1.05 from 1e-4 u_cap, so that the bend in K near u = 0,
and the nearly singular t = int J/v dq2 there, are resolved; other runs
stay uniform.

Every candidate at one angle walks the same u-grid, and at a grid step only
k depends on r and S0. A row holds the rest: the step's nodes, h = ue - u
and h/120, and at each stage node x (1/3, 1/2, 2/3 and 1 of the step) the
Jacobian J, sin(theta) and cos(theta) for the crank angle
theta = q2 + (pi - delta_theta), rhs's products 2x, 2x J and m g J, and,
for walk1 and exact1, m g (y - y_init) at the step's end. Last it holds the
piece-0 step of its pair (_row0): at the pair's Lobatto nodes x, x^2, cos
theta, 2x J, m g (y - y_init) and cos(theta_init) - cos(theta), each
written so that no digits cancel near the start (leg.rise,
mechanism.cos_drop), and J and sin theta at the pair's end.
_u_grid tabulates one row per step, once per (q2_init, cap, u_steps,
Jacobian scale, m g, delta_theta, graded), through the same _row and _row0
the kernel uses off the grid, in a bounded cache that each process (each
pool worker too) fills on first use. A full grid step reads its row and
computes only k from it: at the four nodes of a Runge-Kutta step, at the
end of a pair on piece 0, and at the end of a row that walk1 tests; the
fixed-ratio kernel's k is constant. A step that starts off the grid (after
a kink or event split, and the trial steps of event location and stall
bisection) computes its row from u, on piece 1 only the row's end, which
is all exact1 reads. Either way
the results are bit for bit those of computing everything per step, and a
candidate's result does not depend on the others in its grid.

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
* Timeout -- the knee is still moving at t_max, located to 1e-14 t_max
  past it, or to 1e-12 relative in u.

A recorded trajectory holds one sample per pair of u-steps on pieces 0 and
1 and one per u-step on the others (graded steps included), plus one at
each kink and event. Piece 1 counts its pairs from the grid point where
its walk starts, and also records where the walk stops: the start of the
row that may leave the piece.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError, VrrJumpError, require_finite
from .leg import LegModel, com_height, height, jacobian, rise
from .mechanism import (FrrParams, VrrParams, check_working_range,
                        cos_drop, crank_offset, ratio_law, turn_law)
from .motor import MotorParams, envelope_pieces

U_STEPS = 75
"""SimConfig.u_steps default: u-steps before kink and event splits, of
order 6, on piece 0 walked in pairs with an order-8 t rule, and on piece 1
tested and recorded in pairs."""

NEWTON_CAP = 8
"""Most Newton iterations for the state at one node of piece 1."""

GRADED_MARGIN = 0.05
"""A run whose lift margin 1 - m g J0 / (eta_j k0 tau_peak) is below this
starts on graded steps (see _u_grid)."""

LOBATTO_NODES = (0.0, 0.5 - math.sqrt(21.0) / 14.0, 0.5,
                 0.5 + math.sqrt(21.0) / 14.0, 1.0)
"""The 5-point Gauss-Lobatto rule's nodes on [0, 1] (Abramowitz & Stegun
25.4.32), exact for polynomials of degree 7: walk0 takes t by it over a
pair of u-steps."""

LOBATTO_WEIGHTS = (9.0, 49.0, 64.0, 49.0, 9.0)
"""Its weights at LOBATTO_NODES, in units of 1/180, their sum."""


class _Stall(Exception):
    """The kinetic energy reached zero inside a step."""


def _geometry(q2: float, jfac: float,
              th_off: float) -> tuple[float, float, float]:
    """(J, sin theta, cos theta) at knee angle q2, for the Jacobian scale
    jfac and the crank angle theta = q2 + th_off (see crank_offset)."""
    th = q2 + th_off
    return jacobian(jfac, q2), math.sin(th), math.cos(th)


def _row(u: float, ue: float, q2_init: float, jfac: float, mg: float,
         th_off: float, pair: tuple | None = None) -> tuple:
    """One order-6 step from u to ue with every value of it that no design
    changes: (u, ue, the stage nodes u + h/3, u + h/2 and u + 2h/3, then J,
    sin theta and cos theta at each of those nodes and at ue; then h = ue -
    u, h/120, and 2x, 2x J and m g J at the four nodes x), for the weight
    mg; then m g (y - y_init) at ue, and last the piece-0 step (_row0) of
    the pair of table rows that holds this one, None off the table."""
    h = ue - u
    u1, u2, u3 = u + h / 3.0, u + 0.5 * h, u + 2.0 * h / 3.0
    j1, sin1, cos1 = _geometry(q2_init + u1 * u1, jfac, th_off)
    j2, sin2, cos2 = _geometry(q2_init + u2 * u2, jfac, th_off)
    j3, sin3, cos3 = _geometry(q2_init + u3 * u3, jfac, th_off)
    je, sin_e, cos_e = _geometry(q2_init + ue * ue, jfac, th_off)
    d1, d2, d3, de = 2.0 * u1, 2.0 * u2, 2.0 * u3, 2.0 * ue
    return (u, ue, u1, u2, u3, j1, sin1, cos1, j2, sin2, cos2, j3, sin3, cos3,
            je, sin_e, cos_e, h, h / 120.0, d1, d2, d3, de,
            d1 * j1, d2 * j2, d3 * j3, de * je, mg * j1, mg * j2, mg * j3,
            mg * je, mg * rise(jfac, q2_init, ue * ue), pair)


def _row0(u: float, ue: float, q2_init: float, jfac: float, mg: float,
          th_off: float) -> tuple:
    """One piece-0 step from u to ue, what walk0 reads of it: (u, ue, then
    d = x^2 at the interior LOBATTO_NODES x and at ue, cos theta at the
    interior nodes, J, sin theta and cos theta at ue, h / 180 for h = ue -
    u, 2x J at the interior nodes and at ue, and last m g (y - y_init) and
    cos_drop(theta_init, d) at the interior nodes and at ue, flat: what
    piece 0's closed form reads there besides the geometry)."""
    h = ue - u
    _, c1, c2, c3, _ = LOBATTO_NODES
    x1, x2, x3 = u + c1 * h, u + c2 * h, u + c3 * h
    d1, d2, d3, de = x1 * x1, x2 * x2, x3 * x3, ue * ue
    j1, _, cos1 = _geometry(q2_init + d1, jfac, th_off)
    j2, _, cos2 = _geometry(q2_init + d2, jfac, th_off)
    j3, _, cos3 = _geometry(q2_init + d3, jfac, th_off)
    je, sin_e, cos_e = _geometry(q2_init + de, jfac, th_off)
    return (u, ue, d1, d2, d3, de, cos1, cos2, cos3, je, sin_e, cos_e,
            h / sum(LOBATTO_WEIGHTS), 2.0 * x1 * j1, 2.0 * x2 * j2,
            2.0 * x3 * j3, 2.0 * ue * je,
            *(v for d in (d1, d2, d3, de)
              for v in (mg * rise(jfac, q2_init, d),
                        cos_drop(q2_init + th_off, d))))


@functools.lru_cache(maxsize=64)
def _u_grid(q2_init: float, cap: float, n: int, jfac: float, mg: float,
            th_off: float, graded: bool) -> tuple[tuple, ...]:
    """The u-steps of a takeoff, one _row per step, each holding the _row0
    of its pair: rows 0 and 1, 2 and 3, and so on, with the last row alone
    when their count is odd.

    n uniform steps. graded replaces the first 21 of them with steps that
    shrink by 1.05 toward u = 0, the first of them at least 1e-4 * u_cap
    long: at the 21st node a step of ratio 1.05 is one uniform step long,
    so no graded step is longer than a uniform one. Graded rows pair like
    the others. The table depends on no design parameter but the crank
    offset th_off, and on the leg only through its Jacobian scale jfac and
    weight mg, so every candidate of a grid at one angle shares it. 64
    tables hold the default box's 7 offsets (the fixed ratio shares
    delta_theta = 0's, pi), graded and uniform, at three angles or at a
    census angle's n and 16n.
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
    steps = len(nodes) - 1
    pairs = [_row0(nodes[k], nodes[min(k + 2, steps)], q2_init, jfac, mg,
                   th_off) for k in range(0, steps, 2)]
    return tuple(_row(nodes[k], nodes[k + 1], q2_init, jfac, mg, th_off,
                      pairs[k // 2]) for k in range(steps))


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

    simulate_jump takes u_steps steps in u, in pairs on the constant-torque
    piece (the last step alone when u_steps is odd), and has one takeoff
    rule, so dt and takeoff_rule are still validated but not read; perfbench
    passes both.
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
    pieces, kinks, piece_of = envelope_pieces(motor)
    ratio = ratio_law(mech)
    # A fixed ratio reads only J, so it shares the delta_theta = 0 table.
    th_off = crank_offset(mech) if vrr else math.pi
    turn = turn_law(mech, q2_init + th_off)
    eta_tau, sqrt, log1p = eta * tau_peak, math.sqrt, math.log1p
    # Piece 1's terminal p = sqrt(K), a, and constants (module docstring).
    a = eta * motor.p_peak / (mg * c_v)
    two_a, two_aa, c_t = 2.0 * a, 2.0 * a * a, 2.0 / (mg * c_v)
    w_break, w_hpl, w_max = kinks

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

    def node1(x: float) -> tuple[float, float, float, float]:
        """(J, sin theta, cos theta, m g (y - y_init)) at u = x, off the
        grid: all that piece 1 reads of a node, all that a change of piece
        reads of the kink, and, with turn_at, all that piece 0 reads of a
        node."""
        jj, sin_th, cos_th = _geometry(q2_init + x * x, jfac, th_off)
        return jj, sin_th, cos_th, mg * rise(jfac, q2_init, x * x)

    def turn_at(x: float, cos_th: float) -> float:
        """The motor's turn since the start at u = x off the grid, where
        cos theta is cos_th (node1), by the expressions _row0 uses."""
        return turn(x * x, cos_th, cos_drop(q2_init + th_off, x * x))

    def newton(s: tuple, ye: float) -> tuple[float, float]:
        """(p, L) on piece 1 where m g (y - y_init) = ye, L = log1p(-(p - p_a)
        / (a - p_a)): Newton on Y(p), dY/dp = 2 p^2 / (a - p), from a
        second-order step off the state s, for at most NEWTON_CAP iterations.
        A step under 1e-8 |a - p| ends it: the next would be under rounding.
        A solve that does not end so raises VrrJumpError, so that a grid
        marks its row instead of printing a wrong W."""
        if gap == 0.0:
            # K stays at a^2, and Y grows as m g sqrt(2/m) a t.
            return a, (y_a - ye) / two_aa
        # The step from s, whose Y is exact, is in Pade form so that it
        # never turns back.
        x, dy = s[1], ye - s[5]
        xx = 2.0 * x * x
        x += (a - x) / xx * dy / (1.0 - dy * (x - two_a) / (2.0 * x * xx))
        for _ in range(NEWTON_CAP):
            # Y(p) - Y_a (module docstring), written out here, in probe1
            # and in past: a call for it costs measurable time in each.
            d = x - p_a
            lg = log1p(-d / gap)
            res = ye - y_a + d * (x + p_a + two_a) + two_aa * lg
            dx = res * (a - x) / (2.0 * x * x)
            if (a - x - dx) * gap <= 0.0:
                # Keep the iterate on the anchor's side of a.
                dx = 0.5 * (a - x)
            x += dx
            if abs(dx) <= 1e-8 * abs(a - x):
                break
        else:
            raise VrrJumpError(
                f"{mech} at q2_init={q2_init}: p at m g (y - y_init) = {ye!r} "
                f"J on the constant-power piece not solved in {NEWTON_CAP} "
                f"Newton iterations (residual {res:.3g} J)")
        # log1p at the last iterate, carried to x to first order.
        return x, lg - dx / (a - x + dx)

    def probe0(s: tuple, x: float, level: float) -> float:
        """omega_m - level at u = x on piece 0, in closed form."""
        jj, sin_th, cos_th, rise_x = node1(x)
        # K on piece 0, written out as at walk0's nodes and inverted in the
        # re-entry's k_off.
        p = sqrt(max(k_off + eta_tau * turn_at(x, cos_th) - rise_x, 0.0))
        return ratio(sin_th, cos_th) * (c_v * p) / jj - level

    def probe1(s: tuple, x: float, level: float) -> float:
        """omega_m - level at u = x on piece 1 from the state s, to first
        order, in closed form: p lies past pb = J level / (k sqrt(2/m)),
        the p of the level there, exactly when m g (y - y_init) lies past
        Y(pb), and dY/dp = 2 p^2 / (a - p), so one ratio and one log1p give
        (Y - Y(pb)) / (dY/dp at pb) level / pb. Where pb lies outside (p_a,
        a), or Y - Y(pb) is within 1e-14 of the terms it sums and of pb
        dY/dp, newton from s gives omega_m - level itself; signs computed
        both ways differ only within 1.7e-16 of that scale on the full box.
        So the sign is that of the state a step from s to x takes."""
        jj, sin_th, cos_th, ye = node1(x)
        kr = ratio(sin_th, cos_th)
        pb = level * jj / (c_v * kr)
        d = pb - p_a
        if d * gap > 0.0 and (a - pb) * gap > 0.0:
            # Y(p) - Y_a, written out as in newton and past.
            dy_a, dy_p = ye - y_a, d * (pb + p_a + two_a)
            dy_l = two_aa * log1p(-d / gap)
            slope = 2.0 * pb * pb / (a - pb)
            dy = dy_a + dy_p + dy_l
            if abs(dy) > 1e-14 * (abs(dy_a) + abs(dy_p) + abs(dy_l)
                                  + abs(slope) * pb):
                return dy / slope * level / pb
        return kr * (c_v * newton(s, ye)[0]) / jj - level

    # A state is (u, p, t, w_motor, rhs at the state), after an entry and on
    # piece 1 followed by m g (y - y_init), which newton starts from.
    def end0(t: float, row: tuple, pe: float, phi: float,
             kr: float) -> tuple:
        """The state at the end of the piece-0 step row from what walk0
        keeps of it: t, p, the turn phi and k."""
        ue = row[1]
        return ue, pe, t, w_off + tau_peak * phi, rhs(ue, pe, kr, row[9])

    w_end, w_side, w_mid = LOBATTO_WEIGHTS[:3]

    def walk0(todo: tuple, i: int, s: tuple, log: bool) -> tuple:
        """Piece 0 over the pairs of rows from todo[i], whose start is the
        state s: each step is the _row0 that todo[j] holds last, for j = i,
        i + 2 and so on. K and w_motor are closed-form, and t comes from the
        Lobatto rule on each pair, whose nodes carry exact states. Gives (j, the state at
        the start of todo[j], the state at the end of its pair) for the
        first pair whose end leaves the piece or passes t_max, with None for
        the end where K <= 0 at a node of the pair, or (len(todo), the state
        at the last end, None). Only t, dt/du and omega_m of the pairs
        between are kept, and each pair's end is recorded with log."""
        t, b, back = s[2], s[4][1], None
        for j in range(i, len(todo), 2):
            row = todo[j][-1]
            (_, ue, d1, d2, d3, de, cos1, cos2, cos3, je, sin_e, cos_e, hw,
             dj1, dj2, dj3, dje, y1, c1, y2, c2, y3, c3, ye, ce) = row
            # K at the four nodes, written out as in probe0 and inverted in
            # the re-entry's k_off: a call per node costs measurable time.
            k1 = k_off + eta_tau * turn(d1, cos1, c1) - y1
            k2 = k_off + eta_tau * turn(d2, cos2, c2) - y2
            k3 = k_off + eta_tau * turn(d3, cos3, c3) - y3
            phi = turn(de, cos_e, ce)
            ke = k_off + eta_tau * phi - ye
            if k1 <= 0.0 or k2 <= 0.0 or k3 <= 0.0 or ke <= 0.0:
                return j, s if back is None else end0(t, *back), None
            pe = sqrt(ke)
            v = c_v * pe
            kr = ratio(sin_e, cos_e)
            be = dje / v
            tn = t + hw * (w_end * (b + be)
                           + (w_side * (dj1 / sqrt(k1) + dj3 / sqrt(k3))
                              + w_mid * dj2 / sqrt(k2)) / c_v)
            om = kr * v / je
            if not om <= w_break or tn > t_max:
                return (j, s if back is None else end0(t, *back),
                        end0(tn, row, pe, phi, kr))
            if log:
                trajectory.append(snapshot((ue, pe, tn,
                                            w_off + tau_peak * phi)))
            t, b, back = tn, be, (row, pe, phi, kr)
        return len(todo), end0(t, *back), None

    def sample1(s: tuple, ue: float, ye: float) -> tuple:
        """The state at u = ue on piece 1, where m g (y - y_init) = ye, with
        no rhs: p by newton, then t and w_motor in closed form from the
        anchor."""
        pe, lg = newton(s, ye)
        dt = c_t * (p_a - pe - a * lg)
        return ue, pe, t_a + dt, w_a + motor.p_peak * dt, None, ye

    def state1(s: tuple, ue: float, je: float, sin_e: float, cos_e: float,
               ye: float) -> tuple:
        """sample1 with the rhs at u = ue, where J, sin theta and cos theta
        are je, sin_e and cos_e: a row's end, or node1's."""
        _, pe, t, w, _, _ = sample1(s, ue, ye)
        return ue, pe, t, w, rhs(ue, pe, ratio(sin_e, cos_e), je), ye

    def exact1(s: tuple, row: tuple) -> tuple:
        """The state at row's end on piece 1 (state1)."""
        return state1(s, row[1], row[14], row[15], row[16], row[31])

    def stays(row: tuple) -> bool:
        """Whether row's end stays on piece 1: p there lies past exactly
        one of the p of omega_break, J omega_break / (k sqrt(2/m)), and that
        of omega_hpl."""
        ye = row[31]
        c = row[14] / (c_v * ratio(row[15], row[16]))
        return past(w_break * c, ye) != past(w_hpl * c, ye)

    def walk1(i: int, s: tuple) -> tuple[int, tuple, tuple]:
        """Piece 1 from grid row i, whose start is the state s: the rows
        whose ends stay on the piece and short of t_max need no state.
        Gives (j, the state at the start of row j, exact1's state at its
        end) for the first row j that may leave or pass t_max, or the last
        row. The test reads the ends of rows i + 1, i + 3 and so on, the
        ends of pairs counted from row i, and in the first pair that fails
        its first row too: a run that left the piece inside a pair and came
        back by its end would walk on. The start of row j is one newton from
        the anchor. Where its t passes t_max, j becomes the first row whose
        end does, by bisection on the rows' ends, each one newton from the
        anchor: t rises along the piece. With record, the pair ends tested
        before row j - 1 are sampled, each from the sample before, and then
        row j - 1's end."""
        j = i + 1
        while j < n - 1 and stays(rows[j]):
            j += 2
        j -= 1
        if j < n - 1 and stays(rows[j]):
            j += 1
        new = exact1(anchor, rows[j - 1]) if j > i else s
        if new[2] > t_max:
            j = bisect.bisect_right(
                rows, t_max, i, j - 1,
                key=lambda row: sample1(anchor, row[1], row[31])[2])
            new = exact1(anchor, rows[j - 1]) if j > i else s
        if record and j > i:
            for row in rows[i + 1:j - 1:2]:
                s = sample1(s, row[1], row[31])
                trajectory.append(snapshot(s))
            trajectory.append(snapshot(new))
        return j, new, exact1(new, rows[j])

    def advance(s: tuple, row: tuple) -> tuple:
        """One step of Butcher's 7-stage order-6 Runge-Kutta method from
        state s over row (see _row); s[0] is the row's start."""
        p, t, w, (a1, b1, c1, _) = s[1:5]
        (_, ue, u1, u2, u3, j1, sin1, cos1, j2, sin2, cos2, j3, sin3, cos3,
         je, sin_e, cos_e, h, h120, d1, d2, d3, de, dj1, dj2, dj3, dje,
         g1, g2, g3, ge, _, _) = row
        k1, k2, k3, ke = (ratio(sin1, cos1), ratio(sin2, cos2),
                          ratio(sin3, cos3), ratio(sin_e, cos_e))
        # Only p feeds back into the stages; t and w_motor are quadratures
        # that take the same weights b = (11, 0, 81, 81, -32, -32, 11)/120.
        # Stages 2 to 7 are rhs written out (see the module docstring). A
        # stage at p <= 0 stalls the step, and the test is made once, after
        # the stages. The stages after such a stage are discarded; all they
        # can raise is division by zero, at an exact p = 0, since J > 0,
        # k > 0 and the envelope divides only by omega.
        try:
            x2 = p + h * a1 / 3.0
            v = c_v * x2
            tk = tau(k1 * v / j1) * k1
            a2, b2, c2 = u1 * (eta * tk - g1) / x2, dj1 / v, d1 * tk
            x3 = p + h * 2.0 * a2 / 3.0
            v = c_v * x3
            tk = tau(k3 * v / j3) * k3
            a3, b3, c3 = u3 * (eta * tk - g3) / x3, dj3 / v, d3 * tk
            x4 = p + h * (a1 + 4.0 * a2 - a3) / 12.0
            v = c_v * x4
            tk = tau(k1 * v / j1) * k1
            a4, b4, c4 = u1 * (eta * tk - g1) / x4, dj1 / v, d1 * tk
            x5 = p + h * (18.0 * a2 - a1 - 3.0 * a3 - 6.0 * a4) / 16.0
            v = c_v * x5
            tk = tau(k2 * v / j2) * k2
            a5, b5, c5 = u2 * (eta * tk - g2) / x5, dj2 / v, d2 * tk
            x6 = p + h * (9.0 * a2 - 3.0 * a3 - 6.0 * a4 + 4.0 * a5) / 8.0
            v = c_v * x6
            tk = tau(k2 * v / j2) * k2
            a6, b6, c6 = u2 * (eta * tk - g2) / x6, dj2 / v, d2 * tk
            x7 = p + h * (9.0 * a1 - 36.0 * a2 + 63.0 * a3 + 72.0 * a4
                          - 64.0 * a6) / 44.0
            v = c_v * x7
            tk = tau(ke * v / je) * ke
            a7, b7, c7 = ue * (eta * tk - ge) / x7, dje / v, de * tk
        except ZeroDivisionError:
            raise _Stall from None
        if (x2 <= 0.0 or x3 <= 0.0 or x4 <= 0.0 or x5 <= 0.0 or x6 <= 0.0
                or x7 <= 0.0):
            raise _Stall
        pe = p + h120 * (11.0 * (a1 + a7) + 81.0 * (a3 + a4)
                         - 32.0 * (a5 + a6))
        return (ue, pe,
                t + h120 * (11.0 * (b1 + b7) + 81.0 * (b3 + b4)
                            - 32.0 * (b5 + b6)),
                w + h120 * (11.0 * (c1 + c7) + 81.0 * (c3 + c4)
                            - 32.0 * (c5 + c6)),
                rhs(ue, pe, ke, je))

    def walk2(i: int, s: tuple) -> tuple:
        """Piece 2 over the rows from grid row i, whose start is the state
        s, by advance: (j, the state at the start of row j, the state at
        its end) for the first row j whose end leaves the piece or passes
        t_max, with None for the end where a stage meets K <= 0, or (the
        number of rows, the state at the cap, None). With record, each row
        between is recorded."""
        for j in range(i, n):
            try:
                new = advance(s, rows[j])
            except _Stall:
                return j, s, None
            om = new[4][3]
            if not w_hpl < om < w_max or new[2] > t_max:
                return j, s, new
            if record:
                trajectory.append(snapshot(new))
            s = new
        return n, s, None

    def step(s: tuple, ue: float) -> tuple:
        """The state at ue by one step from s, with its row computed from u:
        for steps that do not start on a grid point. It is exact on pieces 0
        and 1: on piece 0 it is walk0 over the one pair _row0(s[0], ue), and
        piece 1 reads only the end of a row (node1)."""
        if piece == 1:
            return state1(s, ue, *node1(ue))
        if piece == 0:
            j, start, end = walk0(((_row0(s[0], ue, q2_init, jfac, mg,
                                          th_off),),), 0, s, False)
            if end is None and not j:
                raise _Stall
            return start if j else end
        return advance(s, _row(s[0], ue, q2_init, jfac, mg, th_off))

    def locate(s: tuple, end: tuple, phi, tol: float, probe=None) -> tuple:
        """The first state past the root of phi on the step from s to end,
        or s itself where phi(s) >= 0.

        phi < 0 before the root and phi(end) >= 0. Regula falsi on u: where
        a trial falls on the side of the trial before, the value kept at
        the other end is scaled, with probe by Anderson and Bjorck's 1 -
        f(trial) / f(trial before), or 1/2 where that is not positive (BIT
        13, 1973; order about 1.7), and without by Illinois' 1/2 (order
        about 1.44). The state returned has 0 <= phi <= tol, or lies within
        1e-12 relative in u of the last state before the root. A trial is a
        step from s, or with probe, probe(x), phi's value at u = x to first
        order with its sign exact, and one step to the root follows.
        """
        lo, flo = s[0], phi(s)
        if flo >= 0.0:
            return s
        hi, fhi, best = end[0], phi(end), end
        fbest = fhi
        side = 0
        while fbest > tol and hi - lo > 1e-12 * hi:
            x = hi - fhi * (hi - lo) / (fhi - flo)
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
            if probe is None:
                trial = step(s, x)
                fx = phi(trial)
            else:
                trial, fx = x, probe(x)
            if fx >= 0.0:
                if side == 1:
                    m = 0.5 if probe is None else 1.0 - fx / fhi
                    flo *= m if m > 0.0 else 0.5
                hi, fhi, fbest, best = x, fx, fx, trial
                side = 1
            else:
                if side == -1:
                    m = 0.5 if probe is None else 1.0 - fx / flo
                    fhi *= m if m > 0.0 else 0.5
                lo, flo = x, fx
                side = -1
        if probe is None or best is end:
            return best
        return step(s, best)

    def past(pb: float, ye: float) -> bool:
        """Whether p on piece 1 at m g (y - y_init) = ye > y_a lies past pb,
        seen from the anchor: Y(p) is monotone on the anchor's side of a,
        which p never reaches, so Y(pb) decides when pb lies between p_a
        and a."""
        if (pb - p_a) * gap <= 0.0:
            return True
        if (a - pb) * gap <= 0.0:
            return False
        # Y(pb) - Y_a, written out as in newton and probe1.
        d = pb - p_a
        return ye > y_a - d * (pb + p_a + two_a) - two_aa * log1p(-d / gap)

    def q2_of(s: tuple) -> float:
        return cap if s[0] == u_cap else q2_init + s[0] * s[0]

    def snapshot(s: tuple) -> SimState:
        q2 = q2_of(s)
        jj, sin_th, cos_th = _geometry(q2, jfac, th_off)
        k = ratio(sin_th, cos_th)
        v = c_v * s[1]
        om = k * v / jj
        tau_m = pieces[piece_of(om)](om)
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
        comes first, with Runge-Kutta trial steps on every piece. After a
        stall the knee holds its pose until t_max, as in a static hold; K
        falls linearly to zero at the stall pose.
        """
        lo, hi, last, stalled = s[0], ue, s, True
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            try:
                trial = advance(s, _row(s[0], mid, q2_init, jfac, mg, th_off))
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

    j0, sin0, cos0 = _geometry(q2_init, jfac, th_off)
    k0 = ratio(sin0, cos0)
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
    # On piece 0, K = k_off + eta tau_peak turn - m g (y - y_init) and
    # w_motor = w_off + tau_peak turn: from rest, or from the state where
    # the run re-entered piece 0 (work and energy).
    k_off = w_off = 0.0
    # On piece 1, the anchor: the state where the run last entered the
    # piece, its p, m g (y - y_init), t and w_motor, and a - p_a.
    anchor = None
    p_a = y_a = t_a = w_a = gap = 0.0
    # The u and the piece of the last change of piece.
    came = None
    # With a small lift margin f0 is small against the growth of f, and K
    # bends within the first uniform step: those runs start graded.
    graded = 1.0 - mg * j0 / lift < GRADED_MARGIN
    rows = _u_grid(q2_init, cap, cfg.u_steps, jfac, mg, th_off, graded)
    n, i = len(rows), 0
    while True:
        # The table holds the geometry of a step from its start only; a
        # split leaves the state between grid points. From a grid point a
        # walk takes the rows that stay on the piece and short of t_max,
        # and gives the start and end of the first row that may leave
        # (walk1 reads only the rows' ends, and so does its test here).
        # Piece 0 steps over pairs of rows, so its walks start at even rows.
        # On a real table rows[i - 1][1] is rows[i][0] (_u_grid shares its
        # nodes), but piece 1 tests the end: a table whose starts never
        # match (test_u_grid_table_matches_geometry_from_u) still walks
        # piece 1, and off the grid newton chained from each state would
        # give other bits than walk1's one newton from the anchor.
        if piece == 1:
            walk = state[0] == rows[i - 1][1]
        else:
            walk = state[0] == rows[i][0] and not (piece == 0 and i & 1)
        if walk:
            i, state, new = (walk0(rows, i, state, record) if piece == 0 else
                             walk1(i, state) if piece == 1 else
                             walk2(i, state))
            if i == n:
                return finish(state, Termination.ANGLE_CAP)
        # On piece 0 a step ends where the pair that holds row i ends.
        ue = rows[i][-1][1] if piece == 0 else rows[i][1]
        ended = None
        try:
            if not walk:
                new = step(state, ue)
            elif new is None:
                raise _Stall
            now = piece_of(new[4][3])
            if now != piece:
                # End the step at the first kink crossed; crossing the last
                # one upward is the contact-force-zero event.
                up = now > piece
                level = kinks[piece if up else piece - 1]
                sign = 1.0 if up else -1.0
                new = locate(state, new, lambda s: sign * (s[4][3] - level),
                             1e-10 * level, None if piece > 1 else
                             lambda x: sign * (probe0, probe1)[piece](
                                 state, x, level))
                if up and piece == len(kinks) - 1:
                    ended = Termination.CONTACT_FORCE_ZERO
                now = piece + (1 if up else -1)
            if new[2] > t_max:
                new = locate(state, new, lambda s: s[2] - t_max,
                             1e-14 * t_max)
                ended = Termination.TIMEOUT
            if now != piece and ended is None:
                if (new[0], now) == came:
                    # A kink located at the state itself, back to the piece
                    # the run left there: the two would alternate forever.
                    raise VrrJumpError(
                        f"{mech} at q2_init={q2_init}: the kink at omega_m = "
                        f"{level!r} rad/s turns the run back from piece "
                        f"{piece} to piece {now} at u = {new[0]!r}, where it "
                        "left that piece")
                came = new[0], piece
                # The next step starts on the piece past the kink.
                piece = now
                tau = pieces[piece]
                x = new[0]
                jj, sin_th, cos_th, rise_a = node1(x)
                new = (*new[:4], rhs(x, new[1], ratio(sin_th, cos_th), jj),
                       rise_a)
                if piece == 0:
                    # Re-entry: K and w_motor continue from here (K as
                    # walk0 and probe0 write it, inverted).
                    phi = turn_at(x, cos_th)
                    k_off = new[1] * new[1] - eta_tau * phi + rise_a
                    w_off = new[3] - tau_peak * phi
                elif piece == 1:
                    # Every entry, from below or above, anchors anew.
                    anchor = new
                    p_a, y_a, t_a, w_a = new[1], rise_a, new[2], new[3]
                    gap = a - p_a
        except _Stall:
            return stall(state, ue)
        # A kink located at the state itself adds no row.
        if record and new[0] > state[0]:
            trajectory.append(snapshot(new))
        state = new
        if ended is not None:
            return finish(state, ended)
        # Row i becomes the one that holds the state: past the end of a
        # pair, or past a kink located in a pair's second row.
        while state[0] >= rows[i][1]:
            i += 1
            if i == n:
                return finish(state, Termination.ANGLE_CAP)
