import dataclasses
import hashlib
import importlib.resources
import json
import math
import signal

import pytest
from scipy.optimize import brentq

from vrrjump import (DomainError, FrrParams, MechanismRangeError, SearchBox,
                     SimConfig, Termination, VrrJumpError, VrrParams,
                     com_height, com_jacobian, jump_height, load_config,
                     max_torque, optimize_frr, optimize_vrr, reduction_ratio,
                     simulate_jump, takeoff_energy)
from vrrjump import sim
from vrrjump.optimize import _frr_candidates, _vrr_candidates
from conftest import motor_variant
from test_closed_form import energy0
from test_golden import BOX as GOLDEN_BOX


def test_takeoff_energy_fixture(leg):
    # knee angle whose CoM height is exactly 0.5 m in geometric mode
    q2 = -2.0 * math.acos(0.5 / leg.com_chain_length)
    w = takeoff_energy(leg, q2, 2.0)
    assert w == pytest.approx(0.5 * 27.5 * 4.0 + 27.5 * 9.81 * 0.5, rel=1e-12)
    assert w == pytest.approx(189.89, abs=0.01)


def test_takeoff_energy_zero_at_folded_rest(leg):
    assert takeoff_energy(leg, -math.pi, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_takeoff_energy_monotone_in_speed(leg):
    ws = [takeoff_energy(leg, -1.0, dy) for dy in (0.0, 1.0, 2.0, 3.0)]
    assert all(b > a for a, b in zip(ws, ws[1:]))


def test_jump_height_identities(leg):
    m, g = leg.total_mass(), leg.g
    ys = leg.standing_com_height
    assert jump_height(leg, m * g * ys) == pytest.approx(0.0, abs=1e-12)
    assert jump_height(leg, m * g * (ys + 0.62)) == pytest.approx(0.62, rel=1e-12)
    assert jump_height(leg, 0.5 * m * g * ys) < 0.0
    with pytest.raises(DomainError):
        jump_height(leg, -1.0)


def test_reference_takeoff(leg, motor, mech_opt, deep_crouch):
    res = simulate_jump(leg, motor, mech_opt, deep_crouch)
    assert res.terminated_by is Termination.ANGLE_CAP
    assert res.q2_at_takeoff == pytest.approx(-0.05, abs=1e-8)
    assert 0.45 < res.h_jump < 0.60
    assert 0.2 < res.t_takeoff < 0.6
    assert res.trajectory[0].t == 0.0
    assert res.trajectory[0].dq2 == 0.0
    assert res.trajectory[-1].t == pytest.approx(res.t_takeoff)


def test_reference_takeoff_regression(leg, motor, mech_opt, deep_crouch):
    """Converged values: RK4 in time at dt = 5e-6 s gives 359.45730 J."""
    res = simulate_jump(leg, motor, mech_opt, deep_crouch)
    assert res.h_jump == pytest.approx(0.5347064, abs=1e-6)
    assert res.w_takeoff == pytest.approx(359.45730, abs=1e-4)


def test_frr_takeoff_by_force_zero(leg, motor, deep_crouch):
    res = simulate_jump(leg, motor, FrrParams(22.0), deep_crouch)
    assert res.terminated_by is Termination.CONTACT_FORCE_ZERO
    assert res.q2_at_takeoff < -0.5
    assert 0.35 < res.h_jump < 0.48
    assert res.trajectory[-1].f_contact <= 1e-6


def test_trajectory_channels_consistent(leg, motor, mech_opt, deep_crouch):
    res = simulate_jump(leg, motor, mech_opt, deep_crouch)
    m, g = leg.total_mass(), leg.g
    for s in res.trajectory[:: max(1, len(res.trajectory) // 200)]:
        assert s.p_j == pytest.approx(motor.eta_j * s.p_m, rel=1e-12)
        assert s.p_m == pytest.approx(s.tau_m * s.omega_m, rel=1e-12)
        assert s.y_com == pytest.approx(com_height(leg, s.q2), rel=1e-12)
        assert s.f_contact >= -1e-9
    work = [s.w_motor for s in res.trajectory]
    assert all(b >= a for a, b in zip(work, work[1:]))


def _contract_length(res, cfg, motor) -> int:
    """The length of a recorded run on uniform u-steps that leaves piece 0
    once and never comes back: the start, the end of each pair of u-steps
    before the first kink, the end of each u-step from the one that holds
    it to the last before the cap or the event, but for every other one
    that piece 1 walks, and one sample at each kink crossed, contact-force
    zero included. Piece 1 walks the u-steps after the one that holds the
    first kink and before the one that holds the second, or before the last
    u-step, and records the end of each pair of them and of the last."""
    speeds = (motor.omega_break, motor.omega_hpl, motor.omega_max)
    n = cfg.u_steps
    u_cap = math.sqrt(cfg.q2_takeoff_cap - cfg.q2_init)

    def step_of(s):
        return math.floor(math.sqrt(s.q2 - cfg.q2_init) / u_cap * n)
    kinks = [s for s in res.trajectory
             if any(abs(s.omega_m - w) <= KINK_REL * w for w in speeds)]
    first = step_of(kinks[0])
    last = (n if res.terminated_by is Termination.ANGLE_CAP
            else step_of(res.trajectory[-1]))
    second = step_of(kinks[1]) if len(kinks) > 1 else n - 1
    walked = max(second - first - 1, 0)
    return 1 + first // 2 + (last - first) - walked // 2 + len(kinks)


@pytest.mark.parametrize("angle", [-2.618, -2.2689, -1.9199])
def test_samples_are_the_model_functions_bitwise(leg, motor, angle):
    """The kernel evaluates the leg, mechanism and motor definitions
    themselves, so every recorded sample equals them exactly."""
    cfg = SimConfig(q2_init=angle)
    for mech, length in zip(
            (FrrParams(23.0), VrrParams(0.047, 0.150),
             VrrParams(0.050, 0.100, delta_theta=math.radians(2.0))),
            {-2.618: (38, 45, 48), -2.2689: (39, 41, 46),
             -1.9199: (38, 40, 44)}[angle]):
        res = simulate_jump(leg, motor, mech, cfg)
        assert len(res.trajectory) == _contract_length(res, cfg, motor) \
            == length
        for s in res.trajectory:
            assert s.tau_m == max_torque(motor, s.omega_m)
            assert s.tau_j == s.tau_m * reduction_ratio(mech, s.q2) * motor.eta_j
            assert s.y_com == com_height(leg, s.q2)
            assert s.dq2 == s.dy_com / com_jacobian(leg, s.q2)
            assert s.f_contact == s.tau_j / com_jacobian(leg, s.q2)
            assert s.k == reduction_ratio(mech, s.q2)


def test_determinism_bitwise(leg, motor, mech_opt, deep_crouch):
    a = simulate_jump(leg, motor, mech_opt, deep_crouch)
    b = simulate_jump(leg, motor, mech_opt, deep_crouch)
    assert a.w_takeoff == b.w_takeoff and a.h_jump == b.h_jump
    assert len(a.trajectory) == len(b.trajectory)
    for sa, sb in zip(a.trajectory, b.trajectory):
        assert sa == sb


def test_monotone_in_peak_torque(leg, motor, mech_opt, deep_crouch):
    heights = []
    for tau in (8.0, 9.37, 11.0):
        res = simulate_jump(leg, motor_variant(motor, tau_peak=tau), mech_opt,
                            deep_crouch, record=False)
        heights.append(res.h_jump)
    assert heights[0] < heights[1] < heights[2]


def test_monotone_in_peak_power(leg, motor, mech_opt, deep_crouch):
    heights = []
    for p in (1200.0, 1500.0, 1800.0):
        res = simulate_jump(leg, motor_variant(motor, p_peak=p), mech_opt,
                            deep_crouch, record=False)
        heights.append(res.h_jump)
    assert heights[0] < heights[1] < heights[2]


@pytest.mark.parametrize("bad", [0, -3, 2.5, True])
def test_u_steps_must_be_a_positive_int(bad):
    with pytest.raises(DomainError, match="u_steps"):
        SimConfig(q2_init=-2.618, u_steps=bad)


def test_u_steps_reaches_the_kernel(leg, motor, mech_opt, deep_crouch):
    """The step count travels in SimConfig: 150 steps change W, and the
    geometry cache holds the two tables under different keys."""
    sim._u_grid.cache_clear()
    coarse = simulate_jump(leg, motor, mech_opt, deep_crouch, record=False)
    fine = simulate_jump(leg, motor, mech_opt,
                         dataclasses.replace(deep_crouch, u_steps=150),
                         record=False)
    assert fine.w_takeoff != coarse.w_takeoff
    assert sim._u_grid.cache_info().currsize == 2


@pytest.mark.parametrize("angle, w_ref, w_frr", [
    (-2.618, 359.4572969932484, 327.3413863619902),
    (-2.2689, 349.0901923509159, 314.33617935465463),
    (-1.9199, 331.8965978605787, 300.27019574620795),
], ids=["-2.618", "-2.2689", "-1.9199"])
def test_pinned_energies(leg, motor, mech_opt, angle, w_ref, w_frr):
    """Exact energies of the reference design and of k = 23; any change to
    the kernel's arithmetic shows here."""
    cfg = SimConfig(q2_init=angle)
    res = simulate_jump(leg, motor, mech_opt, cfg, record=False)
    assert res.w_takeoff == w_ref
    res = simulate_jump(leg, motor, FrrParams(23.0), cfg, record=False)
    assert res.w_takeoff == w_frr


def _golden_box_run(tmp_path):
    """fullscale.json with test_golden's box: its RunConfig."""
    doc = json.loads(importlib.resources.files("vrrjump.configs")
                     .joinpath("fullscale.json").read_text())
    doc["search"] = GOLDEN_BOX
    path = tmp_path / "golden_box.json"
    path.write_text(json.dumps(doc))
    return load_config(path)


def _sha256_of(rows) -> str:
    """The SHA-256 over one line of exact values per row: floats as
    float.hex, the rest as str."""
    digest = hashlib.sha256()
    for values in rows:
        digest.update(" ".join(v.hex() if isinstance(v, float) else str(v)
                               for v in values).encode() + b"\n")
    return digest.hexdigest()


def test_kernel_bits_pinned(tmp_path, leg, motor, mech_opt, deep_crouch):
    """One digest over the exact W, t and q2 at takeoff and the ending of
    every candidate of the golden box at the three angles, of the stall, the
    moving timeout and the t_max = 0.05 run, and of six moving timeouts
    inside the rows that piece 1's walk skips: the reference design and
    k = 23 at each angle, with t_max in the middle of the run's span on
    piece 1. A rewrite of the kernel that is meant to keep its arithmetic
    must leave this digest as it is; one that only changes which samples a
    recorded run keeps moves test_trajectory_bits_pinned alone."""
    run = _golden_box_run(tmp_path)
    rows = []

    def pin(leg, motor, mech, cfg):
        try:
            res = simulate_jump(leg, motor, mech, cfg, record=False)
        except MechanismRangeError:
            return rows.append(("range",))
        rows.append((res.w_takeoff, res.t_takeoff, res.q2_at_takeoff,
                     res.terminated_by.value))

    mechs = _vrr_candidates(run.search) + _frr_candidates(run.search)
    for angle in run.angles:
        cfg = dataclasses.replace(run.sim, q2_init=angle)
        for mech in mechs:
            pin(run.leg, run.motor, mech, cfg)
    weak = motor_variant(motor, tau_peak=3.0, p_peak=3.0 * 160.0)
    pin(leg, weak, VrrParams(0.047, 0.150, delta_theta=math.radians(-2.5)),
        SimConfig(q2_init=-0.3))
    pin(leg, motor, VrrParams(0.035, 0.240), deep_crouch)
    pin(leg, motor, mech_opt, SimConfig(q2_init=-2.618, t_max=0.05))
    for angle, t_ref, t_frr in ((-2.618, 0.311, 0.287),
                                (-2.2689, 0.197, 0.230),
                                (-1.9199, 0.145, 0.176)):
        pin(leg, motor, mech_opt, SimConfig(q2_init=angle, t_max=t_ref))
        pin(leg, motor, FrrParams(23.0), SimConfig(q2_init=angle, t_max=t_frr))
    assert _sha256_of(rows) == (
        "498ec837d59c3396edd8c77d61eb79dba8d9262d2b82e874e4c887e4a66e0da6")


def test_trajectory_bits_pinned(leg, motor, mech_opt, deep_crouch):
    """One digest over every field of every sample of the reference
    design's recorded trajectory at -2.618."""
    res = simulate_jump(leg, motor, mech_opt, deep_crouch)
    assert _sha256_of(dataclasses.astuple(s) for s in res.trajectory) == (
        "f5609bae4807f131fbe0764834b68ed378c5aef4a5874ba969d0018161ffe506")


VRR_OPTIMA = {-2.618: VrrParams(0.050, 0.100), -2.2689: VrrParams(0.053, 0.100),
              -1.9199: VrrParams(0.056, 0.100)}


def _refined(leg, motor, mech, cfg, factor):
    """The result with factor times as many u-steps."""
    return simulate_jump(
        leg, motor, mech,
        dataclasses.replace(cfg, u_steps=factor * cfg.u_steps), record=False)


@pytest.mark.parametrize("angle", sorted(VRR_OPTIMA))
def test_work_energy_residual(leg, motor, mech_opt, angle):
    """eta w_motor + m g y(q2_init) = W holds to the integrator's error,
    which at U_STEPS is far below the printed 9 digits."""
    cfg = SimConfig(q2_init=angle)
    mg = leg.total_mass() * leg.g
    for mech in (mech_opt, VRR_OPTIMA[angle], FrrParams(22.0), FrrParams(23.0)):
        res = simulate_jump(leg, motor, mech, cfg)
        lhs = motor.eta_j * res.trajectory[-1].w_motor \
            + mg * com_height(leg, angle)
        assert abs(lhs - res.w_takeoff) / res.w_takeoff <= 1e-10, mech


def test_near_rest_start_is_resolved(leg, motor):
    """A lift margin of 8e-5 (a moving timeout at the deepest crouch): the
    graded start keeps W within 1e-9 of the 16-fold refined run, where 250
    uniform RK4 steps were 2.5e-4 off."""
    mech, cfg = VrrParams(0.035, 0.240), SimConfig(q2_init=-2.618)
    res = simulate_jump(leg, motor, mech, cfg, record=False)
    ref = _refined(leg, motor, mech, cfg, 16)
    assert res.terminated_by is ref.terminated_by is Termination.TIMEOUT
    assert res.q2_at_takeoff > cfg.q2_init
    assert res.w_takeoff != ref.w_takeoff
    assert abs(res.w_takeoff - ref.w_takeoff) / ref.w_takeoff <= 1e-9


@pytest.mark.parametrize("k", [22.0, 23.0])
@pytest.mark.parametrize("angle", sorted(VRR_OPTIMA))
def test_step_doubling_shows_order_6(leg, motor, angle, k):
    """These ratios cross all three envelope kinks and end at contact-force
    zero. With each step on one smooth envelope piece, doubling the steps
    cuts the error by about 2^6; a right-hand side that changes piece
    inside a step gives erratic ratios, near 1 for k = 22."""
    mech, cfg = FrrParams(k), SimConfig(q2_init=angle)
    ref = _refined(leg, motor, mech, cfg, 16)
    assert ref.terminated_by is Termination.CONTACT_FORCE_ZERO
    err = [abs(_refined(leg, motor, mech, cfg, f).w_takeoff
               - ref.w_takeoff) for f in (1, 2)]
    assert err[1] > 0
    assert err[1] * 32 <= err[0]


def _outcome(res):
    return (res.w_takeoff, res.h_jump, res.t_takeoff, res.q2_at_takeoff,
            res.terminated_by, res.trajectory)


@pytest.mark.parametrize("double_steps", [False, True])
def test_shared_u_grid_is_bitwise_neutral(leg, motor, deep_crouch,
                                          double_steps):
    """Every grid evaluation equals, bit for bit, a lone run that built its
    own u-grid table, and warm-cache runs match in either candidate order.
    With the step count doubled after the cache is warm, a table not keyed
    on it would be stale and the results would differ. At r = 35 mm four
    candidates start graded and five uniform, on tables of the same key
    but for the start."""
    box = SearchBox(r_range=(0.035, 0.050, 0.005),
                    s0_range=(0.140, 0.160, 0.010),
                    dtheta_range=(-math.radians(1.0), math.radians(1.0),
                                  math.radians(1.0)),
                    frr_range=(20.0, 24.0, 2.0))

    def grid(cfg):
        return (optimize_vrr(leg, motor, cfg, box).evaluations
                + optimize_frr(leg, motor, cfg, box).evaluations)

    def run(mech, record):
        return _outcome(simulate_jump(leg, motor, mech, cfg, record=record))

    cfg = deep_crouch
    sim._u_grid.cache_clear()
    if double_steps:
        before = grid(cfg)
        cfg = dataclasses.replace(cfg, u_steps=2 * cfg.u_steps)
    evals = grid(cfg)
    assert all(rec.feasible for rec in evals)
    if double_steps:
        assert [r.w_takeoff for r in evals] != [r.w_takeoff for r in before]
    mechs = [rec.params for rec in evals]
    cold = {}
    for mech in mechs:
        for record in (False, True):
            sim._u_grid.cache_clear()
            cold[mech, record] = run(mech, record)
    for rec in evals:
        assert (rec.w_takeoff, rec.h_jump) == cold[rec.params, False][:2]
    for order in (mechs, mechs[::-1]):
        sim._u_grid.cache_clear()
        for mech in order:
            for record in (False, True):
                assert run(mech, record) == cold[mech, record]


@pytest.mark.parametrize("mech", [VrrParams(0.047, 0.150), FrrParams(23.0)])
def test_u_grid_key_holds_the_weight(leg, motor, deep_crouch, mech):
    """The table holds m g J. Two legs of one Jacobian scale and different
    masses, run one after the other at one angle in either order, each
    give the W of a run on a cleared cache."""
    light = dataclasses.replace(leg, m1=leg.m1 / 2, m2=leg.m2 / 2,
                                m3=leg.m3 / 2)
    assert light.jacobian_scale == leg.jacobian_scale
    legs = (leg, light)

    def w(model):
        return simulate_jump(model, motor, mech, deep_crouch,
                             record=False).w_takeoff

    cold = []
    for model in legs:
        sim._u_grid.cache_clear()
        cold.append(w(model))
    assert cold[0] != cold[1]
    for order in (legs, legs[::-1]):
        sim._u_grid.cache_clear()
        assert {model: w(model) for model in order} == dict(zip(legs, cold))


@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
@pytest.mark.parametrize("n", [1, 2, 5, 21, 22, 75])
def test_u_grid_shares_its_nodes(leg, n, graded):
    """Each row starts, bit for bit, where the row before ends, and the last
    ends at u_cap; rows 2k and 2k + 1 hold one _row0 object, which runs
    from row 2k's start to row 2k + 1's end (row 2k's, for a last row
    alone). The piece-1 walk trigger reads a row's end for its start."""
    q2_init, cap = -2.618, -0.05
    rows = sim._u_grid.__wrapped__(q2_init, cap, n, leg.jacobian_scale,
                                   leg.total_mass() * leg.g, math.pi, graded)
    count = len(rows)
    assert count > n if graded else count == n
    assert rows[0][0] == 0.0
    assert rows[-1][1] == math.sqrt(cap - q2_init)
    for i in range(1, count):
        assert rows[i][0] == rows[i - 1][1]
    for k in range(0, count, 2):
        pair = rows[k][-1]
        assert pair[0] == rows[k][0]
        assert pair[1] == rows[min(k + 1, count - 1)][1]
        assert rows[min(k + 1, count - 1)][-1] is pair


@pytest.mark.parametrize("mech,angle,u_steps", [
    pytest.param(VrrParams(0.047, 0.150), -2.618, sim.U_STEPS, id="mech0"),
    pytest.param(VrrParams(0.040, 0.140, math.radians(2.0)), -2.618,
                 sim.U_STEPS, id="mech1"),
    pytest.param(VrrParams(0.035, 0.240), -2.618, sim.U_STEPS, id="mech2"),
    pytest.param(FrrParams(23.0), -2.618, sim.U_STEPS, id="mech3"),
    # The stall of test_stall_holds_the_stall_pose (weak motor): off the
    # grid the stalling step is step's walk0 over one pair, which meets
    # K <= 0 at a node.
    pytest.param(VrrParams(0.047, 0.150, math.radians(-2.5)), -0.3,
                 sim.U_STEPS, id="stall"),
    # A stall on piece 2, through walk2 on the grid. It is an artefact of
    # the four coarse steps: on 75 the run ends at contact-force zero.
    pytest.param(FrrParams(34.0), -2.618, 4, id="stall-piece2"),
])
def test_u_grid_table_matches_geometry_from_u(leg, motor, monkeypatch, mech,
                                              angle, u_steps):
    """A table whose start points never match sends every step down the
    off-grid path, which computes the geometry from u; the results agree
    bit for bit. (The piece-1 row test and its jump read the rows' ends.)"""
    cfg = SimConfig(q2_init=angle, u_steps=u_steps)
    if angle == -0.3:
        motor = motor_variant(motor, tau_peak=3.0, p_peak=3.0 * 160.0)
    table = sim._u_grid

    def unmatched(*key):
        return tuple((math.nan, *row[1:]) for row in table(*key))

    expected = [_outcome(simulate_jump(leg, motor, mech, cfg, record))
                for record in (False, True)]
    monkeypatch.setattr(sim, "_u_grid", unmatched)
    if u_steps != sim.U_STEPS:
        assert expected[0][4] is Termination.STALL
    for record, want in zip((False, True), expected):
        got = _outcome(simulate_jump(leg, motor, mech, cfg, record))
        assert got == want


def test_dt_is_not_read(leg, motor, mech_opt):
    a = simulate_jump(leg, motor, mech_opt, SimConfig(q2_init=-2.618, dt=1e-4))
    b = simulate_jump(leg, motor, mech_opt, SimConfig(q2_init=-2.618, dt=1e-2))
    assert a == b


@pytest.mark.parametrize("mech,angle,t_max", [
    pytest.param(VrrParams(0.047, 0.150), -2.618, 1.0, id="mech0-1.0"),
    pytest.param(FrrParams(22.0), -2.618, 1.0, id="mech1-1.0"),
    pytest.param(VrrParams(0.047, 0.150), -2.618, 0.05, id="mech2-0.05"),
    # The cap on piece 1; a re-entry into piece 1 from above; and a moving
    # timeout inside the rows that piece 1 skips (recorded, piece 1 spans
    # t = 0.132 to 0.265 s of that run).
    pytest.param(VrrParams(0.047, 0.150), -2.2689, 1.0, id="piece1-cap"),
    pytest.param(VrrParams(0.047, 0.200, math.radians(-1.0)), -2.618, 1.0,
                 id="piece1-reentry"),
    pytest.param(VrrParams(0.047, 0.150), -2.2689, 0.2, id="piece1-timeout"),
    # Where the piece walks end: a cap run and a moving timeout that start
    # graded, a re-entry into piece 0, a static hold, and (at -0.3 rad,
    # which only the weak motor below reaches) the stall of
    # test_stall_holds_the_stall_pose.
    pytest.param(VrrParams(0.032, 0.100), -2.618, 1.0, id="graded-cap"),
    pytest.param(VrrParams(0.035, 0.240), -2.618, 1.0, id="graded-timeout"),
    pytest.param(VrrParams(0.047, 0.100, math.radians(-2.8)), -2.618, 1.0,
                 id="piece0-reentry"),
    pytest.param(FrrParams(11.0), -2.618, 1.0, id="static-hold"),
    pytest.param(VrrParams(0.047, 0.150, math.radians(-2.5)), -0.3, 1.0,
                 id="stall"),
])
def test_record_flag_bitwise_at_every_ending(leg, motor, mech, angle, t_max):
    cfg = SimConfig(q2_init=angle, t_max=t_max)
    if angle == -0.3:
        motor = motor_variant(motor, tau_peak=3.0, p_peak=3.0 * 160.0)
    a = simulate_jump(leg, motor, mech, cfg, record=True)
    b = simulate_jump(leg, motor, mech, cfg, record=False)
    assert b.trajectory == []
    assert dataclasses.replace(a, trajectory=[]) == b
    assert a.trajectory[-1].t == a.t_takeoff
    assert a.trajectory[-1].q2 == a.q2_at_takeoff


@pytest.mark.parametrize("t_max,what", [(1.0, "p at")])
def test_unsolved_piece1_state_raises(leg, motor, mech_opt, monkeypatch,
                                      t_max, what):
    """A piece-1 solve that runs out of Newton iterations names the design,
    the angle and the residual instead of returning its last iterate."""
    monkeypatch.setattr(sim, "NEWTON_CAP", 1)
    with pytest.raises(VrrJumpError, match=r"r=0\.047, s0=0\.15.* at "
                       rf"q2_init=-2\.2689: {what} .* not solved in 1 Newton "
                       r"iterations \(residual "):
        simulate_jump(leg, motor, mech_opt,
                      SimConfig(q2_init=-2.2689, t_max=t_max), record=False)


def test_piece1_solves_stay_under_their_cap(tmp_path, monkeypatch):
    """Every piece-1 solve of the golden box at the three angles, the anchor
    solves among them, ends in fewer than NEWTON_CAP iterations; so does
    each sample of a recorded run, which solves from the sample a pair of
    u-steps before."""
    monkeypatch.setattr(sim, "NEWTON_CAP", sim.NEWTON_CAP - 1)
    run = _golden_box_run(tmp_path)
    mechs = _vrr_candidates(run.search) + _frr_candidates(run.search)
    for angle in run.angles:
        cfg = dataclasses.replace(run.sim, q2_init=angle)
        for mech in mechs:
            for record in (False, True):
                try:
                    simulate_jump(run.leg, run.motor, mech, cfg, record)
                except MechanismRangeError:
                    pass


def test_trajectory_has_one_row_per_pair_on_exact_pieces(
        leg, motor, mech_opt, deep_crouch):
    """One row per pair of u-steps on pieces 0 and 1 and per u-step after
    them, plus the start and one row at each envelope kink crossed. The
    reference design at -2.618 crosses omega_break between nodes 33 and 34
    of the 75-step u-grid, after 16 pairs, and omega_hpl between nodes 67
    and 68. Piece 1 records node 34, the start of its walk, the 16 pair
    ends 36 to 66 counted from there, and node 67, the end of the row
    before the kink's: 1 + 16 + 1 + 18 + 1 + 8 rows. Every row before a
    kink lies on its node bit for bit."""
    res = simulate_jump(leg, motor, mech_opt, deep_crouch)
    assert len(res.trajectory) == _contract_length(res, deep_crouch, motor) \
        == 45
    u_cap = math.sqrt(deep_crouch.q2_takeoff_cap - deep_crouch.q2_init)

    def q2_at(node):
        u = u_cap * node / sim.U_STEPS
        return deep_crouch.q2_init + u * u
    nodes = [*range(0, 34, 2), None, *range(34, 67, 2), 67, None]
    for s, node in zip(res.trajectory, nodes):
        if node is not None:
            assert s.q2 == q2_at(node)
    assert res.trajectory[17].omega_m == pytest.approx(
        motor.omega_break, rel=KINK_REL)
    assert res.trajectory[36].omega_m == pytest.approx(
        motor.omega_hpl, rel=KINK_REL)
    ts = [s.t for s in res.trajectory]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_lobatto_rule_is_exact_to_degree_7():
    """walk0's t rule integrates x^0 to x^7 on [0, 1] to rounding and
    overshoots x^8 by n (n-1)^3 ((n-2)!)^4 8! / ((2n-1) ((2n-2)!)^3) =
    1/35280 for n = 5 nodes (Abramowitz & Stegun 25.4.32, on [0, 1]): a
    wrong digit in a node or a weight fails."""
    def rule(k):
        return sum(w * x ** k for x, w in zip(sim.LOBATTO_NODES,
                                              sim.LOBATTO_WEIGHTS)) / 180.0
    assert sum(sim.LOBATTO_WEIGHTS) == 180.0
    for k in range(8):
        assert rule(k) == pytest.approx(1.0 / (k + 1), rel=1e-15, abs=0)
    assert rule(8) - 1.0 / 9.0 == pytest.approx(1.0 / 35280.0, rel=1e-9)


def test_coincident_kinks_add_no_duplicate_row(leg, motor):
    """With omega_hpl = omega_break the second kink is located at the state
    the first one ended on: the piece changes, the trajectory gains no row."""
    motor = dataclasses.replace(motor, omega_hpl=motor.omega_break)
    cfg = SimConfig(q2_init=-2.618)
    for mech in (FrrParams(23.0), VrrParams(0.047, 0.150)):
        res = simulate_jump(leg, motor, mech, cfg)
        ts = [s.t for s in res.trajectory]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert dataclasses.replace(res, trajectory=[]) == simulate_jump(
            leg, motor, mech, cfg, record=False)


def test_kink_that_turns_the_run_back_raises(leg, motor):
    """On two u-steps (65, 150) mm at -2.618 reaches omega_hpl exactly, at
    u = 0.95397...: the piece-1 step from there ends above the kink and the
    piece-2 step below it, so each kink is located at the state itself and
    the run would alternate between the two pieces forever. It raises
    instead; the timer fails a kernel that loops, within a second."""
    def hung(*_):
        raise TimeoutError("simulate_jump looped for 1 s")

    cfg = SimConfig(q2_init=-2.618, u_steps=2)
    handler = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        for record in (False, True):
            with pytest.raises(VrrJumpError, match=(
                    r"^VrrParams\(r=0\.065, s0=0\.15, .* at q2_init=-2\.618: "
                    r"the kink at omega_m = 376\.99\d* rad/s turns the run "
                    r"back from piece 2 to piece 1 at u = 0\.95397")):
                simulate_jump(leg, motor, VrrParams(0.065, 0.150), cfg,
                              record)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, handler)


KINK_REL = 1e-9
"""How close to its kink's speed a located kink lies: regula falsi ends
within 1e-10 of the speed, or within 1e-12 relative in u of the last
state before the kink (9.8e-11 of the speed at worst on the golden box)."""


def test_kinks_are_located_at_their_speed(tmp_path):
    """Wherever the motor speed crosses a kink between two recorded
    samples, the later sample is the located crossing: its speed lies at
    the kink, within KINK_REL, and on the far side of it or exactly on it.
    A crossing located short of the kink leaves the next grid sample as the
    first past it, far from the kink's speed. On the golden box at the
    three angles and on the two designs that re-enter a piece."""
    run = _golden_box_run(tmp_path)
    motor = run.motor
    kinks = (motor.omega_break, motor.omega_hpl, motor.omega_max)
    runs = [(mech, dataclasses.replace(run.sim, q2_init=angle))
            for angle in run.angles
            for mech in _vrr_candidates(run.search) + _frr_candidates(
                run.search)]
    runs += [(VrrParams(0.047, 0.100, math.radians(-2.8)),
              SimConfig(q2_init=-2.618)),
             (VrrParams(0.047, 0.200, math.radians(-1.0)),
              SimConfig(q2_init=-2.618))]
    located = 0
    for mech, cfg in runs:
        try:
            res = simulate_jump(run.leg, motor, mech, cfg)
        except MechanismRangeError:
            continue
        omegas = [s.omega_m for s in res.trajectory]
        for before, om in zip(omegas, omegas[1:]):
            for kink in kinks:
                if before < kink <= om or before > kink >= om:
                    located += 1
                    assert abs(om - kink) <= KINK_REL * kink, (mech, cfg)
    # 589 crossings in the 362 runs.
    assert located > len(runs)


def test_static_hold_on_insufficient_torque(leg, motor, mech_opt, deep_crouch):
    weak = motor_variant(motor, tau_peak=1e-6, p_peak=1e-6 * 160.0)
    res = simulate_jump(leg, weak, mech_opt, deep_crouch)
    assert res.terminated_by is Termination.STATIC_HOLD
    assert res.q2_at_takeoff == deep_crouch.q2_init
    assert res.t_takeoff == deep_crouch.t_max
    assert res.w_takeoff == pytest.approx(
        leg.total_mass() * leg.g * com_height(leg, -2.618), rel=1e-12)
    assert [s.t for s in res.trajectory] == [0.0, deep_crouch.t_max]
    assert all(s.dq2 == 0.0 for s in res.trajectory)
    assert res.h_jump < 0.0


def test_stall_holds_the_stall_pose(leg, motor):
    """The knee starts to extend, but the ratio falls toward zero before the
    cap (negative offset) and a weak motor stops it mid-stroke."""
    weak = motor_variant(motor, tau_peak=3.0, p_peak=3.0 * 160.0)
    mech = VrrParams(0.047, 0.150, delta_theta=math.radians(-2.5))
    cfg = SimConfig(q2_init=-0.3)
    res = simulate_jump(leg, weak, mech, cfg)
    assert res.terminated_by is Termination.STALL
    assert res.t_takeoff == cfg.t_max
    # The stall is on piece 0, where K is closed-form; its root is the
    # stall pose, -0.2355194586 rad.
    energy = energy0(leg, weak, mech, cfg.q2_init)
    pose = brentq(lambda q2: energy(q2 - cfg.q2_init)[0], -0.25, -0.22)
    assert res.q2_at_takeoff == pytest.approx(pose, abs=1e-5)
    assert res.w_takeoff == leg.total_mass() * leg.g * com_height(
        leg, res.q2_at_takeoff)
    last = res.trajectory[-1]
    assert (last.t, last.q2, last.dq2) == (cfg.t_max, res.q2_at_takeoff, 0.0)
    assert all(s.dq2 >= 0.0 for s in res.trajectory)
    scalars = simulate_jump(leg, weak, mech, cfg, record=False)
    assert (scalars.w_takeoff, scalars.q2_at_takeoff) == \
        (res.w_takeoff, res.q2_at_takeoff)


def test_stall_after_t_max_is_a_timeout(leg, motor):
    """The same stall with t_max inside the step that stalls: the stall
    bisection reaches t_max first, and the knee is still moving there."""
    weak = motor_variant(motor, tau_peak=3.0, p_peak=3.0 * 160.0)
    mech = VrrParams(0.047, 0.150, delta_theta=math.radians(-2.5))
    stalled = simulate_jump(leg, weak, mech, SimConfig(q2_init=-0.3))
    # The samples before the last two are the state the stalling step
    # starts from and the last state before the stall.
    start, last = stalled.trajectory[-3], stalled.trajectory[-2]
    cfg = SimConfig(q2_init=-0.3, t_max=0.5 * (start.t + last.t))
    res = simulate_jump(leg, weak, mech, cfg)
    assert res.terminated_by is Termination.TIMEOUT
    assert res.t_takeoff == pytest.approx(cfg.t_max, abs=1e-9)
    assert start.q2 < res.q2_at_takeoff < stalled.q2_at_takeoff
    assert res.trajectory[-1].dq2 > 0.0


def test_pre_guard_rejects_bad_offset(leg, motor, deep_crouch):
    from vrrjump import MechanismRangeError
    bad = VrrParams(0.047, 0.150, delta_theta=math.radians(-3))
    with pytest.raises(MechanismRangeError):
        simulate_jump(leg, motor, bad, deep_crouch)


def test_paper_mode_consistency(leg_paper, motor):
    """The simulator honors the alternate Jacobian convention end to end."""
    res = simulate_jump(leg_paper, motor, FrrParams(25.0),
                        SimConfig(q2_init=-2.2689), record=False)
    ys = leg_paper.standing_com_height
    assert ys == pytest.approx(2 * leg_paper.com_chain_length, rel=1e-14)
    assert res.w_takeoff >= leg_paper.total_mass() * leg_paper.g * \
        com_height(leg_paper, -2.2689) - 1e-9


@pytest.mark.parametrize("bad", [
    dict(dt=0.0), dict(t_max=1e-4), dict(q2_takeoff_cap=0.0),
    dict(q2_init=-0.01), dict(q2_init=-4.0),
    dict(dt=math.nan), dict(t_max=math.inf), dict(q2_takeoff_cap=-math.inf),
    dict(q2_init=math.nan),
])
def test_sim_config_invariants(bad):
    fields = dict(q2_init=-2.618)
    fields.update(bad)
    with pytest.raises(DomainError):
        SimConfig(**fields)


def test_takeoff_energy_never_below_initial_potential(leg, motor, deep_crouch):
    m, g = leg.total_mass(), leg.g
    floor = m * g * com_height(leg, deep_crouch.q2_init)
    for mech in (VrrParams(0.047, 0.150), VrrParams(0.035, 0.200),
                 FrrParams(22.0), FrrParams(15.0)):
        res = simulate_jump(leg, motor, mech, deep_crouch, record=False)
        assert res.w_takeoff >= floor - 1e-9
