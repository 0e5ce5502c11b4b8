"""Exhaustive mechanism-parameter search maximizing takeoff energy.

Candidates are evaluated on a fixed grid (row-major over r, S0, delta_theta
for the variable-ratio joint, or over k for the fixed-ratio baseline).
A candidate whose crank angle leaves the working range is recorded
infeasible, out of the argmax; ties go to the smallest (r, S0, |delta_theta|).

Evaluations are independent; with workers > 1 they run on one process pool
per command, one Executor.map per grid, and the aggregated result is
identical to a sequential run.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, replace
from itertools import repeat

from .errors import DomainError, NoFeasibleDesignError, VrrJumpError
from .leg import LegModel
from .mechanism import FrrParams, MechanismRangeError, VrrParams
from .motor import MotorParams
from .sim import SimConfig, TakeoffResult, Termination, simulate_jump

log = logging.getLogger(__name__)

MAX_CANDIDATES = 1_000_000
"""Largest grid a SearchBox may span, per joint type, checked before any
candidate list is built."""


@dataclass(frozen=True)
class SearchBox:
    """Inclusive (min, max, step) ranges for each design axis, SI units."""

    r_range: tuple[float, float, float]
    s0_range: tuple[float, float, float]
    dtheta_range: tuple[float, float, float]
    frr_range: tuple[float, float, float]

    def __post_init__(self):
        for name in ("r_range", "s0_range", "dtheta_range", "frr_range"):
            lo, hi, step = getattr(self, name)
            if not all(map(math.isfinite, (lo, hi, step))):
                raise DomainError(f"{name}: {(lo, hi, step)} must be finite")
            if lo > hi:
                raise DomainError(f"{name}: min {lo} exceeds max {hi}")
            if step <= 0:
                raise DomainError(f"{name}: step {step} must be positive")
        for names in (("r_range", "s0_range", "dtheta_range"), ("frr_range",)):
            count = math.prod(_axis_len(getattr(self, name)) for name in names)
            if count > MAX_CANDIDATES:
                raise DomainError(
                    f"{' x '.join(names)} span {count:.7g} candidates, "
                    f"more than the limit of {MAX_CANDIDATES}")


def _axis_len(rng: tuple[float, float, float]) -> float:
    """Number of values on an inclusive (min, max, step) axis; inf when the
    span overflows a float."""
    lo, hi, step = rng
    span = (hi - lo) / step + 1e-9
    return math.floor(span) + 1.0 if math.isfinite(span) else span


def _axis(rng: tuple[float, float, float]) -> list[float]:
    lo, _, step = rng
    return [lo + i * step for i in range(int(_axis_len(rng)))]


@dataclass(frozen=True)
class EvalRecord:
    """Outcome of one candidate; when infeasible, w/h/t are NaN and
    terminated_by is None."""

    params: VrrParams | FrrParams
    w_takeoff: float
    h_jump: float
    feasible: bool
    terminated_by: Termination | None = None
    t_takeoff: float = math.nan


@dataclass
class OptResult:
    best_params: VrrParams | FrrParams
    w_takeoff: float
    h_jump: float
    evaluations: list[EvalRecord]
    n_infeasible: int


def _evaluate(leg: LegModel, motor: MotorParams, cfg: SimConfig,
              mech: VrrParams | FrrParams) -> tuple:
    try:
        res = simulate_jump(leg, motor, mech, cfg, record=False)
    except MechanismRangeError:
        return (math.nan, math.nan, False)
    return (res.w_takeoff, res.h_jump, True, res.terminated_by, res.t_takeoff)


def _run_grids(leg, motor, grids: list[tuple[SimConfig, list]],
               workers: int) -> tuple[list[OptResult | VrrJumpError], int]:
    """Evaluate every (cfg, candidates) grid of a command.

    Returns each grid's OptResult, or the package error that its evaluations
    or select_best raised, in order, and the number of processes used:
    workers clamped to the CPUs and to the largest grid. With one process
    every grid runs here. Otherwise one pool maps each grid in chunks of an
    eighth of a process's share. Executor.map submits every chunk at once,
    so no grid waits for the one before it to drain.
    """
    processes = min(workers, os.cpu_count() or 1,
                    max((len(mechs) for _, mechs in grids), default=1))
    if processes <= 1:
        return [_optimum(mechs, map(_evaluate, repeat(leg), repeat(motor),
                                    repeat(cfg), mechs))
                for cfg, mechs in grids], 1
    # Imported here: the pool pulls in multiprocessing, which a run on one
    # process never needs.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=processes) as pool:
        outs = [pool.map(_evaluate, repeat(leg), repeat(motor), repeat(cfg),
                         mechs, chunksize=-(-len(mechs) // (8 * processes)))
                for cfg, mechs in grids]
        return [_optimum(mechs, out)
                for (_, mechs), out in zip(grids, outs)], processes


def _tie_key(params: VrrParams | FrrParams) -> tuple:
    if isinstance(params, FrrParams):
        return (params.k_fixed,)
    return (params.r, params.s0, abs(params.delta_theta), params.delta_theta)


def select_best(evaluations: list[EvalRecord]) -> EvalRecord:
    """Feasible record with maximal energy; ties go to the smallest params."""
    best = min((rec for rec in evaluations if rec.feasible), default=None,
               key=lambda rec: (-rec.w_takeoff, *_tie_key(rec.params)))
    if best is None:
        raise NoFeasibleDesignError(
            f"all {len(evaluations)} candidates failed the feasibility guard")
    return best


def _optimum(mechs, outs) -> OptResult | VrrJumpError:
    """A grid's optimum from its candidates and their evaluations (an
    iterable read in order), or the package error that an evaluation or
    select_best raised."""
    try:
        evaluations = [EvalRecord(m, *out) for m, out in zip(mechs, outs)]
        best = select_best(evaluations)
    except VrrJumpError as exc:
        return exc
    return OptResult(best_params=best.params, w_takeoff=best.w_takeoff,
                     h_jump=best.h_jump, evaluations=evaluations,
                     n_infeasible=sum(1 for r in evaluations if not r.feasible))


def _vrr_candidates(box: SearchBox) -> list[VrrParams]:
    return [VrrParams(r=r, s0=s0, delta_theta=dth)
            for r in _axis(box.r_range)
            for s0 in _axis(box.s0_range)
            for dth in _axis(box.dtheta_range)]


def _frr_candidates(box: SearchBox) -> list[FrrParams]:
    return [FrrParams(k_fixed=k) for k in _axis(box.frr_range)]


def _search(leg: LegModel, motor: MotorParams, cfg: SimConfig, mechs: list,
            joint: str, workers: int) -> OptResult:
    """The optimum of one grid; its error, if any, is raised."""
    log.info("evaluating %d %s candidates (q2_init=%.4f)",
             len(mechs), joint, cfg.q2_init)
    [result], _ = _run_grids(leg, motor, [(cfg, mechs)], workers)
    if isinstance(result, VrrJumpError):
        raise result
    return result


def optimize_vrr(leg: LegModel, motor: MotorParams, cfg: SimConfig,
                 box: SearchBox, workers: int = 1) -> OptResult:
    """Grid-search (r, S0, delta_theta) for maximum takeoff energy."""
    return _search(leg, motor, cfg, _vrr_candidates(box), "variable-ratio", workers)


def optimize_frr(leg: LegModel, motor: MotorParams, cfg: SimConfig,
                 box: SearchBox, workers: int = 1) -> OptResult:
    """Scan the scalar fixed reduction ratio for maximum takeoff energy."""
    return _search(leg, motor, cfg, _frr_candidates(box), "fixed-ratio", workers)


@dataclass
class AngleRow:
    """Per-initial-angle comparison of the two optimized joints.

    improvement_pct is None unless the fixed-ratio height is positive.
    """

    angle: float
    vrr: OptResult | None = None
    frr: OptResult | None = None
    vrr_takeoff: TakeoffResult | None = None
    frr_takeoff: TakeoffResult | None = None
    improvement_pct: float | None = None
    error: str | None = None


@dataclass
class ComparisonReport:
    """The rows of a comparison. cap is the configured q2_takeoff_cap, where
    every row's ratio curve ends."""

    rows: list[AngleRow]
    leg: LegModel
    metadata: dict
    cap: float = SimConfig.q2_takeoff_cap


def compare_designs(leg: LegModel, motor: MotorParams, base_cfg: SimConfig,
                    box: SearchBox, angles: list[float],
                    workers: int = 1) -> ComparisonReport:
    """Optimize both joint types at each initial angle and compare heights.

    Rows are ordered deepest crouch first. Every angle's grids are evaluated
    in one batch (one pool when workers > 1) before the first row is
    finished, and each row keeps every optimum its grids found. The first
    error at an angle (a bad angle, or a package error from a grid or a
    re-simulation) goes to that row's error field, leaves the row without
    takeoffs or improvement, and does not abort the remaining angles. The
    optimal candidates are re-simulated with trajectory recording so reports
    can emit the per-channel curves. The report's metadata holds the
    processes used and the number of candidates evaluated.
    """
    def fail(row: AngleRow, exc: Exception) -> None:
        row.error = f"{type(exc).__name__}: {exc}"
        log.warning("angle %.4f failed: %s", row.angle, row.error)

    vrr_mechs, frr_mechs = _vrr_candidates(box), _frr_candidates(box)
    rows, pending, grids = [], [], []
    for angle in sorted(angles):
        row = AngleRow(angle=angle)
        rows.append(row)
        try:
            cfg = replace(base_cfg, q2_init=angle)
        except DomainError as exc:
            fail(row, exc)
            continue
        log.info("angle %.4f: evaluating %d variable-ratio and %d fixed-ratio "
                 "candidates", angle, len(vrr_mechs), len(frr_mechs))
        pending.append((row, cfg))
        grids += [(cfg, vrr_mechs), (cfg, frr_mechs)]
    results, processes = _run_grids(leg, motor, grids, workers)

    for (row, cfg), *pair in zip(pending, results[0::2], results[1::2]):
        row.vrr, row.frr = (r if isinstance(r, OptResult) else None for r in pair)
        try:
            for result in pair:
                if isinstance(result, VrrJumpError):
                    raise result
            row.vrr_takeoff, row.frr_takeoff = (
                simulate_jump(leg, motor, opt.best_params, cfg)
                for opt in (row.vrr, row.frr))
            if row.frr.h_jump > 0:
                row.improvement_pct = 100.0 * (row.vrr.h_jump - row.frr.h_jump) / row.frr.h_jump
            log.info("angle %.4f: vrr h=%.4f m, frr h=%.4f m",
                     row.angle, row.vrr.h_jump, row.frr.h_jump)
        except VrrJumpError as exc:
            fail(row, exc)
    return ComparisonReport(rows=rows, leg=leg, metadata={
        "workers": processes,
        "n_candidates": sum(len(mechs) for _, mechs in grids)},
        cap=base_cfg.q2_takeoff_cap)
