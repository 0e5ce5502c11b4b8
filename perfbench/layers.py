"""The traced run: per-layer metrics from spans around calls into vrrjump.

Spans are recorded by this package around calls into the public functions
of each module; nothing inside the program is instrumented. The one place
where a span sits below a public call is the optimizer's per-candidate
``simulate_jump``: with one worker, ``vrrjump.optimize.simulate_jump`` is
swapped for a wrapper for the duration of a grid, so that each candidate's
time and outcome are recorded where the work happens.

Spans are kept in memory and written to a JSON file when the run ends.
The traced run is the same for every workload.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import vrrjump
import vrrjump.optimize as optimize_module
from vrrjump import (AngleRow, ComparisonReport, MechanismRangeError,
                     SimulationRangeError, Termination)

from workloads import (CONFIG_REL, GRID_ANGLE, N_FRR_FULL, N_VRR_FULL,
                       check_grid, sim_config)

ANGLE_LABELS = {-2.618: "q2m2618", -2.2689: "q2m2269", -1.9199: "q2m1920"}
OUTCOMES = ("angle_cap", "contact_force_zero", "static_hold",
            "timeout_moving", "range_fail")
BASELINE_CENSUS = {"static_hold": 283, "timeout_moving": 9}
"""Timeouts among the 1581 candidates at q2 = -2.618 on the seed."""

PER_LAYER_UNITS = {
    "leg.com_jacobian_us": "us",
    "mechanism.reduction_ratio_us": "us",
    "motor.max_torque_us": "us",
    "mechanism.ratio_curve_ms": "ms",
    **{f"sim.us_per_step.{lab}": "us" for lab in ANGLE_LABELS.values()},
    **{f"sim.steps.{lab}": "count" for lab in ANGLE_LABELS.values()},
    "sim.record_us_per_step.q2m2618": "us",
    **{f"optimize.vrr_candidates_per_s.{lab}": "1/s" for lab in ANGLE_LABELS.values()},
    **{f"optimize.frr_scan_s.{lab}": "s" for lab in ANGLE_LABELS.values()},
    "optimize.overhead_frac": "ratio",
    "optimize.candidate_ms.p50": "ms",
    "optimize.candidate_ms.max": "ms",
    **{f"optimize.outcome.{o}": "count" for o in OUTCOMES},
    "optimize.useful_frac": "ratio",
    "optimize.pool_speedup": "ratio",
    "report.trajectory_csv_ms": "ms",
    "report.emit_s": "s",
    "report.bytes_written": "bytes",
    "config.load_ms": "ms",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}

MICRO_CALLS = 10000
MICRO_REPS = 9
REPS = 15


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    attrs: dict
    end: float = float("nan")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans with parent links, written out when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent, attrs))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, sid: int) -> float:
        span = self.spans[sid]
        span.end = time.perf_counter()
        self._open.pop()
        return span.seconds

    @contextmanager
    def span(self, name: str, **attrs):
        sid = self.open(name, **attrs)
        try:
            yield sid
        finally:
            self.close(sid)

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total seconds and self seconds (total less
        the time its child spans cover)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out: dict[str, dict] = {}
        for s, c in zip(self.spans, child):
            agg = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += s.seconds
            agg["self_s"] += s.seconds - c
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"self_times": self.self_times(),
               "spans": [[s.name, s.start, s.end, s.parent, s.attrs]
                         for s in self.spans]}
        path.write_text(json.dumps(doc) + "\n")


def classify(outcome, q2_init: float) -> str:
    """Outcome class of one candidate from its simulate_jump result or error.

    A static hold is a TIMEOUT whose knee never left q2_init; a TIMEOUT whose
    knee moved is a moving timeout. Both end at t = t_max.
    """
    if isinstance(outcome, (MechanismRangeError, SimulationRangeError)):
        return "range_fail"
    if outcome.terminated_by is Termination.TIMEOUT:
        return "static_hold" if outcome.q2_at_takeoff == q2_init else "timeout_moving"
    return outcome.terminated_by.value


def grid(tracer: Tracer, fn, cfg, angle: float, workers: int):
    """One optimize_* call in a span, and with one worker each candidate's
    simulate_jump in a span of its own.

    Returns (result, seconds, {params: (result or range error, seconds)}).
    """
    outcomes: dict = {}
    # Absent once the optimizer stops calling simulate_jump per candidate;
    # the census then simulates each candidate itself.
    real = getattr(optimize_module, "simulate_jump", None)

    def traced(leg, motor, mech, sim_cfg, record=True):
        res = None
        sid = tracer.open("sim.simulate_jump")
        try:
            res = real(leg, motor, mech, sim_cfg, record=record)
            return res
        except (MechanismRangeError, SimulationRangeError) as exc:
            res = exc
            raise
        finally:
            outcomes[mech] = (res, tracer.close(sid))

    patch = workers == 1 and real is not None
    if patch:
        optimize_module.simulate_jump = traced
    try:
        with tracer.span(f"optimize.{fn.__name__}", angle=angle, workers=workers) as sid:
            opt = fn(cfg.leg, cfg.motor, sim_config(cfg, angle), cfg.search,
                     workers=workers)
    finally:
        if patch:
            optimize_module.simulate_jump = real
    return opt, tracer.spans[sid].seconds, outcomes


def census(tracer: Tracer, cfg, angle: float, evaluations, outcomes: dict):
    """Outcome counts and per-candidate seconds over a grid's candidates.

    Candidates the optimizer did not simulate through simulate_jump are
    simulated here, each in a span.
    """
    counts = dict.fromkeys(OUTCOMES, 0)
    seconds = []
    sc = sim_config(cfg, angle)
    for rec in evaluations:
        if rec.params not in outcomes:
            with tracer.span("sim.simulate_jump", census=True) as sid:
                try:
                    out = vrrjump.simulate_jump(cfg.leg, cfg.motor, rec.params,
                                                sc, record=False)
                except (MechanismRangeError, SimulationRangeError) as exc:
                    out = exc
            outcomes[rec.params] = (out, tracer.spans[sid].seconds)
        out, sec = outcomes[rec.params]
        counts[classify(out, angle)] += 1
        seconds.append(sec)
    return counts, seconds


def grid_layers(tracer: Tracer, cfg, full_cfg, nproc: int, out: Path):
    """Replay compare_designs' sequence with nproc workers on the benchmark's
    box (cfg), then the deepest angle's VRR grid with one worker on the same
    box, and its two grids with one worker on fullscale.json's full box
    (full_cfg) for the census.

    Returns (metrics, problems, replay seconds, seconds of the one-worker
    full-box grids).
    """
    m: dict[str, float] = {}
    problems: list[str] = []
    rows = []
    t0 = time.perf_counter()
    for angle in sorted(cfg.angles):
        lab = ANGLE_LABELS[angle]
        vrr, vrr_s, _ = grid(tracer, vrrjump.optimize_vrr, cfg, angle, nproc)
        frr, frr_s, _ = grid(tracer, vrrjump.optimize_frr, cfg, angle, nproc)
        sc = sim_config(cfg, angle)
        with tracer.span("sim.simulate_jump", angle=angle, record=True):
            vrr_takeoff = vrrjump.simulate_jump(cfg.leg, cfg.motor, vrr.best_params, sc)
        with tracer.span("sim.simulate_jump", angle=angle, record=True):
            frr_takeoff = vrrjump.simulate_jump(cfg.leg, cfg.motor, frr.best_params, sc)
        rows.append(AngleRow(
            angle=angle, vrr=vrr, frr=frr, vrr_takeoff=vrr_takeoff,
            frr_takeoff=frr_takeoff,
            improvement_pct=100.0 * (vrr.h_jump - frr.h_jump) / frr.h_jump))
        problems += check_grid(vrr, frr, angle)
        m[f"optimize.vrr_candidates_per_s.{lab}"] = len(vrr.evaluations) / vrr_s
        m[f"optimize.frr_scan_s.{lab}"] = frr_s
        if angle == GRID_ANGLE:
            pooled_s = vrr_s
    report = ComparisonReport(rows=rows, leg=cfg.leg, metadata={
        "config_sha256": cfg.config_hash,
        "resolved_config": cfg.resolved_doc,
        "wall_time_s": round(time.perf_counter() - t0, 3),
    })
    with tracer.span("report.emit_report") as sid:
        manifest = vrrjump.emit_report(report, out)
    replay_s = time.perf_counter() - t0
    m["report.emit_s"] = tracer.spans[sid].seconds
    m["report.bytes_written"] = sum(p.stat().st_size for p in manifest)

    _, serial_s, _ = grid(tracer, vrrjump.optimize_vrr, cfg, GRID_ANGLE, 1)
    m["optimize.pool_speedup"] = serial_s / pooled_s

    vrr, full_s, outcomes = grid(tracer, vrrjump.optimize_vrr, full_cfg, GRID_ANGLE, 1)
    frr, frr_s, _ = grid(tracer, vrrjump.optimize_frr, full_cfg, GRID_ANGLE, 1)
    problems += check_grid(vrr, frr, GRID_ANGLE, N_VRR_FULL, N_FRR_FULL)
    m["optimize.overhead_frac"] = 1.0 - sum(s for _, s in outcomes.values()) / full_s

    counts, seconds = census(tracer, full_cfg, GRID_ANGLE, vrr.evaluations, outcomes)
    for name, n in counts.items():
        m[f"optimize.outcome.{name}"] = n
    m["optimize.useful_frac"] = (counts["angle_cap"] + counts["contact_force_zero"]) / len(seconds)
    m["optimize.candidate_ms.p50"] = statistics.median(seconds) * 1e3
    m["optimize.candidate_ms.max"] = max(seconds) * 1e3
    if sum(counts.values()) != N_VRR_FULL or any(
            counts[k] != v for k, v in BASELINE_CENSUS.items()):
        problems.append(f"census {counts} differs from the baseline "
                        f"{BASELINE_CENSUS} of {N_VRR_FULL}")
    return m, problems, replay_s, full_s + frr_s


def _median_s(tracer: Tracer, name: str, fn, reps: int = REPS, **attrs) -> float:
    times = []
    for _ in range(reps):
        with tracer.span(name, **attrs) as sid:
            fn()
        times.append(tracer.spans[sid].seconds)
    return statistics.median(times)


def _per_call_us(tracer: Tracer, name: str, fn, first, xs: list[float]) -> float:
    """Median over repetitions of the time per scalar call fn(first, x)."""
    loops = MICRO_CALLS // len(xs)

    def batch():
        for _ in range(loops):
            for x in xs:
                fn(first, x)
    return _median_s(tracer, name, batch, MICRO_REPS) / (loops * len(xs)) * 1e6


def single_layers(tracer: Tracer, cfg, root: Path, env: dict, out: Path) -> dict:
    """RHS ingredients, stepping, recording, ratio sweep, emission, start-up."""
    m: dict[str, float] = {}
    mech, leg, motor = cfg.mechanism, cfg.leg, cfg.motor
    cap = cfg.sim.q2_takeoff_cap
    q2s = [GRID_ANGLE + (cap - GRID_ANGLE) * i / 499 for i in range(500)]
    omegas = [motor.omega_max * i / 499 for i in range(500)]
    m["leg.com_jacobian_us"] = _per_call_us(
        tracer, "leg.com_jacobian", vrrjump.com_jacobian, leg, q2s)
    m["mechanism.reduction_ratio_us"] = _per_call_us(
        tracer, "mechanism.reduction_ratio", vrrjump.reduction_ratio, mech, q2s)
    m["motor.max_torque_us"] = _per_call_us(
        tracer, "motor.max_torque", vrrjump.max_torque, motor, omegas)
    m["mechanism.ratio_curve_ms"] = 1e3 * _median_s(
        tracer, "mechanism.ratio_curve",
        lambda: vrrjump.ratio_curve(mech, GRID_ANGLE, cap, 200), reps=4 * REPS)

    for angle, lab in ANGLE_LABELS.items():
        sc = sim_config(cfg, angle)
        with tracer.span("sim.simulate_jump", angle=angle, record=True):
            recorded = vrrjump.simulate_jump(leg, motor, mech, sc, record=True)
        steps = len(recorded.trajectory) - 1
        m[f"sim.steps.{lab}"] = steps
        m[f"sim.us_per_step.{lab}"] = 1e6 / steps * _median_s(
            tracer, "sim.simulate_jump",
            lambda: vrrjump.simulate_jump(leg, motor, mech, sc, record=False),
            angle=angle, record=False)
        if angle == GRID_ANGLE:
            m[f"sim.record_us_per_step.{lab}"] = 1e6 / steps * _median_s(
                tracer, "sim.simulate_jump",
                lambda: vrrjump.simulate_jump(leg, motor, mech, sc, record=True),
                angle=angle, record=True)
            deep = recorded
    path = out / "trajectory_probe.csv"
    m["report.trajectory_csv_ms"] = 1e3 * _median_s(
        tracer, "report.write_trajectory_csv",
        lambda: vrrjump.write_trajectory_csv(path, leg, mech, deep))

    cfg_path = root / CONFIG_REL
    m["config.load_ms"] = 1e3 * _median_s(
        tracer, "config.load_config", lambda: vrrjump.load_config(cfg_path),
        reps=4 * REPS)
    argv = [sys.executable, "-m", "vrrjump", "--help"]
    m["cli.startup_s"] = _median_s(
        tracer, "cli.startup",
        lambda: subprocess.run(argv, cwd=root, env=env, check=True,
                               stdout=subprocess.DEVNULL))
    return m


def span_cost_s(reps: int = 9, n: int = 10000) -> float:
    """Median seconds to open and close one span, on a tracer of its own."""
    times = []
    for _ in range(reps):
        tracer = Tracer()
        t0 = time.perf_counter()
        for _ in range(n):
            tracer.close(tracer.open("probe"))
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def run_traced(cfg, root: Path, env: dict, out: Path, nproc: int):
    """The traced run on the benchmark's config. It is the same for every
    workload, so that each workload's traced run reports every per-layer
    metric.

    Returns (metrics, attempted, failed, detail, tracer).
    """
    tracer = Tracer()
    m = single_layers(tracer, cfg, root, env, out)
    full_cfg = vrrjump.load_config(root / CONFIG_REL)
    grid_m, problems, replay_s, serial_s = grid_layers(
        tracer, cfg, full_cfg, nproc, out / "replay")
    m.update(grid_m)
    m["trace.overhead_s"] = len(tracer.spans) * span_cost_s()
    detail = {
        "replay_s": replay_s,
        "one_worker_grids_s": serial_s,
        "spans": len(tracer.spans),
        "census": {o: m[f"optimize.outcome.{o}"] for o in OUTCOMES},
        "problems": problems,
    }
    metrics = {name: {"value": m[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    return metrics, 1, 1 if problems else 0, detail, tracer
