"""The three benchmark workloads and the checks their outputs must pass.

Every workload runs on the shipped ``fullscale.json`` with its search box
replaced by ``BOX``: a regular sub-grid of the full box, one candidate in
14, that spans 29-74 of its 25-75 mm in r, all of S0, and holds the
reference design and the optimum at q2 = -2.618. A grid over the full box
takes 25-40 s, so a run could time it only once; on the sub-grid a 30 s run
times 5 to 20 operations. ``bench_config`` writes that config; the traced
run still takes the census over the full box.

One call of an ``op_*`` function is one operation of the closed loop; it
returns an ``OpResult`` whose ``problems`` list is empty when every output
is correct.

Expected values were recorded from the seed's fixed-step RK4 (dt = 1e-4 s).
Each takeoff energy is stored as a pair: the seed value and the dt -> 0
converged value (RK4 at dt = 5e-6 s, where every best design below is the
same). A reported energy passes when it lies between the two, widened by
``W_SLACK_REL``, so a more accurate integrator passes and a wrong one does
not.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import vrrjump
from vrrjump import SimConfig, Termination, VrrParams

CONFIG_REL = Path("src") / "vrrjump" / "configs" / "fullscale.json"
GRID_ANGLE = -2.618

W_REF_CONVERGED = 359.45730
"""Converged takeoff energy (J) of the reference design at q2 = -2.618."""

W_SLACK_REL = 1e-6
RATIO_SAMPLES = 200

BOX = {
    "r_mm": [29.0, 74.0, 3.0],
    "s0_mm": [100.0, 250.0, 25.0],
    "delta_theta_deg": [0.0, 0.0, 1.0],
    "k_fixed": [11.0, 39.0, 4.0],
}
"""Search box of every workload: 16 x 7 VRR and 8 FRR candidates."""
N_VRR = 112
N_FRR = 8
N_VRR_FULL = 1581
N_FRR_FULL = 31
"""Candidates of fullscale.json's own box, used by the traced census."""

# angle -> (seed W, converged W) in J for the configured reference design
# (r = 47 mm, S0 = 150 mm, offset 0) and for the optimum in BOX; optima as
# (r_mm, s0_mm, dtheta_deg) and k_fixed. At -2.618 the optima in BOX are
# those of the full box.
EXPECTED = {
    -2.618: {
        "ref": (359.4703755, 359.4573038),
        "vrr": ((50.0, 100.0, 0.0), 363.3421826, 363.3280758),
        "frr": (23.0, 327.3413823, 327.3413864),
    },
    -2.2689: {
        "ref": (349.1014245, 349.0901979),
        "vrr": ((53.0, 100.0, 0.0), 351.3604426, 351.3482878),
        "frr": (23.0, 314.3361749, 314.3361794),
    },
    -1.9199: {
        "ref": (331.9053744, 331.8966017),
        "vrr": ((56.0, 100.0, 0.0), 334.3091400, 334.3000509),
        "frr": (23.0, 300.2701940, 300.2701957),
    },
}
REF_DESIGN_MM = (47.0, 150.0, 0.0)

# ratio_curve over [angle, cap]: the interior peak, cos(theta*) = r/(S0+r).
K_MAX = 29.530970943743746
ARGMAX_Q2 = -1.8116984743103988


@dataclass
class OpResult:
    """One operation: its wall time, work done and correctness problems."""

    wall_s: float
    candidates: int
    w_ref: float
    problems: list[str] = field(default_factory=list)


def bench_config(root: Path, dest: Path) -> Path:
    """Write fullscale.json with its search box replaced by BOX to dest."""
    doc = json.loads((root / CONFIG_REL).read_text())
    doc["search"] = BOX
    dest.write_text(json.dumps(doc, indent=1) + "\n")
    return dest


def w_ok(w: float, seed_w: float, conv_w: float) -> bool:
    """True when w lies between the seed and converged energies (+ slack)."""
    slack = W_SLACK_REL * abs(conv_w)
    return min(seed_w, conv_w) - slack <= w <= max(seed_w, conv_w) + slack


def w_ref_err_rel(w: float) -> float:
    return abs(w - W_REF_CONVERGED) / W_REF_CONVERGED


def sim_config(cfg, angle: float) -> SimConfig:
    """SimConfig for one initial angle, built from the config's sim section."""
    s = cfg.sim
    return SimConfig(q2_init=angle, dt=s.dt, t_max=s.t_max,
                     q2_takeoff_cap=s.q2_takeoff_cap,
                     takeoff_rule=s.takeoff_rule)


def _close(a: float, b: float, tol: float = 1e-6) -> bool:
    return abs(a - b) <= tol


def _design_mm(p: VrrParams) -> tuple[float, float, float]:
    return (p.r * 1000.0, p.s0 * 1000.0, math.degrees(p.delta_theta))


def _check_w(problems: list[str], what: str, w: float, pair) -> None:
    if not w_ok(w, *pair):
        problems.append(f"{what}: W={w!r} outside [{pair[0]}, {pair[1]}]")


def seeded_order(items, seed: int) -> list:
    """The items in an order drawn from the seed; outputs must not depend on it."""
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------- grid-deep

def op_grid_deep(cfg, seed: int) -> OpResult:
    """VRR grid plus FRR scan over BOX at the deepest crouch, one process."""
    sc = sim_config(cfg, GRID_ANGLE)
    runs = {"vrr": vrrjump.optimize_vrr, "frr": vrrjump.optimize_frr}
    results = {}
    t0 = time.perf_counter()
    for joint in seeded_order(runs, seed):
        results[joint] = runs[joint](cfg.leg, cfg.motor, sc, cfg.search, workers=1)
    wall = time.perf_counter() - t0
    problems = check_grid(results["vrr"], results["frr"], GRID_ANGLE)
    ref = [e for e in results["vrr"].evaluations
           if all(map(_close, _design_mm(e.params), REF_DESIGN_MM))]
    if len(ref) != 1:
        problems.append(f"reference design found {len(ref)} times in the grid")
        w_ref = math.nan
    else:
        w_ref = ref[0].w_takeoff
        _check_w(problems, "reference design", w_ref, EXPECTED[GRID_ANGLE]["ref"])
    n = len(results["vrr"].evaluations) + len(results["frr"].evaluations)
    return OpResult(wall, n, w_ref, problems)


def check_grid(vrr, frr, angle: float, n_vrr: int = N_VRR,
               n_frr: int = N_FRR) -> list[str]:
    """Best designs, energies and outcome totals of one angle's two grids."""
    exp = EXPECTED[angle]
    problems = []
    for joint, opt, n in (("vrr", vrr, n_vrr), ("frr", frr, n_frr)):
        feasible = sum(1 for e in opt.evaluations if e.feasible)
        if len(opt.evaluations) != n or feasible + opt.n_infeasible != n:
            problems.append(f"{joint}: {len(opt.evaluations)} evaluations, "
                            f"{feasible} feasible + {opt.n_infeasible} "
                            f"infeasible, expected {n}")
        if opt.n_infeasible != 0:
            problems.append(f"{joint}: {opt.n_infeasible} infeasible, expected 0")
    design, *w_pair = exp["vrr"]
    if not all(map(_close, _design_mm(vrr.best_params), design)):
        problems.append(f"vrr best {_design_mm(vrr.best_params)} != {design}")
    _check_w(problems, "vrr best", vrr.w_takeoff, w_pair)
    k, *w_pair = exp["frr"]
    if not _close(frr.best_params.k_fixed, k):
        problems.append(f"frr best k={frr.best_params.k_fixed} != {k}")
    _check_w(problems, "frr best", frr.w_takeoff, w_pair)
    return problems


# -------------------------------------------------------------- compare-cli

def op_compare_cli(root: Path, config: Path, out: Path, workers: int,
                   env: dict, timeout_s: float) -> tuple[OpResult, dict[str, str]]:
    """``vrrjump compare --dump-grid`` on the given config as a child process.

    Returns the operation and the sha256 of every output file except
    metadata.json, the one file whose content varies between runs.
    """
    argv = [sys.executable, "-m", "vrrjump", "compare",
            "--config", str(config), "--workers", str(workers),
            "--dump-grid", "--out", str(out)]
    t0 = time.perf_counter()
    # A session of its own, so that a timeout also ends the pool's workers.
    with subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return (OpResult(wall, 0, math.nan,
                         [f"exit {proc.returncode}: {err.strip()[-500:]}"]), {})
    problems: list[str] = []
    candidates = 0
    w_ref = math.nan
    for angle in EXPECTED:
        label = f"{angle:.4f}"
        grids = {}
        for joint, n in (("vrr", N_VRR), ("frr", N_FRR)):
            grids[joint] = _read_csv(out / f"grid_{joint}_{label}.csv", problems)
            candidates += len(grids[joint])
            if len(grids[joint]) != n:
                problems.append(f"grid_{joint}_{label}.csv has "
                                f"{len(grids[joint])} rows, expected {n}")
        ref = [r for r in grids["vrr"]
               if all(map(_close, (float(r["r_mm"]), float(r["s0_mm"]),
                                   float(r["dtheta_deg"])), REF_DESIGN_MM))]
        if len(ref) != 1:
            problems.append(f"{label}: reference design found {len(ref)} times")
            continue
        w = float(ref[0]["w_takeoff_j"])
        _check_w(problems, f"{label} reference design", w, EXPECTED[angle]["ref"])
        if angle == GRID_ANGLE:
            w_ref = w
    problems += check_summary(_read_csv(out / "summary.csv", problems))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())
               if p.is_file() and p.name != "metadata.json"}
    return OpResult(wall, candidates, w_ref, problems), digests


def check_summary(rows: list[dict]) -> list[str]:
    """Best design and energy per angle and joint in summary.csv."""
    problems = []
    seen = set()
    for row in rows:
        angle = next((a for a in EXPECTED if _close(float(row["angle_rad"]), a)), None)
        if angle is None or row["error"]:
            problems.append(f"unexpected summary row {row}")
            continue
        joint = "vrr" if row["joint_type"] == "evrr" else row["joint_type"]
        seen.add((angle, joint))
        exp = EXPECTED[angle][joint]
        if joint == "vrr":
            got = (float(row["r_mm"]), float(row["s0_mm"]), float(row["dtheta_deg"]))
            ok = all(map(_close, got, exp[0]))
        else:
            got = float(row["k_fixed"])
            ok = _close(got, exp[0])
        if not ok:
            problems.append(f"{angle} {joint}: best {got} != {exp[0]}")
        _check_w(problems, f"{angle} {joint} best", float(row["w_takeoff_j"]), exp[1:])
    missing = {(a, j) for a in EXPECTED for j in ("vrr", "frr")} - seen
    if missing:
        problems.append(f"summary.csv lacks rows {sorted(missing)}")
    return problems


def _read_csv(path: Path, problems: list[str]) -> list[dict]:
    try:
        with path.open(newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        problems.append(f"cannot read {path.name}: {exc}")
        return []


# --------------------------------------------------------------- trajectory

def op_trajectory(cfg, out: Path, seed: int) -> OpResult:
    """Recorded takeoff, trajectory CSV and ratio curve at every angle."""
    mech = cfg.mechanism
    cap = cfg.sim.q2_takeoff_cap
    results = {}
    t0 = time.perf_counter()
    for angle in seeded_order(cfg.angles, seed):
        res = vrrjump.simulate_jump(cfg.leg, cfg.motor, mech, sim_config(cfg, angle))
        path = out / f"trajectory_{angle:.4f}.csv"
        vrrjump.write_trajectory_csv(path, cfg.leg, mech, res)
        curve = vrrjump.ratio_curve(mech, angle, cap, RATIO_SAMPLES)
        # Keep no trajectory past its angle, so that peak memory does not
        # depend on the seeded order.
        results[angle] = (res.w_takeoff, res.terminated_by,
                          len(res.trajectory), path, curve)
        del res
    wall = time.perf_counter() - t0
    problems = []
    for angle, (w, terminated_by, samples, path, curve) in results.items():
        _check_w(problems, f"{angle} simulate", w, EXPECTED[angle]["ref"])
        if terminated_by is not Termination.ANGLE_CAP:
            problems.append(f"{angle}: terminated by {terminated_by}")
        with path.open() as fh:
            lines = sum(1 for _ in fh)
        if lines != samples + 1 or samples < 2:
            problems.append(f"{path.name}: {lines} lines for {samples} samples")
        if len(curve.samples) != RATIO_SAMPLES:
            problems.append(f"{angle}: ratio curve has {len(curve.samples)} samples")
        if abs(curve.k_max - K_MAX) > 1e-9 * K_MAX or abs(curve.argmax_q2 - ARGMAX_Q2) > 1e-5:
            problems.append(f"{angle}: ratio peak {curve.k_max} at "
                            f"{curve.argmax_q2}, expected {K_MAX} at {ARGMAX_Q2}")
    w_ref = results[GRID_ANGLE][0]
    return OpResult(wall, len(results), w_ref, problems)
