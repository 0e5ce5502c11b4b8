"""Convergence census of the takeoff kernel over a configuration's full box.

Every VRR and FRR candidate of the search box is simulated at one initial
angle with sim.U_STEPS u-steps and with 16 times as many, and each outcome
class gets the largest relative error in W and in t against the 16n run.
A flip is a candidate whose W prints differently at the grid CSVs' 9
significant digits.

    PYTHONPATH=src python tools/census.py --angle -2.618 [--check]

With --check the exit status is 1 when an angle-cap or contact-force-zero
W error exceeds 1e-10, a moving timeout's exceeds 1e-8, a candidate
changes class between n and 16n, or an optimum moves.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import sys

from vrrjump import (EvalRecord, MechanismRangeError, Termination, load_config,
                     select_best, simulate_jump)
from vrrjump import sim
from vrrjump.optimize import _frr_candidates, _vrr_candidates
from vrrjump.report import fmt

REFINE = 16
CLASSES = ("angle_cap", "contact_force_zero", "timeout_moving",
           "static_hold", "range_fail")
W_BOUND = {"angle_cap": 1e-10, "contact_force_zero": 1e-10,
           "timeout_moving": 1e-8}


def outcome(cfg, mech, steps: int):
    """(class, W, t) of one candidate with the kernel on `steps` u-steps."""
    saved, sim.U_STEPS = sim.U_STEPS, steps
    try:
        res = simulate_jump(cfg.leg, cfg.motor, mech, cfg.sim, record=False)
    except MechanismRangeError:
        return "range_fail", None, None
    finally:
        sim.U_STEPS = saved
    how = res.terminated_by
    if how is Termination.TIMEOUT:
        moved = res.q2_at_takeoff != cfg.sim.q2_init
        how = "timeout_moving" if moved else "static_hold"
    else:
        how = how.value
    return how, res.w_takeoff, res.t_takeoff


def census(cfg) -> dict:
    """Per class: count, max W error, max t error and flips; plus the
    candidates that change class and the grids whose optimum moves."""
    n = sim.U_STEPS
    rows = {c: {"count": 0, "w": 0.0, "t": 0.0, "flips": 0} for c in CLASSES}
    moved_class, moved_best = [], []
    for mechs in (_vrr_candidates(cfg.search), _frr_candidates(cfg.search)):
        records = {n: [], REFINE * n: []}
        for mech in mechs:
            how, w, t = outcome(cfg, mech, n)
            how_ref, w_ref, t_ref = outcome(cfg, mech, REFINE * n)
            for steps, ww in ((n, w), (REFINE * n, w_ref)):
                ok = ww is not None
                records[steps].append(EvalRecord(
                    mech, ww if ok else float("nan"), 0.0, ok))
            if how != how_ref:
                moved_class.append((mech, how, how_ref))
            row = rows[how_ref]
            row["count"] += 1
            if w_ref is None or how != how_ref:
                continue
            row["w"] = max(row["w"], abs(w - w_ref) / w_ref)
            row["t"] = max(row["t"], abs(t - t_ref) / t_ref)
            row["flips"] += fmt(w) != fmt(w_ref)
        best = [select_best(records[s]).params for s in (n, REFINE * n)]
        if best[0] != best[1]:
            moved_best.append(tuple(best))
    return {"rows": rows, "moved_class": moved_class, "moved_best": moved_best}


def failures(result: dict) -> list[str]:
    out = [f"{c}: max W error {result['rows'][c]['w']:.3g} > {bound:g}"
           for c, bound in W_BOUND.items() if result["rows"][c]["w"] > bound]
    out += [f"{m} is {a} at n and {b} at {REFINE}n"
            for m, a, b in result["moved_class"]]
    out += [f"optimum {a} at n, {b} at {REFINE}n"
            for a, b in result["moved_best"]]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=str(
        importlib.resources.files("vrrjump.configs") / "fullscale.json"))
    parser.add_argument("--angle", type=float, required=True,
                        help="initial knee angle in rad")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when an acceptance bound fails")
    args = parser.parse_args(argv)
    cfg = load_config(args.config)
    cfg = dataclasses.replace(
        cfg, sim=dataclasses.replace(cfg.sim, q2_init=args.angle))
    result = census(cfg)
    n = sim.U_STEPS
    print(f"angle {args.angle}, U_STEPS = {n}, reference {REFINE * n} steps")
    print("| class (count) | max W error | max t error | 9-digit flips |")
    print("|---|---|---|---|")
    for c, row in result["rows"].items():
        if row["count"]:
            print(f"| {c} ({row['count']}) | {row['w']:.2g} | {row['t']:.2g} "
                  f"| {row['flips']} |")
    print(f"class changes: {len(result['moved_class'])}; "
          f"optima moved: {len(result['moved_best'])}")
    bad = failures(result)
    for line in bad:
        print("FAIL:", line)
    return 1 if args.check and bad else 0


if __name__ == "__main__":
    sys.exit(main())
