"""Convergence census of the takeoff kernel over a configuration's full box.

Every VRR and FRR candidate of the search box is evaluated at one initial
angle with the SimConfig's u_steps and with 16 times as many, in one
optimize._run_grids call on optimize.usable_cpus() workers, and each outcome
class gets the largest relative error in W and in t against the 16n run. A
flip is a candidate whose W prints differently at the grid CSVs' 9
significant digits. The bits digest is a SHA-256 of every candidate's exact
W and t (float.hex) and ending, in grid order, one at n and one at 16n:
two kernels that print the same digests gave the same bits on the whole box.

    PYTHONPATH=src python tools/census.py --angle -2.618 [--check]

With --check the exit status is 1 when any class's W or t error exceeds
1e-10, a candidate changes class between n and 16n, an optimum moves, or no
angle-cap W differs between n and 16n (the refined count did not reach the
kernel). The classes are the kernel's Termination values and range_fail.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.resources
import sys

from vrrjump import Termination, VrrJumpError, load_config
from vrrjump.optimize import (_frr_candidates, _run_grids, _vrr_candidates,
                              usable_cpus)
from vrrjump.report import fmt

REFINE = 16
CLASSES = (*(how.value for how in Termination), "range_fail")
# The bound on every class's relative W and t error.
BOUND = 1e-10


def ending(rec) -> str:
    """A candidate's class: its Termination value, or range_fail."""
    return rec.terminated_by.value if rec.feasible else "range_fail"


def bits(results) -> str:
    """The SHA-256 of the exact W, t and ending of every candidate of the
    grid results, in order."""
    digest = hashlib.sha256()
    for result in results:
        for rec in result.evaluations:
            digest.update(f"{rec.w_takeoff.hex()} {rec.t_takeoff.hex()} "
                          f"{ending(rec)}\n".encode())
    return digest.hexdigest()


def census(cfg) -> dict:
    """Per class: count, max W error, max t error and flips; the candidates
    that change class and the grids whose optimum moves; and the bits
    digests at n and 16n."""
    n = cfg.sim.u_steps
    sims = [dataclasses.replace(cfg.sim, u_steps=s) for s in (n, REFINE * n)]
    grids = [(sim, mechs) for mechs in (_vrr_candidates(cfg.search),
                                        _frr_candidates(cfg.search))
             for sim in sims]
    results, _ = _run_grids(cfg.leg, cfg.motor, grids, usable_cpus())
    for result in results:
        if isinstance(result, VrrJumpError):
            raise result
    rows = {c: {"count": 0, "w": 0.0, "t": 0.0, "flips": 0} for c in CLASSES}
    moved_class, moved_best = [], []
    for coarse, fine in zip(results[0::2], results[1::2]):
        for rec, ref in zip(coarse.evaluations, fine.evaluations):
            how, how_ref = ending(rec), ending(ref)
            if how != how_ref:
                moved_class.append((rec.params, how, how_ref))
            row = rows[how_ref]
            row["count"] += 1
            if not ref.feasible or how != how_ref:
                continue
            w, w_ref = rec.w_takeoff, ref.w_takeoff
            row["w"] = max(row["w"], abs(w - w_ref) / w_ref)
            row["t"] = max(row["t"],
                           abs(rec.t_takeoff - ref.t_takeoff) / ref.t_takeoff)
            row["flips"] += fmt(w) != fmt(w_ref)
        if coarse.best_params != fine.best_params:
            moved_best.append((coarse.best_params, fine.best_params))
    return {"rows": rows, "moved_class": moved_class, "moved_best": moved_best,
            "bits": (bits(results[0::2]), bits(results[1::2]))}


def failures(result: dict) -> list[str]:
    out = [f"{c}: max {q} error {row[key]:.3g} > {BOUND:g}"
           for c, row in result["rows"].items()
           for q, key in zip("Wt", "wt") if row[key] > BOUND]
    out += [f"{m} is {a} at n and {b} at {REFINE}n"
            for m, a, b in result["moved_class"]]
    out += [f"optimum {a} at n, {b} at {REFINE}n"
            for a, b in result["moved_best"]]
    if result["rows"]["angle_cap"]["w"] == 0.0:
        out.append(f"no angle_cap W differs between n and {REFINE}n: the "
                   "refined step count did not reach the kernel")
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
    n = cfg.sim.u_steps
    print(f"angle {args.angle}, U_STEPS = {n}, reference {REFINE * n} steps")
    print("| class (count) | max W error | max t error | 9-digit flips |")
    print("|---|---|---|---|")
    for c, row in result["rows"].items():
        if row["count"]:
            print(f"| {c} ({row['count']}) | {row['w']:.2g} | {row['t']:.2g} "
                  f"| {row['flips']} |")
    print(f"class changes: {len(result['moved_class'])}; "
          f"optima moved: {len(result['moved_best'])}")
    for steps, digest in zip((n, REFINE * n), result["bits"]):
        print(f"bits at {steps} steps: sha256 {digest}")
    bad = failures(result)
    for line in bad:
        print("FAIL:", line)
    return 1 if args.check and bad else 0


if __name__ == "__main__":
    sys.exit(main())
