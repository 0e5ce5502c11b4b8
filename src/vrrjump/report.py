"""Report and plot-data emission: CSV/JSON files from comparison results.

All numeric CSV fields are written with 9 significant digits in C locale
formatting, so re-running an identical configuration reproduces every CSV
byte for byte. metadata.json is the only file with run-varying content
(timestamp and wall time).
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import json
import logging
import sys
from pathlib import Path

from .errors import DomainError
from .leg import LegModel, jacobian
from .mechanism import DEG, FrrParams, VrrParams, crank_offset, ratio_curve
from .motor import RPM_PER_RADS
from .optimize import ComparisonReport, OptResult
from .sim import TakeoffResult

log = logging.getLogger(__name__)

RATIO_SAMPLES = 400

TRAJECTORY_COLUMNS = [
    "t_s", "q2_rad", "dq2_rads", "theta_rad", "k", "lambda_radpm",
    "tau_m_nm", "tau_j_nm", "omega_m_rpm", "p_m_w", "p_j_w",
    "y_com_m", "dy_com_mps", "f_contact_n", "w_motor_j",
]


def angle_label(angle: float) -> str:
    """An initial angle as output file names carry it: rad, 4 decimals."""
    return f"{angle:.4f}"


def check_angle_labels(angles) -> None:
    """Raise DomainError when two angles share an output file label, so
    that one angle's files would overwrite the other's."""
    labelled = {}
    for angle in angles:
        if (label := angle_label(angle)) in labelled:
            raise DomainError(f"angles {labelled[label]} and {angle} share "
                              f"the output file label {label}")
        labelled[label] = angle


def fmt(value: float | None) -> str:
    """Canonical numeric cell: 9 significant digits, empty for missing."""
    if value is None:
        return ""
    return f"{value:.9g}"


def trajectory_rows(leg: LegModel, mech: VrrParams | FrrParams,
                    result: TakeoffResult) -> list[list[str]]:
    """Render a recorded trajectory as CSV cells in the canonical column order.

    A fixed ratio has no crank: its theta cells are empty. Samples lie in
    [q2_init, cap] within [-pi, 0], so 1 / J takes the unchecked jacobian.
    """
    jfac = leg.jacobian_scale
    th_off = crank_offset(mech) if isinstance(mech, VrrParams) else None
    return [[fmt(s.t), fmt(s.q2), fmt(s.dq2),
             fmt(None if th_off is None else s.q2 + th_off),
             fmt(s.k), fmt(1.0 / jacobian(jfac, s.q2)),
             fmt(s.tau_m), fmt(s.tau_j), fmt(s.omega_m * RPM_PER_RADS),
             fmt(s.p_m), fmt(s.p_j), fmt(s.y_com), fmt(s.dy_com),
             fmt(s.f_contact), fmt(s.w_motor)]
            for s in result.trajectory]


def write_csv(path: Path | None, header: list[str], rows) -> None:
    """Write a header and rows to path, or to standard output when it is None."""
    with (path.open("w", newline="") if path is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory_csv(path: Path, leg: LegModel,
                         mech: VrrParams | FrrParams,
                         result: TakeoffResult) -> None:
    write_csv(path, TRAJECTORY_COLUMNS, trajectory_rows(leg, mech, result))


def write_ratio_csv(path: Path, mech: VrrParams, samples) -> None:
    th_off = crank_offset(mech)
    write_csv(path, ["q2_rad", "theta_rad", "k"],
              ([fmt(q2), fmt(q2 + th_off), fmt(k)] for q2, k in samples))


def write_envelope_csv(path: Path | None, table) -> None:
    write_csv(path, ["omega_rpm", "tau_max_nm", "p_out_w", "p_loss_w"],
              ([fmt(p.omega * RPM_PER_RADS), fmt(p.tau_max), fmt(p.p_out),
                fmt(p.p_loss)] for p in table))


DESIGN_COLUMNS = ["r_mm", "s0_mm", "dtheta_deg", "k_fixed"]


def design_values(params: VrrParams | FrrParams) -> dict[str, float]:
    """A design in document units (mm, degrees), keyed by its DESIGN_COLUMNS
    names; a joint's other columns are absent."""
    if isinstance(params, VrrParams):
        return {"r_mm": params.r * 1000.0, "s0_mm": params.s0 * 1000.0,
                "dtheta_deg": params.delta_theta / DEG}
    return {"k_fixed": params.k_fixed}


def mech_cells(params: VrrParams | FrrParams) -> list[str]:
    """DESIGN_COLUMNS cells for a summary or grid row."""
    values = design_values(params)
    return [fmt(values.get(name)) for name in DESIGN_COLUMNS]


def write_grid_csv(path: Path, opt: OptResult) -> None:
    """Every evaluated candidate of a grid, feasible or not."""
    write_csv(path, [*DESIGN_COLUMNS, "feasible", "w_takeoff_j", "h_jump_m"],
              ([*mech_cells(rec.params), str(rec.feasible).lower(),
                fmt(rec.w_takeoff), fmt(rec.h_jump)] for rec in opt.evaluations))
    log.info("wrote %s", path)


def opt_summary(opt: OptResult | None) -> dict | None:
    """JSON fields of an optimum: energy, height, infeasible count, design."""
    if opt is None:
        return None
    return {"w_takeoff_j": opt.w_takeoff, "h_jump_m": opt.h_jump,
            "n_infeasible": opt.n_infeasible, **design_values(opt.best_params)}


def emit_report(report: ComparisonReport, out_dir: str | Path) -> list[Path]:
    """Write summary tables and per-optimum channel CSVs; return the manifest.

    An empty report (no rows) produces only metadata.json. Rows whose
    angles share a file label raise DomainError before any file is written.
    """
    check_angle_labels(row.angle for row in report.rows)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: list[Path] = []

    def add(name: str) -> Path:
        """The path of an output file, entered in the manifest."""
        manifest.append(out / name)
        return manifest[-1]

    meta = dict(report.metadata)
    meta.setdefault("tool_version", _tool_version())
    meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    add("metadata.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    if not report.rows:
        return manifest

    if "resolved_config" in meta:
        add("config_resolved.json").write_text(
            json.dumps(meta["resolved_config"], sort_keys=True, indent=1) + "\n")

    summary_rows = []
    json_rows = []
    txt_lines = [
        f"{'joint':<6} {'angle_rad':>10} {'r_mm':>6} {'s0_mm':>6} {'dth_deg':>8} "
        f"{'k_fixed':>8} {'W_J':>10} {'H_m':>8} {'improve_%':>10}",
    ]
    for row in report.rows:
        json_rows.append({
            "angle_rad": row.angle,
            "vrr": opt_summary(row.vrr),
            "frr": opt_summary(row.frr),
            "improvement_pct": row.improvement_pct,
            "error": row.error,
        })
        if row.error is not None:
            summary_rows.append(["evrr", fmt(row.angle)] + [""] * 7 + [row.error])
            txt_lines.append(f"evrr   {row.angle:>10.4f}  ERROR: {row.error}")
        # Every optimum the row kept, after its error line if it has one, as
        # summary.json carries it.
        for joint, opt, pct in (("evrr", row.vrr, row.improvement_pct),
                                ("frr", row.frr, None)):
            if opt is None:
                continue
            summary_rows.append([joint, fmt(row.angle), *mech_cells(opt.best_params),
                                 fmt(opt.w_takeoff), fmt(opt.h_jump), fmt(pct), ""])
            vd = design_values(opt.best_params)
            design = (f"{vd['r_mm']:>6.1f} {vd['s0_mm']:>6.1f} "
                      f"{vd['dtheta_deg']:>8.2f} {'':>8}" if joint == "evrr" else
                      f"{'':>6} {'':>6} {'':>8} {vd['k_fixed']:>8.1f}")
            pct = "" if pct is None else f"{pct:.2f}"
            txt_lines.append(f"{joint:<6} {row.angle:>10.4f} {design} "
                             f"{opt.w_takeoff:>10.3f} {opt.h_jump:>8.4f} {pct:>10}")

    write_csv(add("summary.csv"),
              ["joint_type", "angle_rad", *DESIGN_COLUMNS,
               "w_takeoff_j", "h_jump_m", "improvement_pct", "error"],
              summary_rows)
    add("summary.json").write_text(
        json.dumps({"rows": json_rows}, sort_keys=True, indent=2) + "\n")
    add("summary.txt").write_text("\n".join(txt_lines) + "\n")

    jfac = report.leg.jacobian_scale
    for row in report.rows:
        if row.error is not None:
            continue
        label = angle_label(row.angle)
        for joint, opt, takeoff in (("evrr", row.vrr, row.vrr_takeoff),
                                    ("frr", row.frr, row.frr_takeoff)):
            write_trajectory_csv(add(f"trajectory_{joint}_{label}.csv"),
                                 report.leg, opt.best_params, takeoff)

        vp = row.vrr.best_params
        samples = ratio_curve(vp, row.angle, report.cap, RATIO_SAMPLES).samples
        write_ratio_csv(add(f"ratio_curve_evrr_{label}.csv"), vp, samples)
        k_fixed = row.frr.best_params.k_fixed
        rows_overall = []
        for q2, k in samples:
            lam = 1.0 / jacobian(jfac, q2)
            rows_overall.append([fmt(q2), fmt(k * lam), fmt(k_fixed * lam)])
        write_csv(add(f"overall_ratio_{label}.csv"),
                  ["q2_rad", "evrr_k_lambda_radpm", "frr_k_lambda_radpm"],
                  rows_overall)

    return manifest


def _tool_version() -> str:
    from . import __version__
    return __version__
