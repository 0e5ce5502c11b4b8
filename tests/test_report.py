import csv
import hashlib
import importlib.resources
import json
import math

import pytest

from vrrjump import (DomainError, FrrParams, SearchBox, SimConfig,
                     compare_designs, simulate_jump)
from vrrjump.cli import main
from vrrjump.optimize import ComparisonReport
from vrrjump.report import (CELL, EMPTY, TRAJECTORY_COLUMNS, emit_report, fmt,
                            row_format, write_trajectory_csv)

FULLSCALE = str(importlib.resources.files("vrrjump.configs") / "fullscale.json")


def test_empty_report_emits_metadata_only(tmp_path, leg):
    report = ComparisonReport(rows=[], leg=leg, metadata={"config_sha256": "x"})
    manifest = emit_report(report, tmp_path)
    assert [p.name for p in manifest] == ["metadata.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metadata.json"]
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["config_sha256"] == "x"
    assert "timestamp" in meta and "tool_version" in meta


def test_angles_sharing_a_label_write_no_file(tmp_path, leg, motor):
    """Both angles would write trajectory_evrr_-2.6180.csv and three more
    files of one name: the report is refused before any file exists."""
    box = SearchBox(r_range=(0.045, 0.047, 0.002),
                    s0_range=(0.150, 0.150, 0.005),
                    dtheta_range=(0.0, 0.0, 1.0), frr_range=(22.0, 23.0, 1.0))
    report = compare_designs(leg, motor, SimConfig(q2_init=-2.618), box,
                             [-2.61801, -2.61804])
    assert all(row.error is None for row in report.rows)
    out = tmp_path / "rep"
    with pytest.raises(DomainError, match="share the output file label "
                                          "-2.6180"):
        emit_report(report, out)
    assert not out.exists()


def _trajectory_rows(tmp_path, leg, mech, res) -> list[list[str]]:
    """The cells of a written trajectory CSV, below its header."""
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, leg, mech, res)
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == TRAJECTORY_COLUMNS
    return rows


def test_frr_trajectory_rows_have_empty_theta(tmp_path, leg, motor):
    res = simulate_jump(leg, motor, FrrParams(22.0), SimConfig(q2_init=-2.618))
    rows = _trajectory_rows(tmp_path, leg, FrrParams(22.0), res)
    assert len(rows) == len(res.trajectory)
    i_theta = TRAJECTORY_COLUMNS.index("theta_rad")
    i_k = TRAJECTORY_COLUMNS.index("k")
    assert all(r[i_theta] == "" for r in rows)
    assert all(r[i_k] == "22" for r in rows)


def test_vrr_trajectory_rows_channels(tmp_path, leg, motor, mech_opt):
    res = simulate_jump(leg, motor, mech_opt, SimConfig(q2_init=-2.618))
    rows = _trajectory_rows(tmp_path, leg, mech_opt, res)
    i_t = TRAJECTORY_COLUMNS.index("t_s")
    i_q2 = TRAJECTORY_COLUMNS.index("q2_rad")
    i_th = TRAJECTORY_COLUMNS.index("theta_rad")
    i_lam = TRAJECTORY_COLUMNS.index("lambda_radpm")
    assert rows[0][i_t] == "0"
    first_q2 = float(rows[0][i_q2])
    assert first_q2 == pytest.approx(-2.618)
    assert float(rows[0][i_th]) == pytest.approx(first_q2 + math.pi)
    # transmission ratio grows monotonically toward extension
    lams = [float(r[i_lam]) for r in rows]
    assert lams[-1] > lams[0]
    for row in rows:
        assert len(row) == len(TRAJECTORY_COLUMNS)


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308,
    1.0 / 3.0, 123456789012.0, -2.618, 0, 5,
])
def test_row_format_renders_cells_as_fmt(value):
    """A row format renders each value as fmt does, the f-string
    {:.9g} rendering, and an EMPTY cell as nothing."""
    assert fmt(value) == f"{value:.9g}"
    line = row_format(CELL, EMPTY, CELL)
    assert line % (value, value, -value) == f"{fmt(value)},,{fmt(-value)}\n"


def test_row_format_renders_none_empty():
    assert fmt(None) == ""
    assert row_format(CELL, EMPTY, CELL) % (1.5, None, 2) == "1.5,,2\n"


SINGLE_DESIGN_SHA256 = {
    "trajectory_-2.6180.csv":
        "02102f28da8138b9dcd2ce56481efacced730990afd11eee920d8ebc554742ac",
    "trajectory_-2.2689.csv":
        "06ec8daa22c9cff6f237b87d7069929a429fcf99375a150a8949da772a9f3065",
    "trajectory_-1.9199.csv":
        "72678e3feb6d4db557a148c0258275133827886ce6622970a3a442c8446bb169",
    "trajectory_frr23_-2.6180.csv":
        "0f8e037e33212c52d5ee6d8b677dde4b2faa56b746bc34c073e361b3776edac0",
    "ratio_curve_default.csv":
        "7814a52a8e1fe8097bba684c8b73a15b0655c61d7f4f70275e86f14dbecfd653",
    "ratio_curve_-3.1_-0.02_n57.csv":
        "9dec1309e2ef75b9cc8136a1f644c09653e086f60c1360e35787522878ca88a4",
}
"""sha256 of the files that the single-design commands write for
fullscale.json: `simulate` at each configured angle, a fixed-ratio
trajectory (empty theta column) and `sweep-ratio` at its default and at a
custom range. A change that moves numbers on purpose updates these and says
in CHANGES.md which files moved."""


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("angle", ["-2.618", "-2.2689", "-1.9199"])
def test_simulate_trajectory_matches_digest(tmp_path, capsys, angle):
    assert main(["simulate", "--config", FULLSCALE, "--out", str(tmp_path),
                 "--angle", angle]) == 0
    name = f"trajectory_{float(angle):.4f}.csv"
    assert _sha256(tmp_path / name) == SINGLE_DESIGN_SHA256[name]


def test_frr_trajectory_matches_digest(tmp_path, leg, motor):
    mech = FrrParams(23.0)
    res = simulate_jump(leg, motor, mech, SimConfig(q2_init=-2.618))
    path = tmp_path / "trajectory_frr23_-2.6180.csv"
    write_trajectory_csv(path, leg, mech, res)
    assert _sha256(path) == SINGLE_DESIGN_SHA256[path.name]


@pytest.mark.parametrize("name,extra", [
    ("ratio_curve_default.csv", []),
    ("ratio_curve_-3.1_-0.02_n57.csv",
     ["--lo", "-3.1", "--hi", "-0.02", "--n", "57"]),
])
def test_sweep_ratio_csv_matches_digest(tmp_path, capsys, name, extra):
    assert main(["sweep-ratio", "--config", FULLSCALE, "--out", str(tmp_path),
                 *extra]) == 0
    assert _sha256(tmp_path / "ratio_curve.csv") == SINGLE_DESIGN_SHA256[name]
