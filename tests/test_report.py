import json
import math

import pytest

from vrrjump import (DomainError, FrrParams, SearchBox, SimConfig,
                     compare_designs, simulate_jump)
from vrrjump.optimize import ComparisonReport
from vrrjump.report import TRAJECTORY_COLUMNS, emit_report, trajectory_rows


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


def test_frr_trajectory_rows_have_empty_theta(leg, motor):
    res = simulate_jump(leg, motor, FrrParams(22.0), SimConfig(q2_init=-2.618))
    rows = trajectory_rows(leg, FrrParams(22.0), res)
    assert len(rows) == len(res.trajectory)
    i_theta = TRAJECTORY_COLUMNS.index("theta_rad")
    i_k = TRAJECTORY_COLUMNS.index("k")
    assert all(r[i_theta] == "" for r in rows)
    assert all(r[i_k] == "22" for r in rows)


def test_vrr_trajectory_rows_channels(leg, motor, mech_opt):
    res = simulate_jump(leg, motor, mech_opt, SimConfig(q2_init=-2.618))
    rows = trajectory_rows(leg, mech_opt, res)
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
