"""tools/census.py on a box small enough for tier-1: r 34-36 mm and S0
240-250 mm at the deepest crouch hold static, time out still moving and
reach the angle cap, and the two fixed ratios end at contact-force zero."""

import collections
import copy
import dataclasses
import importlib.resources
import importlib.util
import json
from pathlib import Path

from vrrjump import Termination, load_config, simulate_jump
from vrrjump import optimize
from vrrjump.optimize import _frr_candidates, _vrr_candidates

spec = importlib.util.spec_from_file_location(
    "census", Path(__file__).resolve().parents[1] / "tools" / "census.py")
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)

ANGLE = -2.618


def small_box(tmp_path) -> Path:
    doc = json.loads(importlib.resources.files("vrrjump.configs")
                     .joinpath("fullscale.json").read_text())
    doc["search"] = {"r_mm": [34.0, 36.0, 1.0], "s0_mm": [240.0, 250.0, 5.0],
                     "delta_theta_deg": [0.0, 0.0, 1.0],
                     "k_fixed": [22.0, 23.0, 1.0]}
    path = tmp_path / "census_box.json"
    path.write_text(json.dumps(doc))
    return path


def test_census_classes_are_the_kernels(tmp_path, capsys, monkeypatch):
    path = small_box(tmp_path)
    cfg = load_config(path)
    cfg = dataclasses.replace(
        cfg, sim=dataclasses.replace(cfg.sim, q2_init=ANGLE))
    kernel = collections.Counter(
        simulate_jump(cfg.leg, cfg.motor, mech, cfg.sim,
                      record=False).terminated_by.value
        for mech in _vrr_candidates(cfg.search) + _frr_candidates(cfg.search))
    assert kernel["static_hold"] and kernel["timeout"]

    result = census.census(cfg)
    assert census.CLASSES == (*(how.value for how in Termination),
                              "range_fail")
    counts = {c: row["count"] for c, row in result["rows"].items()}
    assert counts == {c: kernel[c] for c in census.CLASSES}
    assert census.failures(result) == []
    # The bits digests see every W: the cap runs move between n and 16n.
    assert result["bits"][0] != result["bits"][1]
    # The pooled path (with two or more CPUs) and the in-process path agree.
    with monkeypatch.context() as patch:
        patch.setattr(optimize, "usable_cpus", lambda: 1)
        assert census.census(cfg) == result
    # A refinement that never reached the kernel leaves every cap W as it is.
    unrefined = copy.deepcopy(result)
    unrefined["rows"]["angle_cap"]["w"] = 0.0
    assert [line for line in census.failures(unrefined)
            if "did not reach the kernel" in line]
    # Every class's t error is bounded, not only its W error.
    slow = copy.deepcopy(result)
    slow["rows"]["timeout"]["t"] = 2e-10
    assert census.failures(slow) == ["timeout: max t error 2e-10 > 1e-10"]

    assert census.main(["--config", str(path), "--angle", str(ANGLE),
                        "--check"]) == 0
    out = capsys.readouterr().out
    assert f"| static_hold ({kernel['static_hold']}) |" in out
    assert f"| timeout ({kernel['timeout']}) |" in out
    for steps, digest in zip((cfg.sim.u_steps, 16 * cfg.sim.u_steps),
                             result["bits"]):
        assert f"bits at {steps} steps: sha256 {digest}\n" in out
