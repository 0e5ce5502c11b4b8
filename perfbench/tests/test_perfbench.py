"""Tests of the benchmark itself: census classification, metric names and
the result schema. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from vrrjump import (MechanismRangeError, SimulationRangeError,  # noqa: E402
                     TakeoffResult, Termination, VrrParams, load_config,
                     simulate_jump)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(terminated_by, q2, t=1.0):
    return TakeoffResult(w_takeoff=1.0, h_jump=0.0, t_takeoff=t,
                         q2_at_takeoff=q2, terminated_by=terminated_by)


@pytest.mark.parametrize("outcome, expected", [
    (_result(Termination.TIMEOUT, -2.618), "static_hold"),
    (_result(Termination.TIMEOUT, -2.5), "timeout_moving"),
    (_result(Termination.ANGLE_CAP, -0.05, 0.39), "angle_cap"),
    (_result(Termination.CONTACT_FORCE_ZERO, -0.3, 0.35), "contact_force_zero"),
    (SimulationRangeError("left the range"), "range_fail"),
    (MechanismRangeError("crank angle"), "range_fail"),
])
def test_classify(outcome, expected):
    assert layers.classify(outcome, -2.618) == expected


def test_classify_real_candidates():
    cfg = load_config(ROOT / workloads.CONFIG_REL)
    sc = workloads.sim_config(cfg, -2.618)
    weak = simulate_jump(cfg.leg, cfg.motor, VrrParams(r=0.025, s0=0.100), sc,
                         record=False)
    assert layers.classify(weak, -2.618) == "static_hold"
    ref = simulate_jump(cfg.leg, cfg.motor, cfg.mechanism, sc, record=False)
    assert layers.classify(ref, -2.618) == "angle_cap"


def test_energy_tolerance_admits_seed_and_converged_only():
    seed_w, conv_w = workloads.EXPECTED[-2.618]["ref"]
    assert workloads.w_ok(359.470375, seed_w, conv_w)
    assert workloads.w_ok(workloads.W_REF_CONVERGED, seed_w, conv_w)
    assert not workloads.w_ok(359.48, seed_w, conv_w)
    assert not workloads.w_ok(359.45, seed_w, conv_w)


def test_metric_names_and_units():
    declared = {}
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert NAME.fullmatch(metric["name"]), metric
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["name"] not in declared
            declared[metric["name"]] = metric["unit"]
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert per_layer == layers.PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_box_config(tmp_path):
    """The box config loads, has the stated candidate counts and holds the
    reference design and every expected optimum."""
    cfg = load_config(workloads.bench_config(ROOT, tmp_path / "box.json"))
    box = cfg.search
    rs = _axis_mm(box.r_range)
    s0s = _axis_mm(box.s0_range)
    ks = _axis_mm(box.frr_range, 1.0)
    assert len(rs) * len(s0s) == workloads.N_VRR and len(ks) == workloads.N_FRR
    designs = [workloads.REF_DESIGN_MM] + [e["vrr"][0] for e in workloads.EXPECTED.values()]
    for r, s0, _ in designs:
        assert any(abs(r - x) < 1e-6 for x in rs) and any(abs(s0 - x) < 1e-6 for x in s0s)
    for e in workloads.EXPECTED.values():
        assert any(abs(e["frr"][0] - k) < 1e-6 for k in ks)


def _axis_mm(rng, scale=1e3):
    lo, hi, step = rng
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [(lo + i * step) * scale for i in range(n)]


def test_clock_scales_by_adjacent_references(monkeypatch):
    refs = iter([0.028, 0.056, 0.056, 0.084])
    monkeypatch.setattr(hostspeed, "reference_s", lambda: next(refs))
    clock = hostspeed.Clock()                   # gap 0: 0.028
    # one sample suffices after 0.3 s of work (10 % is 0.03 s); the mean of
    # 0.028 and 0.056 is 0.042 s, 1.5 times the reference host's time
    assert clock.scale(0.3) == pytest.approx(0.2)
    # after 1 s, samples until they add up to 0.1 s: 0.056, 0.084; the gap
    # before holds 0.056
    mean = (0.056 + 0.056 + 0.084) / 3
    assert clock.scale(1.0) == pytest.approx(hostspeed.REFERENCE_S / mean)
    assert clock.gaps == [[0.028], [0.056], [0.056, 0.084]]


def test_tracer_self_time():
    tracer = layers.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    times = tracer.self_times()
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    assert times["outer"]["self_s"] == pytest.approx(outer.seconds - inner.seconds)
    assert times["inner"]["count"] == 1


def test_digest_ledger(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    assert run.DigestLedger().check({"a.csv": "1"}) == []
    assert run.DigestLedger().check({"a.csv": "1"}) == []
    assert run.DigestLedger().check({"a.csv": "2"})


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_result_schema():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trajectory",
         "--seed", "7", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"}
        assert math.isfinite(value["value"]) and value["value"] > 0
    full = json.loads(proc.stdout.strip().splitlines()[-2])
    assert set(full["environment"]) == {"nproc", "python", "numpy", "cpu_model",
                                        "loadavg_1m"}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
