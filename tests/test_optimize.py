import concurrent.futures
import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import vrrjump
from vrrjump import (DomainError, EvalRecord, FrrParams, NoFeasibleDesignError,
                     SearchBox, Termination, VrrParams, compare_designs,
                     load_config, optimize_frr, optimize_vrr, select_best,
                     simulate_jump)
from vrrjump import optimize
from vrrjump.optimize import MAX_CANDIDATES, _axis, _axis_len
from vrrjump.report import emit_report, fmt, mech_cells, opt_summary

DEG = math.pi / 180.0


def small_box(dtheta=(0.0, 0.0, 1.0)) -> SearchBox:
    return SearchBox(
        r_range=(0.040, 0.050, 0.005),
        s0_range=(0.140, 0.160, 0.010),
        dtheta_range=dtheta,
        frr_range=(20.0, 24.0, 2.0),
    )


def default_box(tmp_path) -> SearchBox:
    """The search box of a config without a search section."""
    config = Path(vrrjump.__file__).parent / "configs" / "fullscale.json"
    doc = json.loads(config.read_text())
    del doc["search"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return load_config(path).search


def test_axis_counts_default_box(tmp_path):
    box = default_box(tmp_path)
    assert len(_axis(box.r_range)) == 51
    assert len(_axis(box.s0_range)) == 31
    assert len(_axis(box.dtheta_range)) == 7
    assert len(_axis(box.frr_range)) == 31


def test_axis_endpoints():
    vals = _axis((0.025, 0.075, 0.001))
    assert vals[0] == 0.025
    assert vals[-1] == pytest.approx(0.075, abs=1e-12)


def test_grid_completeness(leg, motor, deep_crouch):
    box = small_box(dtheta=(-1.0 * DEG, 1.0 * DEG, 1.0 * DEG))
    opt = optimize_vrr(leg, motor, deep_crouch, box)
    assert len(opt.evaluations) == 3 * 3 * 3


def test_oracle_equivalence_brute_force(leg, motor, deep_crouch):
    """Independent argmax loop over the same grid must agree exactly."""
    box = small_box(dtheta=(-1.0 * DEG, 1.0 * DEG, 1.0 * DEG))
    best_w = -math.inf
    best_params = None
    for r in _axis(box.r_range):
        for s0 in _axis(box.s0_range):
            for dth in _axis(box.dtheta_range):
                params = VrrParams(r=r, s0=s0, delta_theta=dth)
                w = simulate_jump(leg, motor, params, deep_crouch,
                                  record=False).w_takeoff
                key = (-w, r, s0, abs(dth), dth)
                if best_params is None or key < best_key:
                    best_params, best_key, best_w = params, key, w
    opt = optimize_vrr(leg, motor, deep_crouch, box)
    assert opt.best_params == best_params
    assert opt.w_takeoff == best_w


def test_concurrent_equals_sequential(leg, motor, deep_crouch):
    box = small_box()
    seq = optimize_vrr(leg, motor, deep_crouch, box, workers=1)
    par = optimize_vrr(leg, motor, deep_crouch, box, workers=2)
    assert seq.best_params == par.best_params
    assert seq.w_takeoff == par.w_takeoff
    assert seq.evaluations == par.evaluations


def test_single_cell_grid(leg, motor, deep_crouch):
    box = SearchBox((0.047, 0.047, 1.0), (0.150, 0.150, 1.0),
                    (0.0, 0.0, 1.0), (22.0, 22.0, 1.0))
    opt = optimize_vrr(leg, motor, deep_crouch, box)
    assert len(opt.evaluations) == 1
    assert opt.best_params == VrrParams(r=0.047, s0=0.150, delta_theta=0.0)
    direct = simulate_jump(leg, motor, opt.best_params, deep_crouch,
                           record=False)
    assert opt.w_takeoff == direct.w_takeoff


def test_frr_collapsed_range(leg, motor, deep_crouch):
    box = SearchBox((0.047, 0.047, 1.0), (0.150, 0.150, 1.0),
                    (0.0, 0.0, 1.0), (22.0, 22.0, 1.0))
    opt = optimize_frr(leg, motor, deep_crouch, box)
    assert opt.best_params == FrrParams(22.0)


def test_frr_scan_brackets_reference_optimum(leg, motor, deep_crouch, tmp_path):
    box = default_box(tmp_path)
    opt = optimize_frr(leg, motor, deep_crouch, box)
    assert abs(opt.best_params.k_fixed - 22.0) <= 3.0
    assert 0.38 < opt.h_jump < 0.47


def test_infeasible_offsets_recorded(leg, motor, deep_crouch):
    box = small_box(dtheta=(-3.0 * DEG, 0.0, 1.0 * DEG))
    opt = optimize_vrr(leg, motor, deep_crouch, box)
    assert len(opt.evaluations) == 3 * 3 * 4
    bad = [r for r in opt.evaluations if not r.feasible]
    assert len(bad) == 9 == opt.n_infeasible
    for rec in bad:
        assert rec.params.delta_theta == pytest.approx(-3.0 * DEG)
        assert math.isnan(rec.w_takeoff)
    assert opt.best_params.delta_theta > -3.0 * DEG


def test_no_feasible_design(leg, motor, deep_crouch):
    box = small_box(dtheta=(-3.0 * DEG, -3.0 * DEG, 1.0 * DEG))
    with pytest.raises(NoFeasibleDesignError):
        optimize_vrr(leg, motor, deep_crouch, box)


def test_select_best_scaling_invariance():
    recs = [
        EvalRecord(VrrParams(0.047, 0.150), 300.0, 0.5, True),
        EvalRecord(VrrParams(0.046, 0.150), 310.0, 0.52, True),
        EvalRecord(VrrParams(0.048, 0.140), 310.0, 0.52, True),
        EvalRecord(VrrParams(0.030, 0.200), float("nan"), float("nan"), False),
    ]
    best = select_best(recs)
    assert best.params == VrrParams(0.046, 0.150)
    scaled = [dataclasses.replace(r, w_takeoff=3.0 * r.w_takeoff) for r in recs]
    assert select_best(scaled).params == best.params


def test_select_best_tie_breaks_smallest_offset():
    recs = [
        EvalRecord(VrrParams(0.047, 0.150, delta_theta=2 * DEG), 300.0, 0.5, True),
        EvalRecord(VrrParams(0.047, 0.150, delta_theta=1 * DEG), 300.0, 0.5, True),
        EvalRecord(VrrParams(0.047, 0.150, delta_theta=-2 * DEG), 300.0, 0.5, True),
    ]
    assert select_best(recs).params.delta_theta == pytest.approx(1 * DEG)


def test_compare_designs_rows_and_improvement(leg, motor, deep_crouch):
    box = small_box()
    report = compare_designs(leg, motor, deep_crouch, box,
                             angles=[-1.9199, -2.6180])
    assert [r.angle for r in report.rows] == [-2.6180, -1.9199]
    for row in report.rows:
        assert row.error is None
        assert row.vrr.h_jump > row.frr.h_jump
        expected = 100.0 * (row.vrr.h_jump - row.frr.h_jump) / row.frr.h_jump
        assert row.improvement_pct == pytest.approx(expected, rel=1e-12)
        assert row.vrr_takeoff.trajectory and row.frr_takeoff.trajectory


def test_compare_designs_isolates_per_angle_errors(leg, motor, deep_crouch):
    box = small_box()
    report = compare_designs(leg, motor, deep_crouch, box,
                             angles=[-2.6180, -0.04])
    good = [r for r in report.rows if r.error is None]
    bad = [r for r in report.rows if r.error is not None]
    assert len(good) == 1 and len(bad) == 1
    assert bad[0].angle == -0.04
    assert good[0].vrr is not None


def row_difference(a, b) -> str | None:
    """The first difference between two compare rows, or None.

    Every value counts by its repr, so NaN and every float bit count: each
    field, each evaluation and each trajectory sample.
    """
    def lines(row):
        out = [repr((row.angle, row.error, row.improvement_pct))]
        for opt in (row.vrr, row.frr):
            out += [repr(opt)] if opt is None else [
                repr((opt.best_params, opt.w_takeoff, opt.h_jump,
                      opt.n_infeasible)),
                *map(repr, opt.evaluations)]
        for res in (row.vrr_takeoff, row.frr_takeoff):
            out += [repr(res)] if res is None else [
                repr(dataclasses.replace(res, trajectory=[])),
                *map(repr, res.trajectory)]
        return out

    for n, (x, y) in enumerate(itertools.zip_longest(lines(a), lines(b))):
        if x != y:
            return f"line {n}: {x} != {y}"
    return None


def test_compare_designs_pool_equals_in_process(leg, motor, deep_crouch,
                                                monkeypatch):
    """Every field of every row, trajectories and errors included, is the
    same from the shared pool as in-process."""
    monkeypatch.setattr(optimize, "usable_cpus", lambda: 2)
    box = small_box(dtheta=(-3.0 * DEG, 0.0, 1.0 * DEG))
    angles = [-1.9199, -0.04, -2.6180]
    seq = compare_designs(leg, motor, deep_crouch, box, angles, workers=1)
    par = compare_designs(leg, motor, deep_crouch, box, angles, workers=2)
    assert [r.error is None for r in seq.rows] == [True, True, False]
    assert seq.rows[-1].error.startswith("DomainError")
    for a, b in zip(seq.rows, par.rows, strict=True):
        assert row_difference(a, b) is None
    assert seq.metadata == {"workers": 1, "n_candidates": 2 * (36 + 3)}
    assert par.metadata == {"workers": 2, "n_candidates": 2 * (36 + 3)}


def test_failed_vrr_grid_keeps_the_frr_optimum(leg, motor, deep_crouch,
                                               monkeypatch, tmp_path):
    """At -3.14 every VRR candidate of the box leaves the crank's working
    range. That row fails with NoFeasibleDesignError but keeps its FRR
    optimum, from the pool as in-process. summary.json shows it, and
    summary.csv and summary.txt give the angle its error line and then the
    FRR row."""
    monkeypatch.setattr(optimize, "usable_cpus", lambda: 2)
    seq, par = (compare_designs(leg, motor, deep_crouch, small_box(),
                                [-2.618, -3.14], workers=workers)
                for workers in (1, 2))
    row = seq.rows[0]
    assert row.angle == -3.14
    assert row.error.startswith("NoFeasibleDesignError")
    assert (row.vrr, row.vrr_takeoff, row.frr_takeoff) == (None, None, None)
    assert row.improvement_pct is None
    assert row.frr.best_params == FrrParams(24.0)
    assert (len(row.frr.evaluations), row.frr.n_infeasible) == (3, 0)
    assert seq.rows[1].error is None
    for a, b in zip(seq.rows, par.rows, strict=True):
        assert row_difference(a, b) is None

    emit_report(seq, tmp_path)
    first = json.loads((tmp_path / "summary.json").read_text())["rows"][0]
    assert first["vrr"] is None
    assert first["frr"] == opt_summary(row.frr)
    assert first["frr"]["k_fixed"] == 24.0
    lines = {}
    for name in ("summary.csv", "summary.txt"):
        error, lines[name] = [line for line in
                              (tmp_path / name).read_text().splitlines()
                              if "-3.14" in line]
        assert error.startswith("evrr") and "NoFeasibleDesignError" in error
    assert lines["summary.csv"] == ",".join([
        "frr", "-3.14", *mech_cells(row.frr.best_params),
        fmt(row.frr.w_takeoff), fmt(row.frr.h_jump), "", ""])
    assert lines["summary.txt"].split() == [
        "frr", "-3.1400", "24.0", f"{row.frr.w_takeoff:.3f}",
        f"{row.frr.h_jump:.4f}"]


class CountingPool(concurrent.futures.Executor):
    """In-thread stand-in for ProcessPoolExecutor that records the size of
    each pool made and the chunksize of each map."""

    made: list[int] = []
    chunks: list[int] = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def submit(self, fn, *args):
        fut = concurrent.futures.Future()
        fut.set_result(fn(*args))
        return fut

    def map(self, fn, *iterables, chunksize=1):
        self.chunks.append(chunksize)
        return super().map(fn, *iterables)


@pytest.mark.parametrize("workers,used", [(1, 1), (2, 2), (64, 4)])
def test_one_pool_per_command(leg, motor, deep_crouch, monkeypatch,
                              workers, used):
    """At most one pool per command, of the clamped size that the report's
    metadata states; none with one worker."""
    monkeypatch.setattr(optimize, "usable_cpus", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "made", [])
    pools = [] if used == 1 else [used]
    report = compare_designs(leg, motor, deep_crouch, small_box(),
                             [-2.6180, -1.9199], workers=workers)
    assert all(r.error is None for r in report.rows)
    assert CountingPool.made == pools
    assert report.metadata["workers"] == used
    optimize_vrr(leg, motor, deep_crouch, small_box(), workers=workers)
    assert CountingPool.made == 2 * pools


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_error_marks_only_its_row(leg, motor, deep_crouch, monkeypatch,
                                       workers):
    """An error raised inside one angle's grid evaluation fails that row
    alone; the other rows are those of an undisturbed run."""
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the patched evaluation only under fork")
    monkeypatch.setattr(optimize, "usable_cpus", lambda: 2)
    angles = [-2.6180, -2.2689, -1.9199]
    clean = compare_designs(leg, motor, deep_crouch, small_box(), angles)
    real = optimize.simulate_jump

    def failing(leg, motor, mech, cfg, record=True):
        if cfg.q2_init == -2.2689:
            raise DomainError("injected")
        return real(leg, motor, mech, cfg, record=record)

    monkeypatch.setattr(optimize, "simulate_jump", failing)
    report = compare_designs(leg, motor, deep_crouch, small_box(), angles,
                             workers=workers)
    assert report.metadata["workers"] == workers
    bad = report.rows[1]
    assert bad.error == "DomainError: injected"
    assert (bad.vrr, bad.frr, bad.vrr_takeoff) == (None, None, None)
    for i in (0, 2):
        assert row_difference(report.rows[i], clean.rows[i]) is None


def test_search_box_validation():
    with pytest.raises(DomainError):
        SearchBox((0.05, 0.04, 0.001), (0.1, 0.2, 0.01), (0.0, 0.0, 1.0),
                  (10.0, 40.0, 1.0))
    with pytest.raises(DomainError):
        SearchBox((0.04, 0.05, 0.0), (0.1, 0.2, 0.01), (0.0, 0.0, 1.0),
                  (10.0, 40.0, 1.0))


def test_search_box_limit_checked_before_allocation(tmp_path):
    """A 1e-12 step would build 5e10 candidates; the box is refused first."""
    with pytest.raises(DomainError, match="limit"):
        SearchBox((0.025, 0.075, 1e-12), (0.1, 0.2, 0.01), (0.0, 0.0, 1.0),
                  (10.0, 40.0, 1.0))
    with pytest.raises(DomainError, match="frr_range"):
        SearchBox((0.04, 0.05, 0.001), (0.1, 0.2, 0.01), (0.0, 0.0, 1.0),
                  (10.0, 40.0, 1e-300))
    with pytest.raises(DomainError, match="finite"):
        SearchBox((0.04, 0.05, math.nan), (0.1, 0.2, 0.01), (0.0, 0.0, 1.0),
                  (10.0, 40.0, 1.0))
    assert len(_axis(default_box(tmp_path).r_range)) ** 3 < MAX_CANDIDATES


def test_pool_size_and_chunk_sizes(monkeypatch):
    """Processes: workers clamped to the usable CPUs and to the largest
    grid. Chunks: one size for the command's n candidates, ceil(sqrt(n)),
    but at most n // (4 x processes) and at least 1."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    done = SimpleNamespace(w_takeoff=1.0, h_jump=1.0, t_takeoff=1.0,
                           terminated_by=Termination.ANGLE_CAP)
    monkeypatch.setattr(optimize, "simulate_jump", lambda *args, **kw: done)
    cases = [  # (CPUs, workers, grid sizes, pool sizes made, chunksizes)
        (4, 10 ** 6, [1581], [4], [40]),
        (4, 10 ** 6, [1581, 31], [4], [41, 41]),
        (2, 2, [112, 8] * 3, [2], [19] * 6),  # compare on perfbench's box
        (2, 2, [40], [2], [5]),
        (4, 8, [3], [3], [1]),
        (4, 2, [100], [2], [10]),
        (4, 1, [100], [], []),
        (4, 4, [1], [], []),
        (1, 8, [100], [], []),
    ]
    for cpus, workers, sizes, made, chunks in cases:
        monkeypatch.setattr(optimize, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(CountingPool, "made", [])
        monkeypatch.setattr(CountingPool, "chunks", [])
        grids = [(None, [FrrParams(20.0)] * n) for n in sizes]
        results, processes = optimize._run_grids(None, None, grids, workers)
        assert (CountingPool.made, CountingPool.chunks) == (made, chunks)
        assert processes == (made or [1])[0]
        assert [len(result.evaluations) for result in results] == sizes


def test_usable_cpus_reads_the_affinity(monkeypatch):
    """The CPU affinity where the platform has one, else os.cpu_count(),
    and 1 when neither says."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert optimize.usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert optimize.usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert optimize.usable_cpus() == 1


def test_one_cpu_affinity_opens_no_pool(leg, motor, deep_crouch, monkeypatch):
    """On two CPUs with an affinity of one (as under taskset -c 0), two
    workers run in-process, and the metadata says one."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "made", [])
    report = compare_designs(leg, motor, deep_crouch, small_box(), [-2.6180],
                             workers=2)
    assert report.rows[0].error is None
    assert report.metadata["workers"] == 1
    assert CountingPool.made == []


@pytest.mark.parametrize("exact,over", [
    ((0.3, 300000.0, 0.3), (0.3, 300000.3, 0.3)),
    ((0.6, 600000.0, 0.6), (0.6, 600000.6, 0.6)),
    ((0.7, 700000.0, 0.7), (0.7, 700000.7, 0.7)),
])
def test_search_box_limit_counts_like_axis(monkeypatch, exact, over):
    """An axis of exactly MAX_CANDIDATES values is accepted, one of a value
    more is refused, and the check builds neither axis."""
    def built(rng):
        raise AssertionError("an axis was built by the limit check")
    monkeypatch.setattr(optimize, "_axis", built)
    vrr = ((0.04, 0.05, 0.005), (0.14, 0.16, 0.01), (0.0, 0.0, 1.0))
    assert (_axis_len(exact), _axis_len(over)) == (MAX_CANDIDATES, MAX_CANDIDATES + 1)
    assert SearchBox(*vrr, exact).frr_range == exact
    with pytest.raises(DomainError, match="span 1000001 candidates"):
        SearchBox(*vrr, over)


def test_package_import_leaves_the_pool_unloaded():
    """The process pool is imported only by a grid that uses it."""
    src = str(Path(vrrjump.__file__).resolve().parents[1])
    config = Path(vrrjump.__file__).parent / "configs" / "fullscale.json"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import vrrjump; "
            "vrrjump.load_config(sys.argv[2]); "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src, str(config)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
