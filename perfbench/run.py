"""Benchmark of vrrjump on the shipped fullscale.json.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-deep --seed 1 --seconds 10 --trace 0

Workloads (see README.md for why each exists):

* ``grid-deep``   -- optimize_vrr + optimize_frr at q2 = -2.618, one process;
* ``compare-cli`` -- ``vrrjump compare --workers <nproc> --dump-grid`` as a
  child process;
* ``trajectory``  -- simulate_jump(record=True), write_trajectory_csv and
  ratio_curve at each configured angle.

The grids search the sub-box ``workloads.BOX`` of fullscale.json. Load is
a closed loop from this one process: operations run back to back, at least
one, while a typical one still ends within ``--seconds``. Each operation
and each set-up is followed by a fixed reference computation, and each is
reported in reference-host seconds (see hostspeed.py), so that the shared
host's changes of speed cancel.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` a separate traced run, the same
for every workload and of fixed length, reports the per-layer metrics and
writes its spans under ``.perfbench/traces``. The line before the result
holds the full record: environment, timings with percentiles and sample
counts, and any failed check.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("grid-deep", "compare-cli", "trajectory")
SETUP_REPS = 10
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "candidates_per_s": "1/s",
    "w_ref_err_rel": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import vrrjump from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import vrrjump
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import vrrjump from {SRC}: {exc}")
    if Path(vrrjump.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: vrrjump came from {vrrjump.__file__}, not {SRC}")
    return vrrjump


def program_env() -> dict:
    """Environment for child interpreters: the checkout's src/ first."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    """Machine record, taken at start, to spot runs on a busy machine."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": cpu,
        "loadavg_1m": os.getloadavg()[0],
    }


def setup_times(env: dict, config: Path, reps: int, clock=None):
    """Seconds of fresh interpreters that import vrrjump and load the config.

    Returns the raw seconds and, with a clock, the reference-host seconds.

    No timeout: waiting with one polls in steps of up to 50 ms, which would
    show in the times.
    """
    argv = [sys.executable, "-c",
            "import sys, vrrjump; vrrjump.load_config(sys.argv[1])", str(config)]
    raw, scaled = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True)
        raw.append(time.perf_counter() - t0)
        if clock is not None:
            scaled.append(clock.scale(raw[-1]))
    return raw, scaled


def summary(values: list[float]) -> dict:
    """Median, 90th percentile, maximum and sample count."""
    p90 = (statistics.quantiles(values, n=10, method="inclusive")[-1]
           if len(values) > 1 else values[0])
    return {"median": statistics.median(values), "p90": p90,
            "max": max(values), "n": len(values)}


def source_digest() -> str:
    """sha256 over the program's source and configs."""
    h = hashlib.sha256()
    for p in sorted((SRC / "vrrjump").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class DigestLedger:
    """Output digests of compare-cli, per program source, across runs.

    The first successful operation on a source tree records its digests in
    the checkout; every later operation on the same tree must match them.
    """

    def __init__(self):
        import workloads as wl

        key = hashlib.sha256((source_digest() + json.dumps(wl.BOX)).encode())
        self.path = WORK / "digests" / f"compare-cli-{key.hexdigest()[:16]}.json"
        self.reference = (json.loads(self.path.read_text())
                          if self.path.exists() else None)

    def check(self, digests: dict[str, str]) -> list[str]:
        if self.reference is None:
            self.reference = digests
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
            tmp.replace(self.path)
            return []
        differ = sorted(k for k in self.reference.keys() | digests.keys()
                        if self.reference.get(k) != digests.get(k))
        return [f"output bytes differ from earlier runs: {differ}"] if differ else []


def run_ops(args, cfg, config: Path, env: dict, work: Path, clock):
    """The closed loop: one operation after another, at least one, while an
    operation of median length still ends within --seconds.

    Returns the operations and their reference-host seconds.
    """
    import workloads as wl

    ledger = DigestLedger() if args.workload == "compare-cli" else None
    ops, scaled = [], []
    deadline = time.perf_counter() + args.seconds
    while not ops or (time.perf_counter()
                      + statistics.median(o.wall_s for o in ops) <= deadline):
        out = work / f"op{len(ops)}"
        out.mkdir()
        t0 = time.perf_counter()
        try:
            if args.workload == "grid-deep":
                op = wl.op_grid_deep(cfg, args.seed)
            elif args.workload == "compare-cli":
                op, digests = wl.op_compare_cli(
                    ROOT, config, out, nproc(), env, CHILD_TIMEOUT_S)
                if not op.problems:
                    op.problems += ledger.check(digests)
            else:
                op = wl.op_trajectory(cfg, out, args.seed)
        except Exception:  # one failed operation; the loop goes on
            traceback.print_exc()
            op = wl.OpResult(time.perf_counter() - t0, 0, float("nan"),
                             [traceback.format_exc(limit=1).strip()])
        scaled.append(clock.scale(op.wall_s))
        shutil.rmtree(out)
        ops.append(op)
    return ops, scaled


def run_untraced(args, cfg, config: Path, env: dict, work: Path):
    import workloads as wl

    # One untimed interpreter fills the bytecode cache, which users do not
    # pay for on every run. Half the timed set-ups run before the loop and
    # half after, so that their median spans the run.
    setup_times(env, config, 1)
    # compare-cli keeps nproc CPUs busy, the others one.
    width = nproc() if args.workload == "compare-cli" else 1
    with hostspeed.Clock(width) as clock:
        setup_raw, setup = setup_times(env, config, SETUP_REPS // 2, clock)
        ops, walls = run_ops(args, cfg, config, env, work, clock)
        raw, scaled = setup_times(env, config, SETUP_REPS - SETUP_REPS // 2, clock)
        # Before the clock's reference processes end, so that their memory
        # does not count.
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup_raw += raw
    setup += scaled

    ok = [o for o in ops if not o.problems]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "candidates_per_s": statistics.median(
            o.candidates / w for o, w in zip(ops, walls)),
        # 1.0 when no operation produced a checked energy
        "w_ref_err_rel": statistics.median(
            [wl.w_ref_err_rel(o.w_ref) for o in ok] or [1.0]),
        "success_rate": len(ok) / len(ops),
        "peak_rss_mb": usage / 1024.0,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    detail = {
        "timings": {"setup_s": summary(setup), "wall_s": summary(walls),
                    "setup_raw_s": summary(setup_raw),
                    "wall_raw_s": summary([o.wall_s for o in ops]),
                    "reference_raw_s": summary(clock.refs)},
        "candidates_per_op": ops[0].candidates,
        "problems": [p for o in ops for p in o.problems],
    }
    return metrics, len(ops), len(ops) - len(ok), detail


def main(argv=None) -> int:
    args = parse_args(argv)
    env_record = environment()
    vrrjump = import_program()
    import layers
    import workloads as wl

    env = program_env()
    work = WORK / f"tmp-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config = wl.bench_config(ROOT, work / "bench.json")
        cfg = vrrjump.load_config(config)
        if args.trace:
            metrics, attempted, failed, detail, tracer = layers.run_traced(
                cfg, ROOT, env, work, nproc())
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)
            detail["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            metrics, attempted, failed, detail = run_untraced(args, cfg, config, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in detail["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "environment": env_record, **detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
