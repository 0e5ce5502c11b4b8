"""Command-line interface.

Subcommands: simulate, optimize, compare, sweep-ratio, envelope.
Exit codes: 0 success, 2 configuration/usage error, 3 no feasible design in
the search box, 4 other package error, 141 standard output closed by its
reader (as in `vrrjump envelope | head -1`; 128 + SIGPIPE, the status a
shell reports for a tool that a closed pipe ends), with nothing on standard
error. The VRRJUMP_LOG environment variable sets log verbosity: a level
name of the logging module, such as DEBUG, INFO, WARNING, ERROR or
CRITICAL, in any case; any other value means WARNING.

The tool is fully deterministic; --seedless is accepted for interface
compatibility and must be passed as a bare flag.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, default_motor, load_config
from .errors import (ConfigError, DomainError, NoFeasibleDesignError,
                     VrrJumpError, echo, naming)
from .mechanism import (VrrParams, check_working_range, ratio_peak,
                        ratio_samples, reduction_ratio)
from .motor import envelope_table
from .optimize import (MAX_CANDIDATES, compare_designs, optimize_frr,
                       optimize_vrr)
from .report import (angle_label, emit_report, opt_summary, write_envelope_csv,
                     write_grid_csv, write_ratio_csv, write_trajectory_csv)
from .sim import SimConfig, simulate_jump

log = logging.getLogger("vrrjump")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_ERROR = 4
EXIT_PIPE = 141


def _setup_logging() -> None:
    level = getattr(logging, os.environ.get("VRRJUMP_LOG", "").upper(), None)
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )


def _int_in(lo: int, hi: float = math.inf):
    """argparse type: an integer in [lo, hi], checked before anything is
    built from it."""
    bound = f"of at least {lo}" if hi == math.inf else f"in [{lo}, {hi}]"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"must be an integer {bound}, got {text!r}")
        return value
    return parse


def _finite(text: str) -> float:
    """argparse type: a finite number, checked before anything is built from it."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser, config_required: bool = True,
                workers: bool = False, leg: bool = True,
                out_help: str = "output directory (default: config output_dir)") -> None:
    """The options every command takes, plus --workers for the commands that
    search a grid and --jacobian-mode for those that build a leg."""
    parser.add_argument("--config", required=config_required,
                        help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help=out_help)
    if workers:
        parser.add_argument("--workers", type=_int_in(1), default=1,
                            help="parallel candidate evaluations (default 1)")
    if leg:
        parser.add_argument("--jacobian-mode", choices=["paper", "geometric"],
                            default=None, help="override the config Jacobian mode")
    parser.add_argument("--seedless", action="store_true",
                        help="reserved; the tool uses no randomness anywhere")


def _load(args) -> RunConfig:
    return load_config(args.config,
                       jacobian_mode=getattr(args, "jacobian_mode", None))


def _out_dir(args, cfg: RunConfig | None) -> Path:
    """--out, else the config's output_dir; created if missing, before any work."""
    key = "--out" if args.out is not None else "output_dir"
    out = Path(args.out if args.out is not None else cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL or a lone surrogate
        raise ConfigError(
            f"{key}: cannot create directory {echo(str(out))}: "
            f"{getattr(exc, 'strerror', None) or exc}") from exc
    return out


def _sim_at_angle(cfg: RunConfig, args) -> SimConfig:
    """The sim section at --angle, else at the first config angle."""
    if args.angle is None:
        return cfg.sim
    return naming("--angle", replace, cfg.sim, q2_init=args.angle)


def cmd_simulate(args) -> int:
    cfg = _load(args)
    if cfg.mechanism is None:
        raise ConfigError("simulate requires a 'mechanism' section in the config")
    sim_cfg = _sim_at_angle(cfg, args)
    # simulate_jump's range check, made here to name the value's source
    # before the output directory exists.
    if isinstance(cfg.mechanism, VrrParams):
        for q2, key in ((sim_cfg.q2_init, "angles_rad" if args.angle is None else "--angle"),
                        (sim_cfg.q2_takeoff_cap, "sim.q2_takeoff_cap_rad")):
            naming(key, check_working_range, cfg.mechanism, q2, q2)
    traj_path = _out_dir(args, cfg) / f"trajectory_{angle_label(sim_cfg.q2_init)}.csv"
    result = simulate_jump(cfg.leg, cfg.motor, cfg.mechanism, sim_cfg)
    write_trajectory_csv(traj_path, cfg.leg, cfg.mechanism, result)
    log.info("wrote %s (%d samples)", traj_path, len(result.trajectory))
    print(json.dumps({
        "w_takeoff_j": result.w_takeoff,
        "h_jump_m": result.h_jump,
        "t_takeoff_s": result.t_takeoff,
        "q2_at_takeoff_rad": result.q2_at_takeoff,
        "terminated_by": result.terminated_by.value,
        "trajectory_csv": str(traj_path),
    }, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = _load(args)
    sim_cfg = _sim_at_angle(cfg, args)
    angle = sim_cfg.q2_init
    out = _out_dir(args, cfg) if args.dump_grid else None
    fn = optimize_vrr if args.joint == "vrr" else optimize_frr
    opt = fn(cfg.leg, cfg.motor, sim_cfg, cfg.search, workers=args.workers)
    if out is not None:
        write_grid_csv(out / f"grid_{args.joint}_{angle_label(angle)}.csv", opt)
    print(json.dumps({"angle_rad": angle, "n_evaluations": len(opt.evaluations),
                      **opt_summary(opt)}, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    t0 = time.perf_counter()
    report = compare_designs(cfg.leg, cfg.motor, cfg.sim, cfg.search,
                             list(cfg.angles), workers=args.workers)
    report.metadata.update({
        "config_sha256": cfg.config_hash,
        "resolved_config": cfg.resolved_doc,
        "wall_time_s": round(time.perf_counter() - t0, 3),
    })
    manifest = emit_report(report, out)
    if args.dump_grid:
        for row in report.rows:
            for joint, opt in (("vrr", row.vrr), ("frr", row.frr)):
                if opt is not None:
                    manifest.append(out / f"grid_{joint}_{angle_label(row.angle)}.csv")
                    write_grid_csv(manifest[-1], opt)
    for path in manifest:
        print(path)
    failed = [r for r in report.rows if r.error is not None]
    return EXIT_INFEASIBLE if len(failed) == len(report.rows) and failed else EXIT_OK


def cmd_sweep_ratio(args) -> int:
    cfg = _load(args)
    if not isinstance(cfg.mechanism, VrrParams):
        raise ConfigError("sweep-ratio requires a variable-ratio 'mechanism' section")
    lo, lo_key = (cfg.angles[0], "angles_rad") if args.lo is None else (args.lo, "--lo")
    hi, hi_key = ((cfg.sim.q2_takeoff_cap, "sim.q2_takeoff_cap_rad") if args.hi is None
                  else (args.hi, "--hi"))
    if not lo < hi:
        raise ConfigError(f"{lo_key}={lo:g} must be below {hi_key}={hi:g}")
    # ratio_samples refuses a sample whose crank angle leaves [0, pi], as
    # reduction_ratio does; theta is affine in q2, so the two ends decide,
    # before the first row is written.
    for q2, key in ((lo, lo_key), (hi, hi_key)):
        naming(key, reduction_ratio, cfg.mechanism, q2)
    path = _out_dir(args, cfg) / "ratio_curve.csv"
    write_ratio_csv(path, cfg.mechanism,
                    ratio_samples(cfg.mechanism, lo, hi, args.n))
    argmax_q2, k_max = ratio_peak(cfg.mechanism, lo, hi)
    print(json.dumps({"argmax_q2_rad": argmax_q2, "k_max": k_max,
                      "csv": str(path)}, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_envelope(args) -> int:
    motor = _load(args).motor if args.config else default_motor()
    path = _out_dir(args, None) / "envelope.csv" if args.out else None
    write_envelope_csv(path, envelope_table(motor, args.n))
    if path is not None:
        print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrrjump",
        description="Variable-reduction-ratio knee: takeoff simulation and "
                    "mechanism design search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one maximum-effort takeoff")
    _add_common(p)
    p.add_argument("--angle", type=_finite, default=None,
                   help="initial knee angle in rad (default: first config angle)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="grid-search mechanism parameters")
    _add_common(p, workers=True)
    p.add_argument("--joint", choices=["vrr", "frr"], default="vrr")
    p.add_argument("--angle", type=_finite, default=None)
    p.add_argument("--dump-grid", action="store_true",
                   help="also write the full evaluation grid as CSV")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("compare", help="optimize both joint types at every "
                                       "configured angle and emit reports")
    _add_common(p, workers=True)
    p.add_argument("--dump-grid", action="store_true",
                   help="also write the per-angle evaluation grids as CSV")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep-ratio", help="sample the reduction-ratio curve")
    _add_common(p, leg=False)
    p.add_argument("--lo", type=_finite, default=None, help="range start (rad)")
    p.add_argument("--hi", type=_finite, default=None, help="range end (rad)")
    p.add_argument("--n", type=_int_in(2, MAX_CANDIDATES), default=200,
                   help="knee angles sampled over the range (default 200)")
    p.set_defaults(func=cmd_sweep_ratio)

    p = sub.add_parser("envelope", help="sample the motor torque/power envelope")
    _add_common(p, config_required=False, leg=False,
                out_help="directory for envelope.csv (default: standard output)")
    p.add_argument("--n", type=_int_in(2, MAX_CANDIDATES), default=200,
                   help="motor speeds sampled over [0, omega_max] (default 200)")
    p.set_defaults(func=cmd_envelope)

    return parser


def _error(text: str) -> None:
    """Print text to standard error, with backslash escapes for what its
    encoding cannot take."""
    encoding = getattr(sys.stderr, "encoding", None) or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding),
          file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flush here, so that a reader that closed the pipe is seen below
        # and not in the interpreter's own flush at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at the null device, so that the flush at exit does
        # not raise again on the output still buffered.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ConfigError as exc:
        _error(f"config error: {exc}")
        return EXIT_CONFIG
    except DomainError as exc:
        _error(f"invalid parameter: {exc}")
        return EXIT_CONFIG
    except NoFeasibleDesignError as exc:
        _error(f"no feasible design: {exc}")
        return EXIT_INFEASIBLE
    except VrrJumpError as exc:
        _error(f"error: {exc}")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
