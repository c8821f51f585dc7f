"""Command-line surface.

Subcommands: ``sweep`` (noise-reduction sweep), ``phase-detect``
(single-shot phase discrimination), ``scaling`` (atom-number scaling),
``fringe`` (contrast fringe), ``budget`` (noise-budget table),
``calibrate-raman`` (transition-probability calibration), ``fit``
(R(M_t)-model fit on a CSV), ``run`` (arbitrary protocol file).  Each
command writes under the output directory.  ``fit`` writes only
``fit.json``; ``run`` writes ``records.csv``, its JSON sidecar
``records.csv.meta.json`` and the config echo ``records.config.ini``;
every other command writes ``<name>.csv``, the config echo
``<name>.config.ini`` and a JSON sidecar ``<name>.meta.json``.  Reruns
with the same config and seed are byte-identical apart from the
sidecars' timestamps.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import experiments as exp
from . import noise as _noise
from .config import (
    ConfigError,
    RunConfig,
    default_config,
    echo_config,
    load_config,
)
from .defaults import DEFAULTS, check_value
from .records import params_hash, write_records
from .sequence import parse_protocol, run_trials, spin_noise_reduction

USAGE_EXIT = 2


def _flag(sub: argparse.ArgumentParser, name: str, rule: tuple[str, str],
          **kwargs) -> None:
    """Add a numeric flag that must obey the range rule of ``rule``, a
    (section, key) of ``defaults.RULES``."""
    dest = sub.add_argument(name, **kwargs).dest
    rules = sub.get_default("rules") or {}
    sub.set_defaults(rules={**rules, dest: (name, *rule)})


def _check_flags(args) -> None:
    """Check each numeric flag given against its rule, naming the flag.  A
    comma-separated list is checked number by number and replaced by its
    numbers."""
    for dest, (flag, section, key) in args.rules.items():
        value = getattr(args, dest)
        if isinstance(value, str):
            try:
                value = [float(x) for x in value.split(",")]
            except ValueError:
                raise ValueError(f"{flag} must be a comma-separated list of "
                                 f"numbers (got {value!r})") from None
            setattr(args, dest, value)
        for item in value if isinstance(value, list) else [value]:
            if item is not None:
                check_value(section, key, item, flag)


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="config file (defaults if omitted)")
    _flag(sub, "--seed", ("run", "master_seed"), type=int,
          help="master seed override")
    _flag(sub, "--trials", ("run", "trials"), type=int,
          help="trials per point override")
    sub.add_argument("--out", help="output directory override")


def _context(args) -> tuple[RunConfig, int, int, Path]:
    cfg = load_config(args.config) if args.config else default_config()
    seed = cfg.master_seed if args.seed is None else args.seed
    trials = cfg.trials if args.trials is None else args.trials
    out = Path(args.out if args.out is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, seed, trials, out


def _write_output(out_dir: Path, name: str, csv_text: str, cfg: RunConfig,
                  seed: int, command: str, extra: dict) -> Path:
    path = out_dir / f"{name}.csv"
    path.write_text(csv_text)
    echo = echo_config(cfg)
    (out_dir / f"{name}.config.ini").write_text(echo)
    meta = {
        "command": command,
        "master_seed": seed,
        "config_hash": params_hash({"config": echo}),
        "created": datetime.now(timezone.utc).isoformat(),
        **extra,
    }
    (out_dir / f"{name}.meta.json").write_text(
        json.dumps(meta, indent=1, sort_keys=True) + "\n")
    return path


def cmd_sweep(args) -> int:
    cfg, seed, trials, out = _context(args)
    grid = np.logspace(np.log10(args.mt_min), np.log10(args.mt_max),
                       args.points)
    result = exp.squeezing_sweep(cfg.sim_params(), grid, trials, seed)
    path = _write_output(out, "sweep", result.to_csv(), cfg, seed, "sweep",
                         {"trials_per_point": trials})
    best = result.best()
    print(f"wrote {path}")
    print(f"best 1/W = {best.w_inv:.2f} at M_t = {best.m_t:.3g} "
          f"(1/R = {1.0 / best.r:.2f}, C = {best.contrast:.3f})")
    return 0


def cmd_phase_detect(args) -> int:
    cfg, seed, trials, out = _context(args)
    params = cfg.sim_params()
    squeezed = exp.phase_detection(
        params, args.psi, premeasure=True, trials=trials, master_seed=seed,
        m_t=args.mt, target_w_inv=None if args.mt else args.target_winv)
    css = exp.phase_detection(
        params, args.psi, premeasure=False, trials=trials,
        master_seed=seed + 1, m_t=squeezed.m_t)
    for name, res in (("phase_squeezed", squeezed), ("phase_css", css)):
        _write_output(out, name, res.to_csv(), cfg, seed, "phase-detect",
                      {"psi": args.psi, "m_t": res.m_t,
                       "error_rate": res.error_rate, "trials": trials})
    print(f"CSS error rate:      {css.error_rate:.4f}")
    print(f"squeezed error rate: {squeezed.error_rate:.4f} "
          f"(M_t = {squeezed.m_t:.3g})")
    return 0


def cmd_scaling(args) -> int:
    cfg, seed, trials, out = _context(args)
    result = exp.n_scaling(cfg.sim_params(), args.n_list, trials, seed,
                           scan_trials=args.scan_trials)
    path = _write_output(out, "scaling", result.to_csv(), cfg, seed,
                         "scaling", {"slope_squeezed": result.slope_squeezed,
                                     "slope_sql": result.slope_sql})
    print(f"wrote {path}")
    for row in result.rows:
        print(f"N = {row.n:9.3g}: M_opt = {row.m_opt:9.3g}  "
              f"1/W = {row.w_inv:6.2f}  dtheta^2 = {row.dtheta2:.3e}  "
              f"SQL dtheta = {row.sql_dtheta:.3e}")
    print(f"phase-variance slope: {result.slope_squeezed:.3f}")
    print(f"SQL angle slope:      {result.slope_sql:.3f}")
    return 0


def cmd_fringe(args) -> int:
    cfg, seed, trials, out = _context(args)
    theta = np.linspace(0.0, 2.0 * np.pi, args.points, endpoint=False)
    result = exp.contrast_fringe(cfg.sim_params(), args.mt, theta, trials,
                                 master_seed=seed)
    path = _write_output(out, "fringe", result.to_csv(), cfg, seed,
                         "fringe", {"m_t": args.mt,
                                    "contrast": result.contrast,
                                    "contrast_err": result.contrast_err})
    print(f"wrote {path}")
    print(f"fitted contrast = {result.contrast:.4f} "
          f"+- {result.contrast_err:.4f}")
    return 0


def cmd_budget(args) -> int:
    cfg, seed, _, out = _context(args)
    m_t = args.mt if args.mt is not None else cfg.get("probe", "m_t")
    report = _noise.budget_report(cfg.sim_params(), m_t)
    path = _write_output(out, "budget", report.to_table(), cfg, seed,
                         "budget", {"m_t": m_t})
    print(f"wrote {path}")
    for label, value in report.terms:
        print(f"{label:34s} {value:12.4g}")
    return 0


def cmd_calibrate_raman(args) -> int:
    cfg, seed, trials, out = _context(args)
    grid = np.linspace(0.0, args.mt_max, args.points)
    result = exp.raman_calibration(cfg.sim_params(), grid, trials, seed,
                                   n_atoms=args.n_atoms)
    path = _write_output(out, "raman_calibration", result.to_csv(), cfg,
                         seed, "calibrate-raman",
                         {"slope_down_hz": result.slope_down_hz,
                          "slope_up_hz": result.slope_up_hz})
    print(f"wrote {path}")
    print(f"down-preparation slope: {result.slope_down_hz:+.3f} Hz/photon")
    print(f"up-preparation slope:   {result.slope_up_hz:+.3f} Hz/photon")
    return 0


def cmd_fit(args) -> int:
    cfg, seed, _, out = _context(args)
    with open(args.infile, newline="") as fh:
        lines = [(k, s) for k, s in enumerate(fh, 1) if s[:1] != "#"]
    reader = csv.DictReader(s for _, s in lines)
    if not {"mt", "R"} <= set(reader.fieldnames or ()):
        raise ConfigError(f"{args.infile} needs 'mt' and 'R' columns")
    points = []
    for row in reader:  # a short row's missing cells are None
        names = ("mt", "R", "weight") if row.get("weight") else ("mt", "R")
        pt = []
        for name in names:
            try:
                pt.append(float(row[name]))
            except (TypeError, ValueError):
                problem = ("no cell" if row[name] is None
                           else f"{row[name]!r} is not a number")
                raise ConfigError(
                    f"{args.infile}, line {lines[reader.line_num - 1][0]}, "
                    f"column {name!r}: {problem}") from None
        points.append(tuple(pt))
    result = _noise.fit_r(points, n_boot=args.boot, rng=seed)
    payload = {
        "coefficients": {
            "r_psn": result.coeffs.r_psn, "r_tf": result.coeffs.r_tf,
            "r_q": result.coeffs.r_q, "r_c": result.coeffs.r_c},
        "intervals_95": result.intervals,
        "n_boot": result.n_boot,
        "n_points": len(points),
        "master_seed": seed,
    }
    path = out / "fit.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    for name, value in payload["coefficients"].items():
        lo, hi = result.intervals.get(name, (float("nan"), float("nan")))
        print(f"{name:6s} = {value:.6g}   95% CI [{lo:.6g}, {hi:.6g}]")
    return 0


def cmd_run(args) -> int:
    cfg, seed, trials, out = _context(args)
    protocol = parse_protocol(Path(args.protocol).read_text())
    rs = run_trials(protocol, cfg.sim_params(), trials, seed)
    path = out / "records.csv"
    write_records(rs, path)
    (out / "records.config.ini").write_text(echo_config(cfg))
    print(f"wrote {path} ({len(rs)} trials, "
          f"labels: {', '.join(rs.labels) or 'none'})")
    labels = rs.labels
    if "Np" in labels and "Nf" in labels and len(rs) > 1:
        r = spin_noise_reduction(rs, "Nf", "Np")
        print(f"spin noise reduction 1/R = {1.0 / r:.2f}")
    return 0


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezesim",
        description="Monte Carlo simulator of cavity-aided conditional "
                    "spin squeezing")
    subs = parser.add_subparsers(dest="command", required=True)

    # the range rules of the numeric flags: a probe strength, a count of
    # points or trials, an atom number
    strength, count, atoms = ("cli", "m_t"), ("run", "trials"), (
        "ensemble", "n_effective")

    p = subs.add_parser("sweep", help="noise reduction vs probe strength")
    _common(p)
    _flag(p, "--points", count, type=int, default=15)
    _flag(p, "--mt-min", strength, type=float, default=1e3)
    _flag(p, "--mt-max", strength, type=float, default=1e5)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("phase-detect", help="single-shot phase detection")
    _common(p)
    _flag(p, "--psi", ("cli", "psi"), type=float, default=2.3e-3)
    _flag(p, "--mt", strength, type=float, default=None)
    _flag(p, "--target-winv", ("cli", "target_winv"), type=float,
          default=7.5)
    p.set_defaults(func=cmd_phase_detect)

    p = subs.add_parser("scaling", help="phase resolution vs atom number")
    _common(p)
    _flag(p, "--n-list", atoms, default="6e4,1.2e5,2.4e5,4.8e5")
    _flag(p, "--scan-trials", count, type=int, default=2000)
    p.set_defaults(func=cmd_scaling)

    p = subs.add_parser("fringe", help="contrast fringe measurement")
    _common(p)
    # 0 skips the pre-measurement: the no-probe reference
    _flag(p, "--mt", ("probe", "m_t"), type=float,
          default=DEFAULTS["probe"]["m_t"])
    _flag(p, "--points", count, type=int, default=16)
    p.set_defaults(func=cmd_fringe)

    p = subs.add_parser("budget", help="noise budget table")
    _common(p)
    _flag(p, "--mt", strength, type=float, default=None)
    p.set_defaults(func=cmd_budget)

    p = subs.add_parser("calibrate-raman",
                        help="transition probability calibration")
    _common(p)
    _flag(p, "--mt-max", ("cli", "calibration_span"), type=float,
          default=1.2e5)
    _flag(p, "--points", ("cli", "calibration_points"), type=int, default=7)
    _flag(p, "--n-atoms", atoms, type=float, default=2.1e5)
    p.set_defaults(func=cmd_calibrate_raman)

    p = subs.add_parser("fit", help="fit the R(M_t) model to a CSV")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    _flag(p, "--boot", ("cli", "boot"), type=int, default=1000)
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("run", help="run an arbitrary protocol file")
    _common(p)
    p.add_argument("--protocol", required=True)
    p.set_defaults(func=cmd_run)
    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        _check_flags(args)
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
