"""Command-line front end.

Subcommands cover parsing, monitoring, frequency-response extraction,
cut-off detection, monitoring-safe compression and operator fitting.  All
outputs are deterministic data files (CSV/JSON; optional gnuplot scripts).

Exit codes: 0 ok, 1 usage, 2 domain/data error, 3 unsupported construct.
Errors print a single line ``error[CODE]: message`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import analysis, compose, monitor, signals
from .errors import (
    BadArity,
    BbstlError,
    EmptyInterval,
    FormulaSyntaxError,
    NegativeBound,
    SinceNotGfrfSupported,
    SinceSamplingDisabled,
    TrueNotApproximable,
)
from .logic import (
    Formula,
    Interval,
    Since,
    TrueFormula,
    format_formula,
    parse_formula,
    validate,
)
from .volterra import FitConfig

_USAGE_ERRORS = (FormulaSyntaxError, EmptyInterval, NegativeBound, BadArity)
_UNSUPPORTED = (SinceNotGfrfSupported, TrueNotApproximable,
                SinceSamplingDisabled)


@dataclass
class ProjectConfig:
    """Defaults shared by several commands, loaded from ``--config``."""

    kernels: str | None = None
    fit: str | None = None
    dt: float = 0.002
    omega_max: float = 8 * math.pi
    out: str = "."
    seed: int | None = None

    @classmethod
    def load(cls, path) -> "ProjectConfig":
        base = Path(path).parent
        with open(path) as fh:
            cfg = cls(**json.load(fh))
        for attr in ("kernels", "fit"):
            value = getattr(cfg, attr)
            if value is not None:
                resolved = Path(value)
                if not resolved.is_absolute():
                    resolved = base / resolved
                if not resolved.exists():
                    raise BadArity(f"config references missing file {resolved}")
                setattr(cfg, attr, str(resolved))
        return cfg


def _apply_project_config(args) -> None:
    if not getattr(args, "config", None):
        if getattr(args, "omega_max", None) is None:
            args.omega_max = 8 * math.pi
        return
    project = ProjectConfig.load(args.config)
    if getattr(args, "kernels", None) is None and project.kernels:
        args.kernels = project.kernels
    if getattr(args, "fit", None) is None and project.fit:
        args.fit = project.fit
    if getattr(args, "out", ".") == "." and project.out != ".":
        args.out = project.out
    if getattr(args, "seed", None) is None and project.seed is not None:
        args.seed = project.seed
    if getattr(args, "omega_max", None) is None:
        args.omega_max = project.omega_max


def ast_to_json(phi: Formula) -> dict:
    """JSON form of a formula: its node type plus one entry per field."""
    out: dict = {"type": "true" if isinstance(phi, TrueFormula)
                 else type(phi).__name__.lower()}
    for f in fields(phi):
        value = getattr(phi, f.name)
        if isinstance(value, Interval):
            out[f.name] = [value.lo, value.hi]
        elif isinstance(value, str):
            out[f.name] = value
        else:
            out[f.name] = ast_to_json(value)
    return out


def _write_json(data: dict, path: Path) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _load_fit(args) -> FitConfig:
    cfg = FitConfig()
    if getattr(args, "fit", None):
        with open(args.fit) as fh:
            cfg = FitConfig.from_json(json.load(fh))
    if getattr(args, "seed", None) is not None:
        cfg = FitConfig(**{**cfg.to_json(), "seed": args.seed,
                           "freq_range": cfg.freq_range,
                           "delays": cfg.delays})
    return cfg


def _load_kernels(args, dt: float):
    if not getattr(args, "kernels", None):
        raise BadArity("a kernel table is required (--kernels PATH)")
    return signals.load_kernel_table(args.kernels, dt)


def _outdir(args) -> Path:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    phi = parse_formula(args.formula)
    payload = {"formula": format_formula(phi), "ast": ast_to_json(phi)}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out_file:
        Path(args.out_file).write_text(text + "\n")
    return 0


def cmd_monitor(args) -> int:
    x = signals.load_signal_csv(args.signal)
    kt = _load_kernels(args, x.dt)
    phi = parse_formula(args.formula)
    issues = [d for d in validate(phi, kt) if d.severity == "error"]
    if issues:
        raise BbstlError("; ".join(d.message for d in issues))
    rho = monitor.robustness(phi, x, kt)
    out = _outdir(args)
    monitor.save_robustness_csv(rho, out / "rho.csv")
    monitor.save_verdict_csv(rho, out / "verdict.csv")
    print(f"monitored {format_formula(phi)}: "
          f"valid domain [{rho.t0:.6g}, {rho.signal.t_end:.6g}], "
          f"min rho {rho.samples.min():.6g}, max rho {rho.samples.max():.6g}")
    return 0


def cmd_gfrf(args) -> int:
    cfg = _load_fit(args)
    kt = _load_kernels(args, cfg.dt)
    phi = parse_formula(args.formula)
    out = _outdir(args)
    orders = [int(s) for s in args.orders.split(",") if s]
    if isinstance(phi, Since) and args.enable_sampled_since:
        samples = compose.since_sampled_gfrf(
            phi.left, phi.right, phi.interval,
            args.enable_sampled_since, kt, cfg, enabled=True)
        for i, s in enumerate(samples):
            _write_json({"eta": s.eta, "formula": format_formula(s.formula),
                         "gfrf": s.gfrf.to_json()},
                        out / f"gfrf_eta{i}.json")
        print(f"wrote {len(samples)} sampled-since responses to {out}")
        return 0
    built = compose.build_formula_operator(phi, kt, cfg,
                                           prune_threshold=args.prune)
    _write_json(built.gfrf.to_json(), out / "gfrf.json")
    _write_json(built.report.to_json(), out / "gfrf_report.json")
    for n in orders:
        grid = analysis.gfrf_grid(built.gfrf, n, args.omega_max, args.points)
        analysis.save_grid_csv(grid, out / f"gfrf_h{n}.csv")
    if args.gnuplot:
        _write_gnuplot(out, orders)
    print(f"gfrf of {format_formula(phi)}: term counts "
          f"{built.report.term_counts}; files in {out}")
    return 0


def _write_gnuplot(out: Path, orders) -> None:
    lines = ["set datafile separator ','", "set key off"]
    for n in orders:
        if n == 1:
            lines += [f"set terminal png; set output 'gfrf_h1.png'",
                      "set xlabel 'omega (rad/s)'; set ylabel '|H1|'",
                      "plot 'gfrf_h1.csv' using 1:4 with lines"]
        elif n == 2:
            lines += ["set terminal png; set output 'gfrf_h2.png'",
                      "set xlabel 'omega1'; set ylabel 'omega2'",
                      "splot 'gfrf_h2.csv' using 1:2:5 with pm3d"]
    (out / "plot_gfrf.gp").write_text("\n".join(lines) + "\n")


def cmd_cutoff(args) -> int:
    cfg = _load_fit(args)
    kt = _load_kernels(args, cfg.dt)
    phi = parse_formula(args.formula)
    built = compose.build_formula_operator(phi, kt, cfg)
    scan = analysis.cutoff_scan(built.gfrf, args.threshold, args.omega_max,
                                args.points, args.max_order)
    out = _outdir(args)
    payload = scan.to_json()
    payload["formula"] = format_formula(phi)
    _write_json(payload, out / "cutoff.json")
    status = "" if scan.found else " (no grid frequency below threshold)"
    print(f"cutoff {scan.omega_star:.6g} rad/s "
          f"({scan.omega_star / (2 * math.pi):.6g} Hz){status}")
    return 0


def cmd_compress(args) -> int:
    x = signals.load_signal_csv(args.signal)
    kt = _load_kernels(args, x.dt)
    phi = parse_formula(args.formula)
    if args.cutoff_hz is not None:
        cutoff = 2 * math.pi * args.cutoff_hz
    elif args.auto_threshold is not None:
        cfg = _load_fit(args)
        built = compose.build_formula_operator(phi, kt, cfg)
        cutoff = analysis.cutoff_scan(built.gfrf, args.auto_threshold,
                                      args.omega_max, args.points,
                                      args.max_order).omega_star
    else:
        raise BadArity("provide --cutoff-hz or --auto-threshold")
    tol = analysis.Tolerances(tol_rho=args.tol_rho)
    report, xc, rho, rho_c = analysis.compression_safety_report(
        phi, x, cutoff, kt, tol)
    out = _outdir(args)
    signals.save_signal_csv(xc, out / "compressed.csv")
    monitor.save_robustness_csv(rho, out / "rho_original.csv")
    monitor.save_robustness_csv(rho_c, out / "rho_compressed.csv")
    payload = report.to_json()
    payload["formula"] = format_formula(phi)
    _write_json(payload, out / "safety_report.json")
    print(f"compression at {cutoff / (2 * math.pi):.6g} Hz: "
          f"{report.verdict} (rho_rel_diff {report.rho_rel_diff:.4g}, "
          f"flips {report.truth_flip_count})")
    return 0


def cmd_fit(args) -> int:
    cfg = _load_fit(args)
    out = _outdir(args)
    if args.operator in ("once", "hist"):
        a, b = (float(s) for s in args.interval.split(","))
        fit = compose.cached_poly_fit(args.operator, Interval(a, b), cfg)
        diag = fit.diagnostics
        payload = {
            "operator": args.operator,
            "interval": [a, b],
            "delays": list(fit.delays),
            "degree": fit.degree,
            "coefficients": [
                {"exponents": list(r), "alpha": alpha}
                for r, alpha in fit.terms if alpha != 0.0
            ],
            "diagnostics": {
                "rows": diag.rows, "unknowns": diag.unknowns,
                "rank": diag.rank, "condition": diag.condition,
                "rms_residual": diag.rms_residual,
                "rel_residual": diag.rel_residual,
            },
        }
        _write_json(payload, out / f"fit_{args.operator}.json")
        print(f"fit {args.operator}[{a},{b}]: rms residual "
              f"{diag.rms_residual:.4g} (relative {diag.rel_residual:.4g})")
    else:
        fit = compose.cached_separable_fit(args.operator, cfg)
        payload = {
            "operator": args.operator,
            "r_coeffs": list(fit.r.coeffs),
            "q_coeffs": list(fit.q.coeffs),
            "rms_residual": fit.rms_residual,
        }
        _write_json(payload, out / f"fit_{args.operator}.json")
        print(f"fit separable {args.operator}: rms residual "
              f"{fit.rms_residual:.4g}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbstl",
        description="Temporal-logic monitoring and its frequency analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kernels=True, fit=True):
        if kernels:
            p.add_argument("--kernels", help="kernel table JSON")
        if fit:
            p.add_argument("--fit", help="fit configuration JSON")
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None,
                       help="project config JSON supplying defaults")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("parse", help="dump the AST of a formula as JSON")
    p.add_argument("formula")
    p.add_argument("--out-file", default=None)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("monitor", help="robustness + verdict of a signal")
    p.add_argument("formula")
    p.add_argument("signal", help="signal CSV (t,value)")
    common(p, fit=False)
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("gfrf", help="frequency responses of a formula")
    p.add_argument("formula")
    common(p)
    p.add_argument("--orders", default="1,2")
    p.add_argument("--omega-max", type=float, default=None)
    p.add_argument("--points", type=int, default=129)
    p.add_argument("--prune", type=float, default=0.0)
    p.add_argument("--gnuplot", action="store_true")
    p.add_argument("--enable-sampled-since", type=int, default=0,
                   metavar="N", help="sample 'since' at N window lags")
    p.set_defaults(func=cmd_gfrf)

    p = sub.add_parser("cutoff", help="threshold cut-off frequency")
    p.add_argument("formula")
    common(p)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--omega-max", type=float, default=None)
    p.add_argument("--points", type=int, default=65)
    p.add_argument("--max-order", type=int, default=2)
    p.set_defaults(func=cmd_cutoff)

    p = sub.add_parser("compress", help="monitoring-safe compression check")
    p.add_argument("formula")
    p.add_argument("signal")
    common(p)
    p.add_argument("--cutoff-hz", type=float, default=None)
    p.add_argument("--auto-threshold", type=float, default=None)
    p.add_argument("--omega-max", type=float, default=None)
    p.add_argument("--points", type=int, default=65)
    p.add_argument("--max-order", type=int, default=2)
    p.add_argument("--tol-rho", type=float, default=0.05)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("fit", help="fit one basic operator")
    p.add_argument("operator", choices=["once", "hist", "min", "max"])
    p.add_argument("--interval", default="0,0.5", help="a,b in seconds")
    common(p, kernels=False)
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        _apply_project_config(args)
        return args.func(args)
    except _UNSUPPORTED as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except BbstlError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
