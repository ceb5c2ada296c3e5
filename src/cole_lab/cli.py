"""Command-line front end: family evaluation, norm sweeps, decay fits,
residual checks, solver runs, and the full verification suite.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure (non-convergence, instability, underflow, or a value
that overflows a double).  Output is deterministic for a
fixed command line: fixed seeds, fixed grids, no wall-clock content.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from . import acceptance
from . import norms as N
from . import pdesolver as P
from . import residual as R
from .quadrature import NonConvergenceError
from .solutions import (EvaluationError, Params, SingularityError,
                        SolutionFamily, grid_blocks, main_example,
                        nonstationary_erf, self_similar, stationary)
from .specfun import DomainError

__all__ = ["main", "build_parser"]

_FAMILIES = ("MainExample", "SelfSimilar", "Stationary", "NonStationaryErf")


class ConfigError(ValueError):
    """Bad flags, config keys, or parameter domains."""


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _parse_t_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, k = spec.split(":")
        lo, hi, k = float(lo), float(hi), int(k)
    except ValueError as exc:
        raise ConfigError(f"bad t-grid spec {spec!r}, want lo:hi:k") from exc
    if not (lo > 0.0 and hi > 0.0 and k >= 2):
        raise ConfigError("t-grid needs positive endpoints and k >= 2")
    return np.geomspace(lo, hi, k)


def _parse_r_grid(spec: str):
    try:
        lo, hi, k = spec.split(":")
        return float(lo), float(hi), int(k)
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}, want rmin:rmax:nr") from exc


def _parse_p_list(spec: str):
    try:
        ps = tuple(float(x) for x in spec.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad p list {spec!r}") from exc
    if not ps or not all(1.0 <= p < math.inf for p in ps):
        raise ConfigError("p values must be finite and >= 1")
    return ps


def _build_family(args) -> SolutionFamily:
    kind = args.family
    if kind is None:
        raise ConfigError(f"no family given, choose one of {_FAMILIES}")
    if kind == "NonStationaryErf":
        if args.n != 3:
            raise ConfigError("NonStationaryErf is defined for n=3 only")
        return nonstationary_erf(args.mu)
    params = Params(n=args.n, mu=args.mu, a=args.a, C=args.C)
    if kind == "MainExample":
        return main_example(params)
    if kind == "SelfSimilar":
        return self_similar(params)
    return stationary(params)


def _splice_config(argv: list, args) -> list:
    """argv with each entry of the --config file spliced in as a --key=value
    flag right after the subcommand, so argparse checks config values like
    flags, and the command line's own flags, which come later, win."""
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    flags = []
    for key, value in data.items():
        dest = key.replace("-", "_")
        # fn and subcommand are set by the parser, not by flags
        if dest not in vars(args) or dest in ("fn", "subcommand"):
            raise ConfigError(f"unknown config key {key!r}")
        text = value if isinstance(value, str) else json.dumps(value)
        flags.append(f"--{dest.replace('_', '-')}={text}")
    i = argv.index(args.subcommand) + 1
    return argv[:i] + flags + argv[i:]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    return obj


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _cells(rows):
    """The data lines of a table given as rows of cells, for _emit."""
    return lambda: [",".join(map(_fmt, row)) + "\n" for row in rows]


def _emit(args, meta: str, header, lines, json_obj):
    """Write CSV (metadata comment + header + data lines) or a JSON mirror.

    lines is a function returning the finished data lines; no emitted field
    (numbers, flags, names and titles) needs CSV quoting.
    """
    if args.format == "json":
        text = json.dumps(_json_safe(json_obj), sort_keys=True, indent=2) + "\n"
    else:
        text = "# " + meta + "\n" + ",".join(header) + "\n" + "".join(lines())
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # downstream consumer (head, etc.) closed the pipe; not an error
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())


def _meta(args, subcommand: str, extra: str) -> str:
    return (f"cole-lab {__version__} | {subcommand} | {extra} | "
            f"format={args.format}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_FIGURES = {
    # family-builder, (r_lo, r_hi), (t_lo, t_hi); a t = 0 row is evaluated
    # at t = 1e-9 and flagged "t-floor"
    1: (lambda: main_example(Params(n=3, mu=0.1, a=1.0)), (1e-4, 0.1),
        (2e-5, 1e-3)),
    2: (lambda: self_similar(Params(n=3, mu=0.005, a=1.0)), (5e-5, 7e-4),
        (0.0, 5e-5)),
    3: (lambda: nonstationary_erf(0.01), (1e-3, 0.3), (1e-3, 0.2)),
}


def cmd_figure(args) -> int:
    which = args.which
    if which is None:
        raise ConfigError(f"no figure given, choose one of {tuple(_FIGURES)}")
    build, (r_lo, r_hi), (t_lo, t_hi) = _FIGURES[which]
    fam = build()
    rs = np.linspace(r_lo, r_hi, 200)
    r_list = rs.tolist()
    ts = np.linspace(t_lo, t_hi, 200)
    # the family is undefined at t = 0; a column of t meets the r row in
    # one call per block of rows
    values = []
    for t_block, r_block in grid_blocks(np.where(ts > 0.0, ts, 1e-9), rs):
        values += fam.u(t_block, r_block).tolist()
    # (t, flag, values at rs) per t row
    slices = [(t, "t-floor" if t == 0.0 else "", us)
              for t, us in zip(ts.tolist(), values)]

    def lines():
        # column by column: each t and r is formatted once, each value by
        # repr, and no field needs quoting
        r_text = [repr(r) + "," for r in r_list]
        out = []
        for t, flag, us in slices:
            head, tail = repr(t) + ",", ",0.0," + flag + "\n"
            out += [head + r + v + tail for r, v in zip(r_text, map(repr, us))]
        return out

    meta = _meta(args, f"figure {which}",
                 f"family={fam.label()} | grid=200x200 | "
                 f"r=[{r_lo:g},{r_hi:g}] t=[{t_lo:g},{t_hi:g}]")
    json_obj = None
    if args.format == "json":   # 40 000 dicts, built only when written
        json_obj = {"figure": which, "family": fam.label(), "version": __version__,
                    "rows": [{"t": t, "r": r, "value": v, "error_estimate": 0.0,
                              "flags": flag}
                             for t, flag, us in slices for r, v in zip(r_list, us)]}
    _emit(args, meta, ["t", "r", "value", "error_estimate", "flags"], lines,
          json_obj)
    return 0


def _sweeps(fam, kind: str, ps, ts):
    """(p, NormReport) per p, each sweep run when it is reached; linf does
    not depend on p, so its one sweep serves every p."""
    report = None
    for p in ps:
        if report is None or kind != "linf":
            report = N.norm_sweep(fam, N.NormSpec(kind, p=p), ts)
        yield p, report


def cmd_norms(args) -> int:
    fam = _build_family(args)
    ps = _parse_p_list(args.p)
    ts = _parse_t_grid(args.t_grid)
    kind = args.kind
    reports = [rep for _, rep in _sweeps(fam, kind, ps, ts)]
    header = ["t"]
    for p in ps:
        header += [f"value[p={p:g}]", f"error[p={p:g}]", f"flags[p={p:g}]"]
    rows = []
    for i, t in enumerate(ts):
        row = [float(t)]
        for rep in reports:
            row += [rep.values[i], rep.quad_errors[i], rep.flags[i]]
        rows.append(row)
    meta = _meta(args, "norms", f"family={fam.label()} | kind={kind} | "
                                f"p={args.p} | t-grid={args.t_grid}")
    json_obj = {"family": fam.label(), "kind": kind, "version": __version__,
                "reports": [{"p": p, "t_grid": list(rep.t_grid),
                             "values": list(rep.values),
                             "quad_errors": list(rep.quad_errors),
                             "flags": list(rep.flags)}
                            for p, rep in zip(ps, reports)]}
    _emit(args, meta, header, _cells(rows), json_obj)
    return 0


def cmd_decay(args) -> int:
    fam = _build_family(args)
    ps = _parse_p_list(args.p)
    ts = _parse_t_grid(args.t_grid)
    kind = args.kind
    rows = []
    fits = []
    for p, report in _sweeps(fam, kind, ps, ts):
        try:
            fit = N.decay_fit(report)
        except N.DegenerateFitError as exc:
            return _fail(f"decay fit failed for p={p:g}: {exc}")
        fits.append(fit)
        rows.append([p, fit.slope, fit.intercept, fit.max_log_residual,
                     fit.n_points])
    meta = _meta(args, "decay", f"family={fam.label()} | kind={kind} | "
                                f"p={args.p} | t-grid={args.t_grid}")
    json_obj = {"family": fam.label(), "kind": kind, "version": __version__,
                "fits": [{"p": p, "slope": f.slope, "intercept": f.intercept,
                          "max_log_residual": f.max_log_residual,
                          "n_points": f.n_points, "t_grid": list(f.t_grid)}
                         for p, f in zip(ps, fits)]}
    _emit(args, meta, ["p", "slope", "intercept", "max_log_residual",
                       "n_points"], _cells(rows), json_obj)
    return 0


def cmd_residual(args) -> int:
    fam = _build_family(args)
    r_lo, r_hi, nr = _parse_r_grid(args.grid)
    ts = _parse_t_grid(args.t_grid)
    try:
        grid = R.Grid1D(r_lo, r_hi, nr, tuple(float(t) for t in ts))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    form = args.form
    rows = []
    reps = []
    for source in ("analytic", "finite-difference"):
        if form == "radial":
            rep = R.radial_residual(fam, grid, derivative_source=source)
        else:
            rep = R.divergence_form_residual(fam, grid, derivative_source=source)
        reps.append(rep)
        rows.append([form, source, rep.max_abs_scaled, rep.l2_scaled,
                     rep.worst_t, rep.worst_r, rep.n_points])
    meta = _meta(args, "residual", f"family={fam.label()} | form={form} | "
                                   f"grid={args.grid} | t-grid={args.t_grid}")
    json_obj = {"family": fam.label(), "form": form, "version": __version__,
                "reports": [{"derivative_source": rep.derivative_source,
                             "max_abs_scaled": rep.max_abs_scaled,
                             "l2_scaled": rep.l2_scaled,
                             "worst_t": rep.worst_t, "worst_r": rep.worst_r,
                             "n_points": rep.n_points} for rep in reps]}
    _emit(args, meta, ["form", "source", "max_abs_scaled", "l2_scaled",
                       "worst_t", "worst_r", "n_points"], _cells(rows), json_obj)
    return 0


def cmd_solve(args) -> int:
    fam = _build_family(args)
    try:
        cfg = P.SolverConfig(n=args.n, mu=args.mu, r_max=args.r_max,
                             nr=args.nr, t0=args.t0, t1=args.t1, cfl=args.cfl,
                             scheme=args.scheme, r_min=args.r_min)
        run = P.march(cfg, fam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    exact = np.asarray(fam.u(cfg.t1, run.radii))
    err = float(np.max(np.abs(run.final - exact)))
    rows = [[cfg.scheme, cfg.nr, run.n_steps, run.dt,
             float(run.final.max()), float(run.final.min()), err]]
    meta = _meta(args, "solve", f"family={fam.label()} | scheme={cfg.scheme} | "
                                f"nr={cfg.nr} | t=[{cfg.t0:g},{cfg.t1:g}]")
    json_obj = {"family": fam.label(), "version": __version__,
                "scheme": cfg.scheme, "nr": cfg.nr, "n_steps": run.n_steps,
                "dt": run.dt, "final_max": float(run.final.max()),
                "final_min": float(run.final.min()),
                "max_error_vs_exact": err,
                "max_history": list(run.max_history),
                "min_history": list(run.min_history)}
    _emit(args, meta, ["scheme", "nr", "n_steps", "dt", "final_max",
                       "final_min", "max_error_vs_exact"], _cells(rows), json_obj)
    return 0


def cmd_verify_all(args) -> int:
    report = acceptance.run_all()
    for res in report.results:
        print(res.summary())
        for line in res.lines:
            print(line)
    print("verify-all:", "PASS" if report.all_passed else "FAIL")
    if args.out:
        rows = [[r.index, "PASS" if r.passed else "FAIL", r.title]
                for r in report.results]
        json_obj = {"version": __version__, "all_passed": report.all_passed,
                    "criteria": [{"index": r.index, "title": r.title,
                                  "passed": r.passed, "lines": list(r.lines)}
                                 for r in report.results]}
        meta = _meta(args, "verify-all", f"all_passed={report.all_passed}")
        _emit(args, meta, ["index", "status", "title"], _cells(rows), json_obj)
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _fail(msg: str) -> int:
    print(f"cole-lab: {msg}", file=sys.stderr)
    return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every main() call can share it."""
    parser = argparse.ArgumentParser(
        prog="cole-lab",
        description="verification tools for explicit radial Burgers-system "
                    "solution families")
    parser.add_argument("--version", action="version",
                        version=f"cole-lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, family=True, t_grid=False):
        p.add_argument("--config", help="JSON config file; flags win on conflict")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        if family:
            p.add_argument("--family", choices=_FAMILIES)
            p.add_argument("--n", type=int, default=3)
            p.add_argument("--mu", type=float, default=0.1)
            p.add_argument("--a", type=float, default=1.0)
            p.add_argument("--C", type=float, default=0.0)
        if t_grid:
            p.add_argument("--t-grid", dest="t_grid", default="1e-2:1e-8:13",
                           help="lo:hi:k")

    p = sub.add_parser("figure", help="emit figure surface data (200x200 grid)")
    common(p, family=False)
    p.add_argument("--which", type=int, choices=sorted(_FIGURES))
    p.set_defaults(fn=cmd_figure)

    for name, fn, text in (("norms", cmd_norms, "norm sweep over a t-grid"),
                           ("decay", cmd_decay, "log-log decay fit of a norm sweep")):
        p = sub.add_parser(name, help=text)
        common(p, t_grid=True)
        p.add_argument("--kind", default="lp", choices=N.KINDS)
        p.add_argument("--p", default="2",
                       help="comma-separated exponents (linf ignores p: its "
                            "one sweep is reported under each)")
        p.set_defaults(fn=fn)

    p = sub.add_parser("residual", help="PDE residual report on a grid")
    common(p, t_grid=True)
    p.add_argument("--grid", default="1e-4:0.1:200", help="rmin:rmax:nr")
    p.add_argument("--form", default="radial", choices=["radial", "divergence"])
    p.set_defaults(fn=cmd_residual)

    p = sub.add_parser("solve", help="finite-difference oracle march")
    common(p)
    p.add_argument("--scheme", default="cn-upwind",
                   choices=["cn-upwind", "cn-central", "rk2"])
    p.add_argument("--nr", type=int, default=256)
    p.add_argument("--r-max", dest="r_max", type=float, default=0.3)
    p.add_argument("--r-min", dest="r_min", type=float, default=0.0)
    p.add_argument("--t0", type=float, default=1e-3)
    p.add_argument("--t1", type=float, default=2e-3)
    p.add_argument("--cfl", type=float, default=0.25)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    common(p, family=False)
    p.set_defaults(fn=cmd_verify_all)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_splice_config(argv, args))
        return args.fn(args)
    except ConfigError as exc:
        print(f"cole-lab: config error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, P.StabilityError, N.UnderflowError,
            SingularityError) as exc:
        print(f"cole-lab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except N.DivergenceError as exc:
        print(f"cole-lab: divergent quantity: {exc}", file=sys.stderr)
        return 1
    except (EvaluationError, DomainError) as exc:
        print(f"cole-lab: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
