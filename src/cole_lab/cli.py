"""Command-line front end: family evaluation, norm sweeps, decay fits,
residual checks, solver runs, and the full verification suite.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure (non-convergence, instability, a march of more than
2^20 steps, underflow, or a value that overflows a double); main alone
picks the code, from the type of the error a check raised where it was
made.  Output is deterministic for a fixed command line: fixed seeds,
fixed grids, no wall-clock content.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
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


class ConfigError(DomainError):
    """Bad flags, config keys or config files, or an unwritable --out."""


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _parse_range(spec: str, message: str):
    """(lo, hi, k) of a lo:hi:k spec as float, float, int; else ConfigError(message)."""
    try:
        lo, hi, k = spec.split(":")
        return float(lo), float(hi), int(k)
    except ValueError as exc:
        raise ConfigError(message) from exc


def _parse_t_grid(spec: str) -> np.ndarray:
    lo, hi, k = _parse_range(spec, f"bad t-grid spec {spec!r}, want lo:hi:k")
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf and k >= 2):
        raise ConfigError("t-grid needs positive finite endpoints and k >= 2")
    return np.geomspace(lo, hi, k)


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


def _record(report, *top) -> dict:
    """A report dataclass's fields by name, less those named in top, which
    the JSON mirror's top level already carries: one record per table row."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
            if f.name not in top}


def _rows(records, header) -> list:
    """Each record's fields in header order: the cells of the CSV table."""
    return [[rec[name] for name in header] for rec in records]


def _cells(rows):
    """The data lines of a table given as rows of cells, for _emit."""
    return (",".join(map(_fmt, row)) + "\n" for row in rows)


def _emit(args, meta: str, header, lines, json_obj):
    """Write CSV (metadata comment + header + data lines) or a JSON mirror.

    lines is an iterable of finished data lines (one or more per item), each
    item written as it is yielded, so no whole text is built; no emitted
    field (numbers, flags, names and titles) needs CSV quoting.
    """
    if args.format == "json":
        chunks = [json.dumps(_json_safe(json_obj), sort_keys=True, indent=2) + "\n"]
    else:
        chunks = itertools.chain(["# " + meta + "\n" + ",".join(header) + "\n"], lines)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    else:
        try:
            sys.stdout.writelines(chunks)
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
    # one call per block of rows.  The values stay a float64 array until a
    # row is formatted; as 40 000 Python floats they would take 1.3 MB more
    values = np.concatenate([fam.u(t_block, r_block) for t_block, r_block
                             in grid_blocks(np.where(ts > 0.0, ts, 1e-9), rs)])
    # (t, flag, values at rs) per t row
    slices = [(t, "t-floor" if t == 0.0 else "", us)
              for t, us in zip(ts.tolist(), values)]

    def lines():
        # one string per t row (its 200 lines), one join over a template of
        # the row's head and (r, value, separator) cells: the r cells are
        # formatted once, the values by repr, and a separator ends one point
        # and opens the next
        cells = [None] * (3 * len(r_list) + 1)
        cells[1::3] = [repr(r) + "," for r in r_list]
        for t, flag, us in slices:
            head, tail = repr(t) + ",", ",0.0," + flag + "\n"
            cells[0] = head
            cells[2::3] = map(repr, us.tolist())
            cells[3::3] = [tail + head] * len(r_list)
            cells[-1] = tail
            yield "".join(cells)

    meta = _meta(args, f"figure {which}",
                 f"family={fam.label()} | grid=200x200 | "
                 f"r=[{r_lo:g},{r_hi:g}] t=[{t_lo:g},{t_hi:g}]")
    json_obj = None
    if args.format == "json":   # 40 000 dicts, built only when written
        json_obj = {"figure": which, "family": fam.label(), "version": __version__,
                    "rows": [{"t": t, "r": r, "value": v, "error_estimate": 0.0,
                              "flags": flag}
                             for t, flag, us in slices
                             for r, v in zip(r_list, us.tolist())]}
    _emit(args, meta, ["t", "r", "value", "error_estimate", "flags"], lines(),
          json_obj)
    return 0


def _sweeps(args, subcommand: str):
    """(JSON top level, p list, metadata line, sweeps) of a norms or decay
    run; sweeps yields (p, NormReport) per p, each sweep run when it is
    reached.  linf does not depend on p, so its one sweep serves every p."""
    fam, ps, ts = _build_family(args), _parse_p_list(args.p), _parse_t_grid(args.t_grid)
    meta = _meta(args, subcommand, f"family={fam.label()} | kind={args.kind} | "
                                   f"p={args.p} | t-grid={args.t_grid}")
    top = {"family": fam.label(), "kind": args.kind, "version": __version__}

    def sweeps():
        report = None
        for p in ps:
            if report is None or args.kind != "linf":
                report = N.norm_sweep(fam, N.NormSpec(args.kind, p=p), ts)
            yield p, report
    return top, ps, meta, sweeps()


def cmd_norms(args) -> int:
    top, ps, meta, sweeps = _sweeps(args, "norms")
    reports = [{"p": p, **_record(rep, "family", "spec")} for p, rep in sweeps]
    header = ["t"] + [f"{c}[p={p:g}]" for p in ps for c in ("value", "error", "flags")]
    # the wide table: one row per t, each report's point in p order
    rows = [[t] + [x for rep in reports for x in
                   (rep["values"][i], rep["quad_errors"][i], rep["flags"][i])]
            for i, t in enumerate(reports[0]["t_grid"])]
    _emit(args, meta, header, _cells(rows), {**top, "reports": reports})
    return 0


def cmd_decay(args) -> int:
    top, ps, meta, sweeps = _sweeps(args, "decay")
    fits = []
    for p, report in sweeps:
        try:
            fits.append({"p": p, **_record(N.decay_fit(report))})
        except N.DegenerateFitError as exc:
            print(f"cole-lab: decay fit failed for p={p:g}: {exc}", file=sys.stderr)
            return 1
    header = ["p", "slope", "intercept", "max_log_residual", "n_points"]
    _emit(args, meta, header, _cells(_rows(fits, header)), {**top, "fits": fits})
    return 0


def cmd_residual(args) -> int:
    fam = _build_family(args)
    r_lo, r_hi, nr = _parse_range(args.grid, f"bad grid spec {args.grid!r}, "
                                             "want rmin:rmax:nr")
    ts = _parse_t_grid(args.t_grid)
    grid = R.Grid1D(r_lo, r_hi, nr, tuple(float(t) for t in ts))
    form = args.form
    run = R.radial_residual if form == "radial" else R.divergence_form_residual
    reports = [_record(run(fam, grid, derivative_source=source), "family", "form")
               for source in ("analytic", "finite-difference")]
    meta = _meta(args, "residual", f"family={fam.label()} | form={form} | "
                                   f"grid={args.grid} | t-grid={args.t_grid}")
    # a row is the form and then its record's fields, in order
    _emit(args, meta, ["form", "source", "max_abs_scaled", "l2_scaled", "worst_t",
                       "worst_r", "n_points"],
          _cells([[form, *rec.values()] for rec in reports]),
          {"family": fam.label(), "form": form, "version": __version__,
           "reports": reports})
    return 0


def cmd_solve(args) -> int:
    fam = _build_family(args)
    cfg = P.SolverConfig(n=args.n, mu=args.mu, r_max=args.r_max, nr=args.nr,
                         t0=args.t0, t1=args.t1, cfl=args.cfl,
                         scheme=args.scheme, r_min=args.r_min)
    run = P.march(cfg, fam)
    exact = np.asarray(fam.u(cfg.t1, run.radii))
    record = {"scheme": cfg.scheme, "nr": cfg.nr, "n_steps": run.n_steps,
              "dt": run.dt, "final_max": float(run.final.max()),
              "final_min": float(run.final.min()),
              "max_error_vs_exact": float(np.max(np.abs(run.final - exact))),
              "max_history": run.max_history, "min_history": run.min_history}
    meta = _meta(args, "solve", f"family={fam.label()} | scheme={cfg.scheme} | "
                                f"nr={cfg.nr} | t=[{cfg.t0:g},{cfg.t1:g}]")
    header = list(record)[:-2]   # the histories are in the JSON mirror alone
    _emit(args, meta, header, _cells(_rows([record], header)),
          {"family": fam.label(), "version": __version__, **record})
    return 0


def cmd_verify_all(args) -> int:
    report = acceptance.run_all()
    for res in report.results:
        print(res.summary())
        for line in res.lines:
            print(line)
    print("verify-all:", "PASS" if report.all_passed else "FAIL")
    if args.out:
        criteria = [_record(r) for r in report.results]
        header = ["index", "status", "title"]
        rows = _rows(({"status": "PASS" if c["passed"] else "FAIL", **c}
                      for c in criteria), header)
        meta = _meta(args, "verify-all", f"all_passed={report.all_passed}")
        _emit(args, meta, header, _cells(rows),
              {"version": __version__, "all_passed": report.all_passed,
               "criteria": criteria})
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

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
    p.add_argument("--scheme", default="cn-upwind", choices=P.SCHEMES)
    p.add_argument("--nr", type=int, default=256)
    p.add_argument("--r-max", dest="r_max", type=float, default=0.3)
    p.add_argument("--r-min", dest="r_min", type=float, default=0.0)
    p.add_argument("--t0", type=float, default=1e-3)
    p.add_argument("--t1", type=float, default=2e-3)
    p.add_argument("--cfl", type=float, default=0.25,
                   help="step bound in (0, 1], at most 0.5 for rk2: the "
                        "Courant number dt max(|u(t0)|, mu / (r_max - r_min)) "
                        "/ h for cn-central, the diffusion number mu dt / h^2 "
                        "for cn-upwind and rk2")
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
