"""The three benchmark workloads and the checks on their outputs.

A workload is a fixed list of `cole-lab` argv lists (one round).  Every
operation is one CLI invocation plus its output checks.  The checks here
use only numpy and the stored oracle values in reference.json; the figure
rows picked by the seed are handed to run.py, which checks them against
mpmath after the timed part.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

DEFAULT_T = np.geomspace(1e-2, 1e-8, 13)   # the CLI's default t-grid
NORM_TOL = 1e-9          # relative agreement with the mpmath oracle
SLOPE_TOL = 1e-9
INTERCEPT_TOL = 1e-8
ANALYTIC_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Optional[Callable] = None
    rc: int = 0          # expected exit code; 2 also needs a config-error message


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _csv(out):
    lines = out.splitlines()
    if not lines or not lines[0].startswith("# cole-lab "):
        raise ValueError("missing '# cole-lab' metadata line")
    rows = list(csv.reader(lines[1:]))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# endpoint power counting, computed here from the closed forms
# ---------------------------------------------------------------------------

# (exponent of u at r -> 0, tail: None for Gaussian decay, else the power of
# u at r -> oo), for the default parameters (a = 1, C = 0)
_ENDPOINTS = {
    "MainExample": (1.0, None),
    "SelfSimilar": (-1.0, None),
    "Stationary": (-1.0, -1.0),
    "NonStationaryErf": (1.0, -1.0),
}


def expected_flag(family, kind, n, p):
    """'ok', 'divergent' or 'unbounded' for one norm at default parameters."""
    alpha, beta = _ENDPOINTS[family]
    if kind == "linf":
        return "unbounded" if alpha < 0.0 or (beta is not None and beta >= 0.0) else "ok"
    if kind == "distance":
        # |u_erf - u_stationary| ~ 1/r at 0, Gaussian tail
        return "ok" if -p + n - 1.0 > -1.0 else "divergent"
    if kind == "hess_bound_lp":
        return "ok" if n - p - 1.0 > -1.0 else "divergent"
    k = 1 if kind == "grad_lp" else 0
    # a regular origin (alpha = 1, u odd in r) gives |D^k u| ~ r^(1-k)
    near0 = alpha - k if alpha < 1.0 else max(alpha - k, 0.0)
    if p * near0 + n - 1.0 <= -1.0:
        return "divergent"
    if beta is not None and p * (beta - k) + n - 1.0 >= -1.0:
        return "divergent"
    return "ok"


def oracle_key(kind, family, n, p):
    if kind == "linf":
        return f"linf:{family}:n={n}"
    return f"{kind}:{family}:n={n}:p={p:g}"


# ---------------------------------------------------------------------------
# norm-sweep checks
# ---------------------------------------------------------------------------

def _close(got, want, rel):
    return abs(got - want) <= rel * abs(want)


def check_norms(argv, out, ref, rng, samples):
    problems = []
    header, rows = _csv(out)
    family, kind = _flag(argv, "--family"), _flag(argv, "--kind")
    n = int(_flag(argv, "--n", "3"))
    ps = [float(x) for x in _flag(argv, "--p").split(",")]
    want_header = ["t"] + [f"{c}[p={p:g}]" for p in ps for c in ("value", "error", "flags")]
    if header != want_header:
        return [f"header {header} != {want_header}"]
    if len(rows) != len(DEFAULT_T):
        return [f"{len(rows)} rows, want {len(DEFAULT_T)}"]
    for i, row in enumerate(rows):
        if float(row[0]) != float(DEFAULT_T[i]):
            problems.append(f"row {i}: t {row[0]} is not the default grid point")
        for j, p in enumerate(ps):
            value, err, flag = float(row[1 + 3 * j]), float(row[2 + 3 * j]), row[3 + 3 * j]
            want = expected_flag(family, kind, n, p)
            where = f"{family} {kind} p={p:g} t={row[0]}"
            if flag != want:
                problems.append(f"{where}: flag {flag!r}, power counting gives {want!r}")
                continue
            if flag == "divergent" and not math.isnan(value):
                problems.append(f"{where}: divergent point carries value {value!r}")
            if flag == "unbounded" and value != math.inf:
                problems.append(f"{where}: unbounded point carries value {value!r}")
            if flag != "ok":
                continue
            if not (math.isfinite(value) and value > 0.0 and math.isfinite(err) and err >= 0.0):
                problems.append(f"{where}: value {value!r} error {err!r} not finite/positive")
                continue
            key = oracle_key(kind, family, n, p)
            if key in ref["norms"]:
                o = ref["norms"][key][i]
                if not _close(value, o, NORM_TOL):
                    problems.append(f"{where}: {value!r} vs oracle {o!r} "
                                    f"(rel {abs(value - o) / o:.2e} > {NORM_TOL:g})")
                if err > 0.0 and abs(value - o) > err:
                    problems.append(f"{where}: |value - oracle| {abs(value - o):.3e} "
                                    f"exceeds the reported error {err:.3e}")
    return problems


def _loglog_fit(values):
    lt, lv = np.log(DEFAULT_T), np.log(np.asarray(values))
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = float(np.max(np.abs(lv - (slope * lt + intercept))))
    return float(slope), float(intercept), resid


def check_decay(argv, out, ref, rng, samples):
    problems = []
    header, rows = _csv(out)
    if header != ["p", "slope", "intercept", "max_log_residual", "n_points"]:
        return [f"unexpected header {header}"]
    family, kind = _flag(argv, "--family"), _flag(argv, "--kind")
    n = int(_flag(argv, "--n", "3"))
    ps = [float(x) for x in _flag(argv, "--p", "2").split(",")]
    if [float(r[0]) for r in rows] != ps:
        return [f"rows for p={[r[0] for r in rows]}, want {ps}"]
    for row, p in zip(rows, ps):
        slope, intercept, resid, npts = (float(row[1]), float(row[2]),
                                         float(row[3]), int(row[4]))
        where = f"decay {family} {kind} p={p:g}"
        o_slope, o_icpt, o_resid = _loglog_fit(ref["norms"][oracle_key(kind, family, n, p)])
        exact = {("SelfSimilar", "lp"): (n - p) / (2.0 * p),
                 ("NonStationaryErf", "distance"): (3.0 - p) / (2.0 * p)}.get((family, kind))
        if exact is not None:
            if abs(slope - exact) > SLOPE_TOL:
                problems.append(f"{where}: slope {slope!r}, closed form {exact!r}")
            if resid > SLOPE_TOL:
                problems.append(f"{where}: exact power law fitted with residual {resid!r}")
        if abs(slope - o_slope) > SLOPE_TOL or abs(intercept - o_icpt) > INTERCEPT_TOL:
            problems.append(f"{where}: fit ({slope!r}, {intercept!r}) vs oracle fit "
                            f"({o_slope!r}, {o_icpt!r})")
        if abs(resid - o_resid) > INTERCEPT_TOL:
            problems.append(f"{where}: residual {resid!r} vs oracle fit residual {o_resid!r}")
        if npts != len(DEFAULT_T):
            problems.append(f"{where}: {npts} points fitted, want {len(DEFAULT_T)}")
    return problems


# ---------------------------------------------------------------------------
# verify-all checks
# ---------------------------------------------------------------------------

_SUMMARY = re.compile(r"^criterion +(\d+) \[(PASS|FAIL)\] ")
_SLOPE = re.compile(r"(?:\(n,p\)=\((\d+),([\d.]+)\)|p=([\d.]+)): slope ([-\d.]+)")
_RATIOS = re.compile(r"ratios \[([^\]]*)\]")
FACE_VALUE_FAILURES = (2, 6)


def check_verify_all(argv, out, ref, rng, samples):
    problems = []
    lines = out.splitlines()
    blocks, current = {}, None
    for line in lines:
        m = _SUMMARY.match(line)
        if m:
            current = int(m.group(1))
            blocks[current] = (m.group(2), [])
        elif current is not None and line.startswith("  ["):
            blocks[current][1].append(line)
    if sorted(blocks) != list(range(1, 11)):
        return [f"criteria reported: {sorted(blocks)}"]
    if lines[-1] != "verify-all: FAIL":
        problems.append(f"last line {lines[-1]!r}")
    for idx, (status, sub) in blocks.items():
        if idx in FACE_VALUE_FAILURES:
            # fail only on the vanishing cuts; sharpness ("fails to vanish")
            # lines must hold
            for line in sub:
                if line.startswith("  [FAIL]") and "vanishing" not in line:
                    problems.append(f"criterion {idx}: unexpected failure {line.strip()}")
            if status != "FAIL":
                problems.append(f"criterion {idx} reports {status}; documented as FAIL")
        elif status != "PASS" or any(line.startswith("  [FAIL]") for line in sub):
            problems.append(f"criterion {idx} reports {status}")
    slopes = 0
    for idx in (4, 5):
        for line in blocks[idx][1]:
            m = _SLOPE.search(line)
            if not m:
                continue
            slopes += 1
            if m.group(1):
                n, p = int(m.group(1)), float(m.group(2))
                want = (n - p) / (2.0 * p)
            else:
                p = float(m.group(3))
                want = (3.0 - p) / (2.0 * p)
            if abs(float(m.group(4)) - want) > 1e-6:
                problems.append(f"criterion {idx}: slope {m.group(4)} vs {want}")
    if slopes != 5:
        problems.append(f"found {slopes} slope lines in criteria 4-5, want 5")
    ratios = []
    for line in blocks[9][1]:
        m = _RATIOS.search(line)
        if m:
            ratios += [float(x.strip(" '")) for x in m.group(1).split(",")]
    if len(ratios) != 5 or not all(3.5 <= x <= 4.5 for x in ratios):
        problems.append(f"criterion 9 convergence ratios {ratios}")
    return problems


# ---------------------------------------------------------------------------
# pointwise checks
# ---------------------------------------------------------------------------

def _grid(spec):
    lo, hi, k = spec.split(":")
    return float(lo), float(hi), int(k)


def check_residual(argv, out, ref, rng, samples):
    problems = []
    header, rows = _csv(out)
    family, form = _flag(argv, "--family"), _flag(argv, "--form")
    r_lo, r_hi, nr = _grid(_flag(argv, "--grid"))
    t_lo, t_hi, k = _grid(_flag(argv, "--t-grid"))
    ts = [float(t) for t in np.geomspace(t_lo, t_hi, k)]
    radii = np.linspace(r_lo, r_hi, nr + 1)
    h = float(np.min(np.diff(radii)))
    inner = radii[radii > 0.0]
    want_pts = {"analytic": len(inner) * k,
                "finite-difference": int(np.sum(inner - 2.0 * h > 0.0)) * k}
    if [r[:2] for r in rows] != [[form, "analytic"], [form, "finite-difference"]]:
        return [f"unexpected rows {rows}"]
    bound = ref["residual"][family]
    for row in rows:
        source = row[1]
        mx, l2, wt, wr, npts = (float(row[2]), float(row[3]), float(row[4]),
                                float(row[5]), int(row[6]))
        where = f"residual {family} {form} {source}"
        if not (math.isfinite(mx) and math.isfinite(l2) and 0.0 <= l2 <= mx):
            problems.append(f"{where}: max {mx!r} l2 {l2!r}")
        if npts != want_pts[source]:
            problems.append(f"{where}: {npts} points, want {want_pts[source]}")
        if wt not in ts or wr not in inner:
            problems.append(f"{where}: worst point ({wt!r}, {wr!r}) is not a grid point")
        if source == "analytic" and not mx <= ANALYTIC_RESIDUAL_TOL:
            problems.append(f"{where}: {mx!r} > {ANALYTIC_RESIDUAL_TOL:g}")
        if source == "finite-difference" and not bound["lower"] <= mx <= bound["upper"]:
            problems.append(f"{where}: {mx!r} outside the stencil bound "
                            f"[{bound['lower']!r}, {bound['upper']!r}]")
    return problems


# (family, params, r range, t range, t = 0 row evaluated at this floor)
FIGURES = {
    1: ("MainExample", {"n": 3, "mu": 0.1, "a": 1.0, "C": 0.0}, (1e-4, 0.1), (2e-5, 1e-3)),
    2: ("SelfSimilar", {"n": 3, "mu": 0.005, "a": 1.0, "C": 0.0}, (5e-5, 7e-4), (0.0, 5e-5)),
    3: ("NonStationaryErf", {"n": 3, "mu": 0.01, "a": 0.0, "C": 0.0}, (1e-3, 0.3), (1e-3, 0.2)),
}
FIGURE_SIDE = 200
FIGURE_T_FLOOR = 1e-9
FIGURE_SAMPLES = 64


def check_figure(argv, out, ref, rng, samples):
    """Row count and grid structure; seeded rows are appended to `samples`
    for the oracle check in run.py."""
    which = int(_flag(argv, "--which"))
    family, par, (r_lo, r_hi), (t_lo, t_hi) = FIGURES[which]
    lines = out.split("\n")
    if lines[-1] != "" or not lines[0].startswith(f"# cole-lab 0.1.0 | figure {which} |"):
        return [f"figure {which}: malformed metadata or trailing line"]
    if lines[1] != "t,r,value,error_estimate,flags":
        return [f"figure {which}: header {lines[1]!r}"]
    data = lines[2:-1]
    if len(data) != FIGURE_SIDE * FIGURE_SIDE:
        return [f"figure {which}: {len(data)} rows"]
    rs = np.linspace(r_lo, r_hi, FIGURE_SIDE)
    ts = np.linspace(t_lo, t_hi, FIGURE_SIDE)
    problems = []
    for i in sorted(rng.choice(len(data), FIGURE_SAMPLES, replace=False).tolist()):
        t, r, v, e, flag = data[i].split(",")
        t, r, v, e = float(t), float(r), float(v), float(e)
        if t != float(ts[i // FIGURE_SIDE]) or r != float(rs[i % FIGURE_SIDE]) or e != 0.0:
            problems.append(f"figure {which} row {i}: {data[i]!r} off the grid")
            continue
        floor = t == 0.0
        if flag != ("t-floor" if floor else ""):
            problems.append(f"figure {which} row {i}: flag {flag!r}")
        samples.append([family, par, FIGURE_T_FLOOR if floor else t, r, v,
                        f"figure {which} row {i}"])
    return problems


# ---------------------------------------------------------------------------
# workload tables
# ---------------------------------------------------------------------------

def _norms(family, kind, *extra):
    return Op(("norms", "--family", family, "--kind", kind, "--p", "1,2") + extra,
              check_norms)


NORM_SWEEP = (
    _norms("MainExample", "lp"),
    _norms("MainExample", "grad_lp"),
    _norms("MainExample", "hess_bound_lp"),
    _norms("MainExample", "linf"),
    _norms("SelfSimilar", "lp"),
    _norms("SelfSimilar", "grad_lp"),
    # known fault: ValueError from norms.hess_bound_lp escapes cli.main
    Op(("norms", "--family", "SelfSimilar", "--kind", "hess_bound_lp", "--p", "1,2"),
       rc=2),
    _norms("SelfSimilar", "linf"),
    _norms("Stationary", "lp"),
    _norms("Stationary", "grad_lp"),
    _norms("Stationary", "linf"),
    _norms("NonStationaryErf", "lp"),
    _norms("NonStationaryErf", "grad_lp"),
    _norms("NonStationaryErf", "linf"),
    _norms("NonStationaryErf", "distance"),
    _norms("SelfSimilar", "grad_lp", "--n", "4"),
    _norms("MainExample", "grad_lp", "--n", "5"),
    Op(("decay", "--family", "SelfSimilar", "--kind", "lp", "--p", "1,2"), check_decay),
    Op(("decay", "--family", "NonStationaryErf", "--kind", "distance", "--p", "1,2"),
       check_decay),
    Op(("decay", "--family", "MainExample", "--kind", "linf"), check_decay),
    # known fault: "families live in different dimensions" escapes cli.main
    Op(("decay", "--family", "MainExample", "--kind", "distance", "--n", "2"),
       rc=2),
)

# family -> (parameter flags, r grid, t grid): the canonical grids of
# acceptance criterion 1 at 64 intervals
RESIDUAL_GRIDS = {
    "MainExample": ((), "1e-4:0.1:64", "2e-5:1e-3:3"),
    "SelfSimilar": (("--mu", "0.005"), "5e-5:7e-4:64", "1e-5:5e-5:2"),
    "Stationary": (("--C", "1.0"), "0.1:2.0:64", "0.5:1.0:2"),
    "NonStationaryErf": ((), "1e-3:0.3:64", "1e-3:0.2:3"),
}

POINTWISE = tuple(
    Op(("residual", "--family", family) + flags
       + ("--form", form, "--grid", grid, "--t-grid", tgrid), check_residual)
    for family, (flags, grid, tgrid) in RESIDUAL_GRIDS.items()
    for form in ("radial", "divergence")
) + tuple(Op(("figure", "--which", str(w)), check_figure) for w in (1, 2, 3))

VERIFY_ALL = (Op(("verify-all",), check_verify_all, rc=1),)

WORKLOADS = {"verify-all": VERIFY_ALL, "norm-sweep": NORM_SWEEP, "pointwise": POINTWISE}
