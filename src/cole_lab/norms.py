"""Norm functionals over solution families: L^p, gradient and Hessian
Sobolev quantities, L^infinity, and decay-exponent fits.

Each kind of KINDS has one core (s, p, t) -> (value, error) in _CORES,
which norm_sweep looks up: one L^p core serves u, Du and D^2 u, and one
bound core the main example's bound integrals.  A kind that is not defined
for a family (a distance off the erf family, a bound off the main example)
raises DomainError.

All L^p values are full R^n norms: (omega_{n-1} int_0^oo |u|^p r^(n-1)
dr)^(1/p) with omega_{n-1} = 2 pi^(n/2) / Gamma(n/2).  Values are the
norms themselves, not their p-th powers, so a law norm^p ~ t^((n-p)/2)
appears here as slope (n-p)/(2p).

Divergent integrals are detected by endpoint power counting from the
family's declared exponents, before any quadrature runs; the quadrature is
never asked to discover a divergence.  Non-integrable cases raise
DivergenceError, and norm_sweep converts errors into per-point flags so a
report never silently drops a grid point.  Every integrand here is
positive, so an integral below the smallest normal double raises
UnderflowError (flag "underflow") instead of passing for a norm of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import quadrature as quad
from .quadrature import Integrand, NonConvergenceError
from .solutions import SolutionFamily
from .specfun import DomainError, erf

__all__ = [
    "DivergenceError",
    "DegenerateFitError",
    "BracketingError",
    "UnderflowError",
    "KINDS",
    "NormSpec",
    "NormReport",
    "DecayFit",
    "sphere_measure",
    "default_t_grid",
    "lp_norm",
    "lp_distance",
    "grad_lp_norm",
    "grad_bound_integrals",
    "hess_bound_lp",
    "hessian_frobenius_sq",
    "hessian_frobenius_lp",
    "linf_norm",
    "norm_sweep",
    "decay_fit",
]

_REL_TOL = 1e-10
_TINY = np.finfo(float).tiny


class DivergenceError(ValueError):
    """Endpoint power counting certifies the integral is infinite."""


class DegenerateFitError(ValueError):
    """Decay fit requested on data spanning less than a decade."""


class BracketingError(RuntimeError):
    """sup search could not bracket a maximum (profile not unimodal?)."""


class UnderflowError(ArithmeticError):
    """The integral of a positive integrand came back below the smallest
    normal double, so the norm built from it has lost its precision."""


# Gamma(n/2) overflows a double past n = 343
_MAX_N = 343


def sphere_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2)/Gamma(n/2).
    Raises DomainError outside 1 <= n <= 343."""
    if not 1 <= n <= _MAX_N:
        raise DomainError(f"n must lie in 1..{_MAX_N} for an integral norm")
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def default_t_grid() -> np.ndarray:
    return np.geomspace(1e-2, 1e-8, 13)


@dataclass(frozen=True)
class NormSpec:
    """Which functional: a kind of KINDS with exponent p >= 1 (linf takes no
    p); the dimension is the family's n.

    The decay preconditions p < n (lp), p < n/2 (grad), p < n/3 (hess) are
    deliberately not enforced: supercritical p are the interesting test
    cases.
    """

    kind: str
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind != "linf" and not self.p >= 1.0:
            raise ValueError("p must be >= 1")


@dataclass(frozen=True)
class NormReport:
    family: str
    spec: NormSpec
    t_grid: tuple
    values: tuple
    quad_errors: tuple
    # per point: "ok" | "divergent" | "unbounded" | "non-converged" | "underflow"
    flags: tuple


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    max_log_residual: float   # worst |log value - fit| over used points, natural log
    t_grid: tuple
    n_points: int


# ---------------------------------------------------------------------------
# endpoint analysis helpers
# ---------------------------------------------------------------------------

def _integrand_tail(s: SolutionFamily, t: float, p: float, derivative_order: int):
    """Decay class of |D^k u|^p r^(n-1) given the family tail."""
    kind, par = s.tail(t)
    n = s.params.n
    if kind == "gaussian":
        return ("gaussian", par / math.sqrt(p))
    if kind == "power":
        beta = p * (par - derivative_order) + n - 1.0
        if beta >= -1.0:
            raise DivergenceError(
                f"{s.kind}: tail power {beta:g} not integrable at infinity")
        return ("power", beta)
    raise ValueError(f"unknown tail class {kind!r}")


def _check_origin(alpha: float, label: str):
    if alpha <= -1.0:
        raise DivergenceError(f"{label}: exponent {alpha:g} at r -> 0 not integrable")


def _layer_splits(s: SolutionFamily, t: float) -> tuple:
    mu = s.params.mu
    base = math.sqrt(4.0 * mu * t)
    splits = [base]
    p = s.params
    if s.kind == "MainExample" and p.a > 0.0:
        s0 = -(math.log(p.a) + 0.5 * p.n * math.log(4.0 * math.pi * mu * t))
        if s0 > 1.0:
            splits.append(math.sqrt(4.0 * mu * t * s0))
    if s.kind == "Stationary" and p.C > 0.0 and p.n >= 3:
        splits.append(p.C ** (-1.0 / (p.n - 2)))
    return tuple(splits)


def _positive(res: quad.QuadResult, name: str):
    """(value, error) of the integral of a positive integrand, which must
    come back as a normal double."""
    if not res.value >= _TINY:
        raise UnderflowError(
            f"{name}: integral {res.value!r} is below the smallest normal double")
    return res.value, res.abs_error_estimate


def _norm(omega: float, p: float, f, alpha: float, decay: tuple, splits: tuple,
          name: str):
    """(omega val)^(1/p) for val = int_0^oo f dr, f = |.|^p r^(n-1) with
    omega = sphere_measure(n), and the integral's error propagated to first
    order.  The cores take omega before they integrate, so an n past 343
    raises DomainError before any quadrature runs."""
    res = quad.integrate_semi_infinite(
        Integrand(f, small_r_exponent=alpha, decay=decay, splits=splits,
                  name=name),
        rel_tol=_REL_TOL)
    val, err = _positive(res, name)
    norm = (omega * val) ** (1.0 / p)
    return norm, norm * (err / val) / p


# ---------------------------------------------------------------------------
# L^p norms of u, Du and D^2 u, and the erf family's distance
# ---------------------------------------------------------------------------

def _abs_u_p(s: SolutionFamily, t: float, r, p: float):
    return np.abs(np.asarray(s.u(t, r))) ** p


def _abs_du_p(s: SolutionFamily, t: float, r, p: float):
    # |Du|_F = sqrt(u_r^2 + (n-1)(u/r)^2)
    ur = np.asarray(s.u_r(t, r))
    g = np.asarray(s.g(t, r))
    return (ur * ur + (s.params.n - 1.0) * g * g) ** (0.5 * p)


def _abs_d2u_p(s: SolutionFamily, t: float, r, p: float):
    return hessian_frobenius_sq(s, t, r) ** (0.5 * p)


# k -> (|D^k u|_F^p pointwise, its exponent at r -> 0 given u's, name); a
# regular origin (u ~ r) gives |Du|_F ~ 1 and |D^2 u|_F ~ r
_DERIVATIVES = (
    (_abs_u_p, lambda e: e, ""),
    (_abs_du_p, lambda e: e - 1.0 if e < 1.0 else 0.0, "grad "),
    (_abs_d2u_p, lambda e: e - 2.0 if e < 1.0 else 1.0, "hess "),
)


def _derivative_lp(s: SolutionFamily, p: float, t: float, k: int):
    """(value, error) of the R^n L^p norm of |D^k u|_F, k = 0, 1, 2."""
    pointwise, origin, name = _DERIVATIVES[k]
    n = s.params.n
    omega = sphere_measure(n)
    alpha = p * origin(s.small_r_exponent) + n - 1.0
    _check_origin(alpha, f"{s.kind} {name}L^{p:g}")
    decay = _integrand_tail(s, t, p, derivative_order=k)

    def f(r):
        return pointwise(s, t, r, p) * r ** (n - 1.0)

    return _norm(omega, p, f, alpha, decay, _layer_splits(s, t),
                 f"{s.kind}.{name.strip()}L{p:g}")


def lp_norm(s: SolutionFamily, spec: NormSpec, t: float) -> float:
    """Full R^n L^p norm of the family at time t (see module docstring).

    Raises DivergenceError when endpoint counting certifies divergence,
    e.g. the stationary 2 mu / r profile for every p, or the degenerate
    a = 0 main example (u = r/t, no Gaussian cutoff)."""
    if spec.kind != "lp":
        raise ValueError("lp_norm expects a NormSpec of kind 'lp'")
    return _derivative_lp(s, spec.p, t, 0)[0]


def grad_lp_norm(s: SolutionFamily, p: float, t: float) -> float:
    """Exact Frobenius gradient L^p norm, i.e. the R^n norm of |Du|_F =
    sqrt(u_r^2 + (n-1)(u/r)^2)."""
    return _derivative_lp(s, p, t, 1)[0]


def hessian_frobenius_sq(s: SolutionFamily, t: float, r):
    """|D^2 u|_F^2 = W^2 r^6 + 6 W P r^4 + 3(n+2) P^2 r^2 pointwise."""
    r = np.asarray(r, dtype=float)
    n = s.params.n
    W = np.asarray(s.W(t, r))
    P = np.asarray(s.P(t, r))
    r2 = r * r
    return (W * W * r2 ** 3 + 6.0 * W * P * r2 * r2
            + 3.0 * (n + 2.0) * P * P * r2)


def hessian_frobenius_lp(s: SolutionFamily, p: float, t: float) -> float:
    """Exact R^n L^p norm of |D^2 u|_F (cross-check for hess_bound_lp)."""
    return _derivative_lp(s, p, t, 2)[0]


def _distance_core(s: SolutionFamily, p: float, t: float):
    if s.kind != "NonStationaryErf":
        raise DomainError(
            "distance norms are defined for the NonStationaryErf family (n=3)")
    # |u_nst - u_st| = sqrt(mu/t) w(z), w = (2/sqrt(pi)) e^(-z^2)/erf(z),
    # z = r/sqrt(4 mu t): evaluated directly, no subtraction of 1/r terms
    mu = s.params.mu
    root = math.sqrt(4.0 * mu * t)
    amp = math.sqrt(mu / t)
    n = 3
    omega = sphere_measure(n)

    def f(r):
        z = r / root
        w = (2.0 / math.sqrt(math.pi)) * np.exp(-z * z) / erf(z)
        return (amp * w) ** p * r ** (n - 1.0)

    alpha = -p + n - 1.0  # w ~ 1/z at 0
    _check_origin(alpha, f"|u_nst - u_st| L^{p:g}")
    return _norm(omega, p, f, alpha, ("gaussian", root / math.sqrt(p)), (root,),
                 f"erf_distance.L{p:g}")


def lp_distance(s: SolutionFamily, p: float, t: float) -> float:
    """Full R^n L^p norm at time t of u - 2 mu / r, the distance of the erf
    family from its stationary limit (n = 3, C = 0), which is where the
    L^p -> 0 statement lives.  It uses the closed-form difference
    sqrt(mu/t) w(r/sqrt(4mu t)), whose integrand fails power counting at
    p >= 3.  Raises DomainError for any other family."""
    return _distance_core(s, p, t)[0]


# ---------------------------------------------------------------------------
# pointwise-bound integrals of the main example
# ---------------------------------------------------------------------------

def _bound(name: str, s: SolutionFamily, p: float, t: float, terms: tuple):
    """(sum over (k, c) of terms of t^-kp int r^c f^-p dr, the same sum of
    the integrals' error estimates), where f = 1 + a (4 pi mu t)^(n/2)
    e^(r^2/4mu t) is the main example's denominator bracket."""
    if s.kind != "MainExample" or s.params.a <= 0.0:
        raise DomainError(f"{name} is derived only for the main example, a > 0")
    for _, c in terms:
        if c <= -1.0:
            raise DivergenceError(f"{name}: term exponent {c:g} not integrable at 0")
    n, mu, a = s.params.n, s.params.mu, s.params.a
    b = a * (4.0 * math.pi * mu) ** (0.5 * n)
    value = error = 0.0
    for k, c in terms:
        val, err = _positive(
            quad.layer_power_integral(c, b, p, n, mu, t, rel_tol=_REL_TOL),
            "layer_power_integral")
        value += t ** (-k * p) * val
        error += t ** (-k * p) * err
    return value, error


def grad_bound_integrals(s: SolutionFamily, p: float, t: float) -> tuple:
    """(B1 + B2, error) for the main example with a > 0, where
    B1 = t^-p int r^(n-1) f^-p dr and B2 = t^-2p int r^(2p+n-1) f^-p dr.

    The bounds come from |u_r| <= t^-1 f^-1 + (2 mu)^-1 r^2 t^-2 f^-1 and
    u/r = t^-1 f^-1, so ||Du||_p <= 2 (omega (B1 + B2))^(1/p); they vanish
    as t -> 0 iff p < n/2 and are evaluated regardless so the supercritical
    failure is observable."""
    n = s.params.n
    return _bound("grad_bound_integrals", s, p, t,
                  ((1, n - 1.0), (2, 2.0 * p + n - 1.0)))


def hess_bound_lp(s: SolutionFamily, p: float, t: float) -> tuple:
    """(value, error) of the three second-derivative bound integrals of the
    main example: t^-p int r^(n-p-1) f^-p + t^-2p int r^(p+n-1) f^-p
    + t^-3p int r^(3p+n-1) f^-p.  Vanishes as t -> 0 iff p < n/3."""
    n = s.params.n
    return _bound("hess_bound_lp", s, p, t,
                  ((1, n - p - 1.0), (2, p + n - 1.0), (3, 3.0 * p + n - 1.0)))


# ---------------------------------------------------------------------------
# L^infinity
# ---------------------------------------------------------------------------

# points per bracket-refinement pass of linf_norm: each pass keeps 2 of the
# 16 intervals, so the bracket shrinks eightfold per call of u
_LINF_NODES = 17


def linf_norm(s: SolutionFamily, t: float):
    """(sup_r |u(t,r)|, argmax r) by bracket refinement.

    An 81-point geometric grid around sqrt(4 mu t) (widened up to three
    times) brackets an interior maximum; u_r must change sign across the
    bracket.  Each refinement pass then evaluates u on 17 equispaced nodes
    of [lo, hi] in one array call and keeps the argmax's two neighbours,
    until hi - lo <= 1e-12 hi; about 13 passes from the grid's bracket.

    Families certified unbounded by their endpoint data return (inf, 0) for
    an origin singularity and (inf, inf) for non-decaying tails, without
    searching.  A profile whose derivative does not change sign across the
    sampled bracket raises BracketingError rather than guessing."""
    t = float(t)
    if s.small_r_exponent < 0.0:
        return math.inf, 0.0
    kind, par = s.tail(t)
    if kind == "power" and par >= 0.0:
        return math.inf, math.inf
    scale = math.sqrt(4.0 * s.params.mu * t)
    grid = scale * np.geomspace(1e-2, 1e2, 81)
    for _ in range(3):
        vals = np.abs(np.asarray(s.u(t, grid)))
        i = int(np.argmax(vals))
        if 0 < i < len(grid) - 1:
            break
        grid = scale * np.geomspace(grid[0] / scale / 10.0,
                                    grid[-1] / scale * 10.0, len(grid) + 40)
    else:
        raise BracketingError("no interior maximum found over the sampled range")
    lo, hi = grid[i - 1], grid[i + 1]
    if not (s.u_r(t, lo) > 0.0 and s.u_r(t, hi) < 0.0):
        raise BracketingError(
            f"u_r does not change sign over [{lo:g}, {hi:g}]; profile not unimodal?")
    last = _LINF_NODES - 1
    while hi - lo > 1e-12 * hi:
        nodes = np.linspace(lo, hi, _LINF_NODES)
        i = int(np.argmax(np.abs(np.asarray(s.u(t, nodes)))))
        lo, hi = float(nodes[max(i - 1, 0)]), float(nodes[min(i + 1, last)])
    r_star = 0.5 * (lo + hi)
    return abs(float(s.u(t, r_star))), float(r_star)


# ---------------------------------------------------------------------------
# sweeps and decay fits
# ---------------------------------------------------------------------------

# kind -> (s, p, t) -> (value, error).  hess_bound_lp and linf_norm are
# called through their module names, which perfbench's tracer rebinds.
_CORES = {
    "lp": lambda s, p, t: _derivative_lp(s, p, t, 0),
    "grad_lp": lambda s, p, t: _derivative_lp(s, p, t, 1),
    "hess_bound_lp": lambda s, p, t: hess_bound_lp(s, p, t),
    "linf": lambda s, p, t: (linf_norm(s, t)[0], 0.0),
    "distance": _distance_core,
}
KINDS = tuple(_CORES)


def norm_sweep(s: SolutionFamily, spec: NormSpec,
               t_grid: Optional[Sequence[float]] = None) -> NormReport:
    """Evaluate one norm functional over a t-grid, converting divergences,
    unbounded sups, quadrature failures and integrals that underflow into
    per-point flags.  A kind that is not defined for the family raises
    DomainError."""
    ts = np.asarray(default_t_grid() if t_grid is None else t_grid, dtype=float)
    core = _CORES[spec.kind]
    values, errors, flags = [], [], []
    for t in ts:
        try:
            v, e = core(s, spec.p, float(t))
            flag = "unbounded" if math.isinf(v) else "ok"
        except DivergenceError:
            v, e, flag = math.nan, 0.0, "divergent"
        except (NonConvergenceError, BracketingError):
            v, e, flag = math.nan, 0.0, "non-converged"
        except UnderflowError:
            v, e, flag = math.nan, 0.0, "underflow"
        values.append(float(v))
        errors.append(float(e))
        flags.append(flag)
    return NormReport(family=s.label(), spec=spec,
                      t_grid=tuple(float(t) for t in ts),
                      values=tuple(values), quad_errors=tuple(errors),
                      flags=tuple(flags))


def decay_fit(report: NormReport) -> DecayFit:
    """Least-squares slope of log value vs log t over the converged points.

    max_log_residual (natural log) distinguishes exact power laws
    (residual ~ 1e-9 or below) from laws with logarithmic corrections."""
    ts, vs = [], []
    for t, v, fl in zip(report.t_grid, report.values, report.flags):
        if fl == "ok" and v > 0.0 and math.isfinite(v):
            ts.append(t)
            vs.append(v)
    if len(ts) < 4:
        raise DegenerateFitError(f"only {len(ts)} usable points, need >= 4")
    lv = np.log(np.asarray(vs))
    if lv.max() - lv.min() < math.log(10.0):
        raise DegenerateFitError("values span less than one decade")
    lt = np.log(np.asarray(ts))
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = lv - (slope * lt + intercept)
    return DecayFit(slope=float(slope), intercept=float(intercept),
                    max_log_residual=float(np.max(np.abs(resid))),
                    t_grid=tuple(ts), n_points=len(ts))
