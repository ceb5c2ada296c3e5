"""Norm functionals over solution families: L^p, gradient and Hessian
Sobolev quantities, L^infinity, and decay-exponent fits.

All L^p values are full R^n norms: (omega_{n-1} int_0^oo |u|^p r^(n-1)
dr)^(1/p) with omega_{n-1} = 2 pi^(n/2) / Gamma(n/2).  Values are the
norms themselves, not their p-th powers, so a law norm^p ~ t^((n-p)/2)
appears here as slope (n-p)/(2p).

Divergent integrals are detected by endpoint power counting from the
family's declared exponents, before any quadrature runs; the quadrature is
never asked to discover a divergence.  Non-integrable cases raise
DivergenceError, and norm_sweep converts errors into per-point flags so a
report never silently drops a grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import quadrature as quad
from .quadrature import Integrand, NonConvergenceError
from .solutions import SolutionFamily
from .specfun import erf

__all__ = [
    "DivergenceError",
    "DegenerateFitError",
    "BracketingError",
    "NormSpec",
    "NormReport",
    "DecayFit",
    "GradNormResult",
    "HessBoundResult",
    "sphere_measure",
    "default_t_grid",
    "lp_norm",
    "lp_distance",
    "grad_lp_norm",
    "hess_bound_lp",
    "hessian_frobenius_sq",
    "hessian_frobenius_lp",
    "linf_norm",
    "norm_sweep",
    "decay_fit",
]

_REL_TOL = 1e-10


class DivergenceError(ValueError):
    """Endpoint power counting certifies the integral is infinite."""


class DegenerateFitError(ValueError):
    """Decay fit requested on data spanning less than a decade."""


class BracketingError(RuntimeError):
    """sup search could not bracket a maximum (profile not unimodal?)."""


def sphere_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2)/Gamma(n/2)."""
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def default_t_grid() -> np.ndarray:
    return np.geomspace(1e-2, 1e-8, 13)


@dataclass(frozen=True)
class NormSpec:
    """Which functional: kind in {"lp", "grad_lp", "hess_bound_lp", "linf",
    "lp_distance"}, with exponent p >= 1 and ambient dimension n.

    The decay preconditions p < n (lp), p < n/2 (grad), p < n/3 (hess) are
    deliberately not enforced: supercritical p are the interesting test
    cases.
    """

    kind: str
    p: float = 2.0
    n: int = 3
    reference: Optional[SolutionFamily] = None

    def __post_init__(self):
        if self.kind not in ("lp", "grad_lp", "hess_bound_lp", "linf", "lp_distance"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind != "linf" and not self.p >= 1.0:
            raise ValueError("p must be >= 1")
        if self.kind == "lp_distance" and self.reference is None:
            raise ValueError("lp_distance needs a reference family")


@dataclass(frozen=True)
class NormReport:
    family: str
    spec: NormSpec
    t_grid: tuple
    values: tuple
    quad_errors: tuple
    flags: tuple  # per point: "ok" | "divergent" | "unbounded" | "non-converged"


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    max_log_residual: float   # worst |log value - fit| over used points, natural log
    t_grid: tuple
    n_points: int


@dataclass(frozen=True)
class GradNormResult:
    """Exact Frobenius gradient norm plus the two pointwise-bound integrals
    t^-p int r^(n-1) f^-p dr and t^-2p int r^(2p+n-1) f^-p dr (main example
    only; f is the solution's denominator bracket).  bound_sum = B1 + B2."""

    value: float
    bound_1: Optional[float] = None
    bound_2: Optional[float] = None

    @property
    def bound_sum(self) -> Optional[float]:
        if self.bound_1 is None:
            return None
        return self.bound_1 + self.bound_2


@dataclass(frozen=True)
class HessBoundResult:
    """The three Hessian bound integrals t^-p int r^(n-p-1) f^-p,
    t^-2p int r^(p+n-1) f^-p, t^-3p int r^(3p+n-1) f^-p and their sum."""

    term_1: float
    term_2: float
    term_3: float

    @property
    def total(self) -> float:
        return self.term_1 + self.term_2 + self.term_3


# ---------------------------------------------------------------------------
# endpoint analysis helpers
# ---------------------------------------------------------------------------

def _integrand_tail(s: SolutionFamily, t: float, p: float, extra_power: float,
                    derivative_order: int = 0):
    """Decay class of |d^k u|^p r^(n-1+extra) given the family tail."""
    kind, par = s.tail(t)
    n = s.params.n
    if kind == "gaussian":
        return ("gaussian", par / math.sqrt(p))
    if kind == "power":
        beta = p * (par - derivative_order) + n - 1.0 + extra_power
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


def _quad(f, alpha, decay, splits, name):
    res = quad.integrate_semi_infinite(
        Integrand(f, small_r_exponent=alpha, decay=decay, splits=splits,
                  name=name),
        rel_tol=_REL_TOL)
    return res.value, res.abs_error_estimate


# ---------------------------------------------------------------------------
# L^p norms and distances
# ---------------------------------------------------------------------------

def _norm_from_integral(n: int, p: float, val: float, err: float):
    """(omega_{n-1} val)^(1/p) for the radial integral val = int |f|^p
    r^(n-1) dr, with the integral's error err propagated to first order."""
    norm = (sphere_measure(n) * val) ** (1.0 / p)
    return norm, norm * (err / val) / p if val > 0.0 else err


def _lp_core(s: SolutionFamily, p: float, t: float):
    n = s.params.n
    alpha = p * s.small_r_exponent + n - 1.0
    _check_origin(alpha, f"{s.kind} L^{p:g}")
    decay = _integrand_tail(s, t, p, 0.0)

    def f(r):
        return np.abs(np.asarray(s.u(t, r))) ** p * r ** (n - 1.0)

    val, err = _quad(f, alpha, decay, _layer_splits(s, t), f"{s.kind}.L{p:g}")
    return _norm_from_integral(n, p, val, err)


def lp_norm(s: SolutionFamily, spec: NormSpec, t: float) -> float:
    """Full R^n L^p norm of the family at time t (see module docstring).

    Raises DivergenceError when endpoint counting certifies divergence,
    e.g. the stationary 2 mu / r profile for every p, or the degenerate
    a = 0 main example (u = r/t, no Gaussian cutoff)."""
    if spec.kind != "lp":
        raise ValueError("lp_norm expects a NormSpec of kind 'lp'")
    if spec.n != s.params.n:
        raise ValueError("NormSpec.n does not match the family dimension")
    return _lp_core(s, spec.p, t)[0]


def _is_erf_vs_stationary(s: SolutionFamily, ref: SolutionFamily) -> bool:
    return (s.kind == "NonStationaryErf" and ref.kind == "Stationary"
            and ref.params.n == 3 and ref.params.C == 0.0
            and ref.params.mu == s.params.mu)


def _erf_distance_core(mu: float, p: float, t: float):
    # |u_nst - u_st| = sqrt(mu/t) w(z), w = (2/sqrt(pi)) e^(-z^2)/erf(z),
    # z = r/sqrt(4 mu t): evaluated directly, no subtraction of 1/r terms
    root = math.sqrt(4.0 * mu * t)
    amp = math.sqrt(mu / t)
    n = 3

    def f(r):
        z = r / root
        w = (2.0 / math.sqrt(math.pi)) * np.exp(-z * z) / erf(z)
        return (amp * w) ** p * r ** (n - 1.0)

    alpha = -p + n - 1.0  # w ~ 1/z at 0
    _check_origin(alpha, f"|u_nst - u_st| L^{p:g}")
    val, err = _quad(f, alpha, ("gaussian", root / math.sqrt(p)), (root,),
                     f"erf_distance.L{p:g}")
    return _norm_from_integral(n, p, val, err)


def _lp_distance_core(s: SolutionFamily, ref: SolutionFamily, p: float, t: float):
    if s.params.n != ref.params.n:
        raise ValueError("families live in different dimensions")
    if s is ref or (s.kind == ref.kind and s.params == ref.params):
        return 0.0, 0.0
    if _is_erf_vs_stationary(s, ref):
        return _erf_distance_core(s.params.mu, p, t)
    if _is_erf_vs_stationary(ref, s):
        return _erf_distance_core(ref.params.mu, p, t)

    # generic pointwise |difference|: conservative endpoint data (assumes no
    # leading-order cancellation at 0; may over-flag near-identical pairs)
    n = s.params.n
    alpha0 = min(s.small_r_exponent, ref.small_r_exponent)
    alpha = p * alpha0 + n - 1.0
    _check_origin(alpha, f"{s.kind}-{ref.kind} distance L^{p:g}")
    k1, par1 = s.tail(t)
    k2, par2 = ref.tail(t)
    if k1 == "gaussian" and k2 == "gaussian":
        decay = ("gaussian", max(par1, par2) / math.sqrt(p))
    else:
        beta0 = max([par for k, par in ((k1, par1), (k2, par2)) if k == "power"])
        beta = p * beta0 + n - 1.0
        if beta >= -1.0:
            raise DivergenceError(
                f"distance tail power {beta:g} not integrable at infinity")
        decay = ("power", beta)

    def f(r):
        return np.abs(np.asarray(s.u(t, r)) - np.asarray(ref.u(t, r))) ** p \
            * r ** (n - 1.0)

    splits = tuple(sorted(set(_layer_splits(s, t) + _layer_splits(ref, t))))
    val, err = _quad(f, alpha, decay, splits, "lp_distance")
    return _norm_from_integral(n, p, val, err)


def lp_distance(s: SolutionFamily, ref: SolutionFamily, p: float, t: float) -> float:
    """Full R^n L^p norm of the radial difference s - ref at time t.

    The (NonStationaryErf, Stationary n=3 C=0) pair uses the closed-form
    difference sqrt(mu/t) w(r/sqrt(4mu t)), which is where the L^p -> 0
    statement lives; its integrand fails power counting at p >= 3."""
    return _lp_distance_core(s, ref, p, t)[0]


# ---------------------------------------------------------------------------
# gradient and Hessian quantities
# ---------------------------------------------------------------------------

def _layer_power_integral(c: float, b: float, ell: float, n: int, mu: float,
                          t: float) -> float:
    return quad.layer_power_integral(c, b, ell, n, mu, t, rel_tol=_REL_TOL).value


def grad_lp_norm(s: SolutionFamily, p: float, t: float) -> GradNormResult:
    """Exact Frobenius gradient L^p norm, i.e. the R^n norm of |Du|_F =
    sqrt(u_r^2 + (n-1)(u/r)^2), plus (for the main example) the two
    pointwise-bound integrals B1 = t^-p int r^(n-1) f^-p dr and
    B2 = t^-2p int r^(2p+n-1) f^-p dr.

    The bounds come from |u_r| <= t^-1 f^-1 + (2 mu)^-1 r^2 t^-2 f^-1 and
    u/r = t^-1 f^-1; they vanish as t -> 0 iff p < n/2 and are evaluated
    regardless so the supercritical failure is observable."""
    n = s.params.n
    alpha = (p * (s.small_r_exponent - 1.0) + n - 1.0
             if s.small_r_exponent < 1.0 else n - 1.0)
    _check_origin(alpha, f"{s.kind} grad L^{p:g}")
    decay = _integrand_tail(s, t, p, 0.0, derivative_order=1)

    def f(r):
        ur = np.asarray(s.u_r(t, r))
        g = np.asarray(s.g(t, r))
        return (ur * ur + (n - 1.0) * g * g) ** (0.5 * p) * r ** (n - 1.0)

    val, _ = _quad(f, alpha, decay, _layer_splits(s, t), f"{s.kind}.gradL{p:g}")
    value = (sphere_measure(n) * val) ** (1.0 / p)

    b1 = b2 = None
    if s.kind == "MainExample" and s.params.a > 0.0:
        mu, a = s.params.mu, s.params.a
        b = a * (4.0 * math.pi * mu) ** (0.5 * n)
        b1 = t ** (-p) * _layer_power_integral(n - 1.0, b, p, n, mu, t)
        b2 = t ** (-2.0 * p) * _layer_power_integral(2.0 * p + n - 1.0, b, p, n, mu, t)
    return GradNormResult(value=value, bound_1=b1, bound_2=b2)


def hess_bound_lp(s: SolutionFamily, p: float, t: float) -> HessBoundResult:
    """The three second-derivative bound integrals for the main example:
    t^-p int r^(n-p-1) f^-p + t^-2p int r^(p+n-1) f^-p
    + t^-3p int r^(3p+n-1) f^-p.  Vanishes as t -> 0 iff p < n/3."""
    if s.kind != "MainExample" or s.params.a <= 0.0:
        raise ValueError("hess_bound_lp is derived only for the main example")
    n, mu, a = s.params.n, s.params.mu, s.params.a
    if n - p - 1.0 <= -1.0:
        raise DivergenceError(
            f"hess bound first term exponent {n - p - 1.0:g} not integrable at 0")
    b = a * (4.0 * math.pi * mu) ** (0.5 * n)
    t1 = t ** (-p) * _layer_power_integral(n - p - 1.0, b, p, n, mu, t)
    t2 = t ** (-2.0 * p) * _layer_power_integral(p + n - 1.0, b, p, n, mu, t)
    t3 = t ** (-3.0 * p) * _layer_power_integral(3.0 * p + n - 1.0, b, p, n, mu, t)
    return HessBoundResult(term_1=t1, term_2=t2, term_3=t3)


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
    n = s.params.n
    if s.small_r_exponent >= 1.0:
        alpha = p + n - 1.0      # |D^2 u|_F ~ r near a regular origin
    else:
        alpha = p * (s.small_r_exponent - 2.0) + n - 1.0
    _check_origin(alpha, f"{s.kind} hess L^{p:g}")
    decay = _integrand_tail(s, t, p, 0.0, derivative_order=2)

    def f(r):
        return hessian_frobenius_sq(s, t, r) ** (0.5 * p) * r ** (n - 1.0)

    val, _ = _quad(f, alpha, decay, _layer_splits(s, t), f"{s.kind}.hessL{p:g}")
    return (sphere_measure(n) * val) ** (1.0 / p)


# ---------------------------------------------------------------------------
# L^infinity
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def linf_norm(s: SolutionFamily, t: float):
    """(sup_r |u(t,r)|, argmax r) by bracketed golden-section search.

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
    # golden section maximization
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc = abs(float(s.u(t, c)))
    fd = abs(float(s.u(t, d)))
    while hi - lo > 1e-12 * hi:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = abs(float(s.u(t, c)))
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = abs(float(s.u(t, d)))
    r_star = 0.5 * (lo + hi)
    return abs(float(s.u(t, r_star))), float(r_star)


# ---------------------------------------------------------------------------
# sweeps and decay fits
# ---------------------------------------------------------------------------

def norm_sweep(s: SolutionFamily, spec: NormSpec,
               t_grid: Optional[Sequence[float]] = None) -> NormReport:
    """Evaluate one norm functional over a t-grid, converting divergences,
    unbounded sups, and quadrature failures into per-point flags."""
    ts = np.asarray(default_t_grid() if t_grid is None else t_grid, dtype=float)
    values, errors, flags = [], [], []
    for t in ts:
        try:
            if spec.kind == "lp":
                v, e = _lp_core(s, spec.p, float(t))
            elif spec.kind == "lp_distance":
                v, e = _lp_distance_core(s, spec.reference, spec.p, float(t))
            elif spec.kind == "grad_lp":
                v, e = grad_lp_norm(s, spec.p, float(t)).value, 0.0
            elif spec.kind == "hess_bound_lp":
                v, e = hess_bound_lp(s, spec.p, float(t)).total, 0.0
            else:
                v, e = linf_norm(s, float(t))[0], 0.0
            flag = "unbounded" if math.isinf(v) else "ok"
        except DivergenceError:
            v, e, flag = math.nan, 0.0, "divergent"
        except (NonConvergenceError, BracketingError):
            v, e, flag = math.nan, 0.0, "non-converged"
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
