"""Norm functionals over solution families: L^p, gradient and Hessian
Sobolev quantities, L^infinity, and decay-exponent fits.

Each kind of KINDS has one core (s, p, t) -> (value, error) in _CORES,
which norm_sweep looks up: one L^p core serves u, Du and D^2 u, and one
bound core the main example's bound integrals.  A kind that is not defined
for a family (a distance off the erf family, a bound off the main example)
raises DomainError.

A family that declares self_similar has ||D^k u(t)||_p = K t^((n-p)/(2p)
- k/2) exactly, so its lp and grad_lp sweeps compute one integral per
(p, k), at t_ref = 1/(4 mu) where sqrt(4 mu t) = 1, and scale it to every
grid point; lp_norm and grad_lp_norm still integrate at their own t.

All L^p values are full R^n norms: (omega_{n-1} int_0^oo |u|^p r^(n-1)
dr)^(1/p) with omega_{n-1} = 2 pi^(n/2) / Gamma(n/2).  Values are the
norms themselves, not their p-th powers, so a law norm^p ~ t^((n-p)/2)
appears here as slope (n-p)/(2p).

Divergent integrals are detected by endpoint power counting from the
family's declared exponents, before any quadrature runs; the quadrature is
never asked to discover a divergence.  Non-integrable cases raise
DivergenceError, and norm_sweep converts errors into per-point flags so a
report never silently drops a grid point.  The L^p integrands are scaled
in logs to O(1) at the layer and the bound integrals taken in xi =
r/sqrt(4 mu t), so UnderflowError (flag "underflow") means that a value
itself is below the smallest normal double, not only its p-th power.
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
    """A quantity came back below the smallest normal double (the integral
    of a positive integrand, every term of a residual grid), so what is
    built from it has lost its precision."""


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


def _integral(f, alpha: float, decay: tuple, splits: tuple, name: str):
    """(val, error) of val = int_0^oo f dr, a positive integrand.  The
    cores take omega = sphere_measure(n) before they integrate, so an n past
    343 raises DomainError before any quadrature runs."""
    res = quad.integrate_semi_infinite(
        Integrand(f, small_r_exponent=alpha, decay=decay, splits=splits,
                  name=name),
        rel_tol=_REL_TOL)
    return _positive(res, name)


def _norm(omega: float, p: float, val: float, err: float):
    """(omega val)^(1/p) for val = int_0^oo |.|^p r^(n-1) dr, with the
    integral's error propagated to first order."""
    norm = (omega * val) ** (1.0 / p)
    return norm, norm * (err / val) / p


def _root(log_scale: float, p: float, val: float, err: float):
    """(e^log_scale val)^(1/p), formed in logs (inf past the largest
    double), and its error to first order in the error err of val."""
    try:
        x = math.exp((log_scale + math.log(val)) / p)
    except OverflowError:
        x = math.inf
    return x, x * (err / val) / p


# ---------------------------------------------------------------------------
# L^p norms of u, Du and D^2 u, and the erf family's distance
# ---------------------------------------------------------------------------

def _abs_u(s: SolutionFamily, t: float, r):
    return np.abs(np.asarray(s.u(t, r)))


def _abs_du(s: SolutionFamily, t: float, r):
    # |Du|_F = sqrt(u_r^2 + (n-1)(u/r)^2)
    return np.hypot(np.asarray(s.u_r(t, r)),
                    math.sqrt(s.params.n - 1.0) * np.asarray(s.g(t, r)))


def _abs_d2u(s: SolutionFamily, t: float, r):
    return np.sqrt(hessian_frobenius_sq(s, t, r))


# k -> (|D^k u|_F pointwise, its exponent at r -> 0 given u's, name); a
# regular origin (u ~ r) gives |Du|_F ~ 1 and |D^2 u|_F ~ r
_DERIVATIVES = (
    (_abs_u, lambda e: e, ""),
    (_abs_du, lambda e: e - 1.0 if e < 1.0 else 0.0, "grad "),
    (_abs_d2u, lambda e: e - 2.0 if e < 1.0 else 1.0, "hess "),
)


def _derivative_lp(s: SolutionFamily, p: float, t: float, k: int):
    """(value, error) of the R^n L^p norm of |D^k u|_F, k = 0, 1, 2:
    exp((log omega + c + log val)/p), val = int_0^oo e^-c |D^k u|_F^p
    r^(n-1) dr, raising UnderflowError below the smallest normal double.

    The integrand is exp(p log |D^k u|_F + (n-1) log r - c), |Du|_F from
    np.hypot: |D^k u|_F^p, r^(n-1) and their product each leave the double
    range somewhere (near a singular origin, at deep t).  u ~ 4 mu / l, l
    the outermost layer split, gives c = p log(4 mu) + (n-1-p(k+1)) log l,
    so val is O(l) at every t; the exponentials cost |log f| ulps, 1e-13
    at worst."""
    modulus, origin, label = _DERIVATIVES[k]
    n = s.params.n
    omega = sphere_measure(n)
    alpha = p * origin(s.small_r_exponent) + n - 1.0
    _check_origin(alpha, f"{s.kind} {label}L^{p:g}")
    decay = _integrand_tail(s, t, p, derivative_order=k)
    if not 4.0 * s.params.mu * t >= _TINY:   # r^2/(4 mu t) has lost its digits
        raise UnderflowError(f"{s.kind}: 4 mu t is below the smallest normal double")
    splits = _layer_splits(s, t)
    c = (p * math.log(4.0 * s.params.mu)
         + (n - 1.0 - p * (k + 1.0)) * math.log(max(splits)))

    def f(r):
        with np.errstate(divide="ignore"):   # log 0 where u underflows
            return np.exp(p * np.log(modulus(s, t, r)) + (n - 1.0) * np.log(r) - c)

    name = f"{s.kind}.{label.strip()}L{p:g}"
    norm, err = _root(math.log(omega) + c, p, *_integral(f, alpha, decay, splits, name))
    if not norm >= _TINY:
        raise UnderflowError(f"{name}: {norm!r} is below the smallest normal double")
    return norm, err


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
    return _norm(omega, p, *_integral(f, alpha, ("gaussian", root / math.sqrt(p)),
                                      (root,), f"erf_distance.L{p:g}"))


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
    e^(r^2/4mu t) is the main example's denominator bracket.  Each integral
    is (4 mu t)^((c+1)/2) J, J = int xi^c f^-p dxi in xi = r/sqrt(4 mu t),
    which never underflows; the powers of t are added in logs."""
    if s.kind != "MainExample" or s.params.a <= 0.0:
        raise DomainError(f"{name} is derived only for the main example, a > 0")
    for _, c in terms:
        if c <= -1.0:
            raise DivergenceError(f"{name}: term exponent {c:g} not integrable at 0")
    n, mu, a = s.params.n, s.params.mu, s.params.a
    try:
        b = a * (4.0 * math.pi * mu) ** (0.5 * n)
    except OverflowError:
        b = math.inf
    if not 0.0 < b < math.inf:
        raise DomainError(f"{name}: b = a (4 pi mu)^(n/2) = {b!r} is not a "
                          "positive double")
    if not t >= _TINY:
        raise UnderflowError(f"{name}: t = {t!r} is below the smallest normal double")
    log_t, log_4mu = math.log(t), math.log(4.0 * mu)
    value = error = 0.0
    for k, c in terms:
        # mu' = 1/(4t) makes 4 mu' t = 1: the integral in xi
        val, err = _positive(
            quad.layer_power_integral(c, b, p, n, 0.25 / t, t, rel_tol=_REL_TOL),
            "layer_power_integral")
        term, term_err = _root(0.5 * (c + 1.0) * (log_4mu + log_t) - k * p * log_t,
                               1.0, val, err)
        value += term
        error += term_err
    if not value >= _TINY:
        raise UnderflowError(f"{name}: {value!r} is below the smallest normal double")
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

def _lp_kind(k: int):
    return (lambda s, p, t: _derivative_lp(s, p, t, k)), k


# kind -> (core (s, p, t) -> (value, error), the k of an L^p norm of
# |D^k u|_F, else None).  hess_bound_lp and linf_norm are called through
# their module names, which perfbench's tracer rebinds.
_CORES = {
    "lp": _lp_kind(0),
    "grad_lp": _lp_kind(1),
    "hess_bound_lp": (lambda s, p, t: hess_bound_lp(s, p, t), None),
    "linf": (lambda s, p, t: (linf_norm(s, t)[0], 0.0), None),
    "distance": (_distance_core, None),
}
KINDS = tuple(_CORES)

def _flagged(flag: str) -> tuple:
    return math.nan, 0.0, flag


def _point(core, s: SolutionFamily, p: float, t: float) -> tuple:
    """(value, error, flag) of one grid point, with the errors that stand
    for a property of the point turned into its flag."""
    try:
        v, e = core(s, p, t)
    except DivergenceError:
        return _flagged("divergent")
    except (NonConvergenceError, BracketingError):
        return _flagged("non-converged")
    except UnderflowError:
        return _flagged("underflow")
    return float(v), float(e), "unbounded" if math.isinf(v) else "ok"


def _power(x: float, y: float) -> float:
    try:
        return x ** y
    except OverflowError:
        return math.inf


def _scaled_points(s: SolutionFamily, p: float, k: int, ts) -> Optional[list]:
    """The points of an L^p sweep of |D^k u|_F over a self-similar family
    from one integral at t_ref = 1/(4 mu), where sqrt(4 mu t_ref) = 1.

    u(t, r) = lam u(lam^2 t, lam r) makes the norm exactly
    K t^((n-p)/(2p) - k/2), so each point takes the reference value and
    error times (t/t_ref)^((n-p)/(2p) - k/2); a point whose norm, so
    scaled, falls below the smallest normal double is flagged underflow.
    A divergence or non-convergence at the reference flags every point.
    None when t_ref is not a positive double or the norm there underflows:
    the caller then integrates at each t."""
    t_ref = 1.0 / (4.0 * s.params.mu)
    if not 0.0 < t_ref < math.inf:
        return None
    try:
        v_ref, e_ref = _derivative_lp(s, p, t_ref, k)
    except DivergenceError:
        return [_flagged("divergent")] * len(ts)
    except UnderflowError:
        return None
    except NonConvergenceError:
        v_ref = None
    # the per-t cores reject such a t once divergence is ruled out
    for t in ts:
        if not (t > 0.0 and math.isfinite(t)):
            raise DomainError(f"t must be positive and finite, got {t}")
    if v_ref is None:
        return [_flagged("non-converged")] * len(ts)
    e = 0.5 * (s.params.n - p) / p - 0.5 * k
    points = []
    for t in ts:
        scale = _power(t / t_ref, e)
        v = v_ref * scale
        if not v >= _TINY:
            points.append(_flagged("underflow"))
        else:
            points.append((v, e_ref * scale, "unbounded" if math.isinf(v) else "ok"))
    return points


def norm_sweep(s: SolutionFamily, spec: NormSpec,
               t_grid: Optional[Sequence[float]] = None) -> NormReport:
    """Evaluate one norm functional over a t-grid, converting divergences,
    unbounded sups, quadrature failures and integrals that underflow into
    per-point flags.  A kind that is not defined for the family raises
    DomainError.

    An L^p sweep of u or Du over a family that declares self_similar
    computes one integral per (p, k) and scales it to every t
    (_scaled_points); every other sweep integrates at each t."""
    ts = [float(t) for t in
          (default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float))]
    core, k = _CORES[spec.kind]
    points = None
    if s.self_similar and k is not None and ts:
        points = _scaled_points(s, spec.p, k, ts)
    if points is None:
        points = [_point(core, s, spec.p, t) for t in ts]
    values, errors, flags = zip(*points) if points else ((), (), ())
    return NormReport(family=s.label(), spec=spec, t_grid=tuple(ts),
                      values=values, quad_errors=errors, flags=flags)


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
    # a span of exactly one decade may round a few ulps below ln 10
    if lv.max() - lv.min() < math.log(10.0) * (1.0 - 1e-12):
        raise DegenerateFitError("values span less than one decade")
    lt = np.log(np.asarray(ts))
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = lv - (slope * lt + intercept)
    return DecayFit(slope=float(slope), intercept=float(intercept),
                    max_log_residual=float(np.max(np.abs(resid))),
                    t_grid=tuple(ts), n_points=len(ts))
