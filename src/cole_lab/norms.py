"""Norm functionals over solution families: L^p, gradient and Hessian
Sobolev quantities, L^infinity, and decay-exponent fits.

Each kind of KINDS has one sweep (s, p, ts) -> points in _SWEEPS, which
norm_sweep looks up: one L^p core serves u, Du, D^2 u and the erf
family's distance from 2 mu / r, and one bound core the main example's
bound integrals.  A kind that is not defined for a family (a distance off
the erf family, a bound off the main example) raises DomainError.

The lp, grad_lp, hess_bound_lp and distance sweeps integrate in lockstep:
each plans the integrals of every grid point (three per point for the hess
bound) and runs all of them in one quadrature.integrate_many, with one
batched integrand per (family, kind, p) whose per-point t and scale enter
as columns.  It costs one integrand call per generation for the whole grid,
and each point gets the bits of the one-t function (lp_norm, grad_lp_norm,
hess_bound_lp, lp_distance), which integrates alone.

A family that declares self_similar has ||D^k u(t)||_p = K t^((n-p)/(2p)
- k/2) exactly, so its lp and grad_lp sweeps compute one integral per
(p, k), at t_ref = 1/(4 mu) where sqrt(4 mu t) = 1, and scale it to every
grid point; lp_norm and grad_lp_norm still integrate at their own t.

L^infinity does not depend on p.  Its sweep is one call of linf_norm on
the whole t-grid, which searches every point's bracket in lockstep: each
step is one array call of the evaluator for all points, and each point
gets the bits of its own float-t search.  A point that cannot be bracketed
is flagged non-converged without stopping the others.

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

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import quadrature as quad
from .quadrature import Integrand, NonConvergenceError
from .solutions import SolutionFamily, _check_t, _pow
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

def _integrand_tail(s: SolutionFamily, p: float, tail: tuple, order: int):
    """Decay class of m^p r^(n-1) given the tail (kind, par) of a modulus m
    of the given order (_MODULI): a power tail falls order powers faster."""
    kind, par = tail
    n = s.params.n
    if kind == "gaussian":
        return ("gaussian", par / math.sqrt(p))
    if kind == "power":
        beta = p * (par - order) + n - 1.0
        if beta >= -1.0:
            raise DivergenceError(
                f"{s.kind}: tail power {beta:g} not integrable at infinity")
        return ("power", beta)
    raise ValueError(f"unknown tail class {kind!r}")


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


def _positive(res, name: str):
    """(value, error) of the integral of a positive integrand, which must
    come back as a normal double; res is a QuadResult, or the
    NonConvergenceError that integrate_many returned in its place."""
    if isinstance(res, NonConvergenceError):
        raise res
    if not res.value >= _TINY:
        raise UnderflowError(
            f"{name}: integral {res.value!r} is below the smallest normal double")
    return res.value, res.abs_error_estimate


# A plan of the integrals behind one grid point, plan(s, p, t) ->
# (members, args, finish), makes the checks that may flag the point
# (DivergenceError, UnderflowError) before any quadrature runs.  members are
# the Integrands without f, args their arguments, which follow s and p in
# the kind's integrand(s, p, *args, r), and finish maps their results (in
# members' order) to the point's (value, error).  _each_t runs the plans of
# a whole t-grid in one integrate_many, with (rows, 1) columns.  _one runs a
# plan's integrals one at a time through integrate_semi_infinite, with
# float arguments: it is the only path in the lab that integrates alone,
# kept because perfbench's tracer counts only integrate_semi_infinite
# spans.  The L^p plan takes omega = sphere_measure(n) first, so an n past
# 343 raises DomainError before any quadrature runs.

def _one(s: SolutionFamily, p: float, integrand, plan: tuple):
    """(value, error) of plan's integrals, each through
    integrate_semi_infinite."""
    members, args, finish = plan
    return finish([quad.integrate_semi_infinite(dataclasses.replace(
                       m, f=functools.partial(integrand, s, p, *a)), rel_tol=_REL_TOL)
                   for m, a in zip(members, args)])


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
    u_r, g = s.at(t, r, "u_r", "g")
    return np.hypot(np.asarray(u_r), math.sqrt(s.params.n - 1.0) * np.asarray(g))


def _abs_d2u(s: SolutionFamily, t: float, r):
    # |D^2 u|_F = r m sqrt(a^2 + 6ab + 3(n+2) b^2) with A = W r^2,
    # m = max(|A|, |P|), a = A/m, b = P/m: scaled before squaring, so it
    # is a double wherever W and P are (W^2 r^6 passed the largest double
    # from t ~ 1e-52 at mu = 0.1)
    r = np.asarray(r, dtype=float)
    W, P = map(np.asarray, s.at(t, r, "W", "P"))
    A = W * r * r
    m = np.maximum(np.abs(A), np.abs(P))
    a, b = (x / np.where(m > 0.0, m, 1.0) for x in (A, P))
    return r * m * np.sqrt(a * a + 6.0 * a * b + 3.0 * (s.params.n + 2.0) * b * b)


def _log_of(modulus):
    return lambda s, t, r: np.log(modulus(s, t, r))


def _log_erf_distance(s: SolutionFamily, t: float, r):
    # log |u - 2 mu/r| = log(sqrt(mu/t) (2/sqrt(pi)) e^(-z^2) / erf z),
    # z = r/sqrt(4 mu t): no 1/r terms subtracted, and a double where the
    # difference is not (sqrt(mu/t) passes the largest double at mu = 1e300)
    mu = s.params.mu
    z = r / np.sqrt(4.0 * mu * t)
    return (0.5 * (math.log(mu) - np.log(t)) + math.log(2.0 / math.sqrt(math.pi))
            - z * z - np.log(erf(z)))


def _erf_distance_tail(s: SolutionFamily, t: float) -> tuple:
    if s.kind != "NonStationaryErf":
        raise DomainError("distance norms are defined for the NonStationaryErf family (n=3)")
    return ("gaussian", math.sqrt(4.0 * s.params.mu * t))


def _u_tail(s: SolutionFamily, t: float) -> tuple:
    return s.tail(t)


# The L^p moduli m, k -> (log m (s, t, r), its exponent at r -> 0 given
# u's, its tail (s, t) -> (kind, par), the order j with m ~ 4 mu / l^(j+1),
# label).  k = 0, 1, 2 are |D^k u|_F, where a regular origin (u ~ r) gives
# |Du|_F ~ 1 and |D^2 u|_F ~ r; k = 3 is the erf family's distance |u -
# 2 mu/r| = sqrt(mu/t) w(z), w ~ 1/z at 0, DomainError off that family.
_MODULI = (
    (_log_of(_abs_u), lambda e: e, _u_tail, 0, ""),
    (_log_of(_abs_du), lambda e: e - 1.0 if e < 1.0 else 0.0, _u_tail, 1, "grad "),
    (_log_of(_abs_d2u), lambda e: e - 2.0 if e < 1.0 else 1.0, _u_tail, 2, "hess "),
    (_log_erf_distance, lambda e: -1.0, _erf_distance_tail, 0, "distance "),
)


def _lp_plan(s: SolutionFamily, p: float, t: float, k: int) -> tuple:
    """The plan (see _one) of the R^n L^p norm of the modulus m of _MODULI[k]:
    exp((log omega + c + log val)/p), val = int_0^oo e^-c m^p r^(n-1) dr
    (_lp_integrand); UnderflowError below the smallest normal double.

    m^p, r^(n-1) and their product each leave the double range somewhere
    (near a singular origin, at deep t, at huge mu).  m ~ 4 mu / l^(j+1), l
    the outermost layer split, gives c = p log(4 mu) + (n-1-p(j+1)) log l,
    so val is O(l) at every t; the exponentials cost |log f| ulps, 1e-13 at
    worst."""
    _, origin, tail_of, order, label = _MODULI[k]
    n = s.params.n
    omega = sphere_measure(n)
    tail = tail_of(s, t)     # DomainError first where m is not defined
    alpha = p * origin(s.small_r_exponent) + n - 1.0
    if alpha <= -1.0:
        raise DivergenceError(
            f"{s.kind} {label}L^{p:g}: exponent {alpha:g} at r -> 0 not integrable")
    decay = _integrand_tail(s, p, tail, order)
    if not 4.0 * s.params.mu * t >= _TINY:   # r^2/(4 mu t) has lost its digits
        raise UnderflowError(f"{s.kind}: 4 mu t is below the smallest normal double")
    splits = _layer_splits(s, t)
    c = (p * math.log(4.0 * s.params.mu)
         + (n - 1.0 - p * (order + 1.0)) * math.log(max(splits)))
    name = f"{s.kind}.{label.strip()}L{p:g}"

    def finish(results):
        norm, err = _root(math.log(omega) + c, p, *_positive(results[0], name))
        if not norm >= _TINY:
            raise UnderflowError(f"{name}: {norm!r} is below the smallest normal double")
        return norm, err
    member = Integrand(small_r_exponent=alpha, decay=decay, splits=splits, name=name)
    return [member], [(t, c)], finish


def _lp_integrand(k: int):
    """The integrand (s, p, t, c, r) of _lp_plan: exp(p log m + (n-1) log r
    - c) at (t, r), m the modulus of _MODULI[k]."""
    log_modulus = _MODULI[k][0]

    def integrand(s, p, t, c, r):
        with np.errstate(divide="ignore"):   # log 0 where the modulus underflows
            return np.exp(p * log_modulus(s, t, r) + (s.params.n - 1.0) * np.log(r) - c)
    return integrand


def _derivative_lp(s: SolutionFamily, p: float, t: float, k: int):
    """(value, error) of the R^n L^p norm of the modulus _MODULI[k] at t."""
    return _one(s, p, _lp_integrand(k), _lp_plan(s, p, t, k))


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
    """|D^2 u|_F^2 = W^2 r^6 + 6 W P r^4 + 3(n+2) P^2 r^2 pointwise, the
    square of |D^2 u|_F formed without squaring W or P; SingularityError
    where W or P is not a finite double."""
    return _abs_d2u(s, t, r) ** 2


def hessian_frobenius_lp(s: SolutionFamily, p: float, t: float) -> float:
    """Exact R^n L^p norm of |D^2 u|_F (cross-check for hess_bound_lp)."""
    return _derivative_lp(s, p, t, 2)[0]


def lp_distance(s: SolutionFamily, p: float, t: float) -> float:
    """Full R^n L^p norm at time t of u - 2 mu / r, the distance of the erf
    family from its stationary limit (n = 3, C = 0), which is where the
    L^p -> 0 statement lives.  It uses the closed-form difference
    sqrt(mu/t) w(r/sqrt(4mu t)), whose integrand fails power counting at
    p >= 3.  Raises DomainError for any other family."""
    return _derivative_lp(s, p, t, 3)[0]


# ---------------------------------------------------------------------------
# pointwise-bound integrals of the main example
# ---------------------------------------------------------------------------

def _bound_plan(name: str, s: SolutionFamily, p: float, t: float,
                terms: tuple) -> tuple:
    """The plan (see _one) of the sum over (k, c) of terms of t^-kp int r^c
    f^-p dr, and the same sum of the integrals' error estimates, where f =
    1 + a (4 pi mu t)^(n/2) e^(r^2/4mu t) is the main example's denominator
    bracket.  Each integral is (4 mu t)^h J, h = (c+1)/2, J = int xi^c f^-p
    dxi in xi = r/sqrt(4 mu t), which never underflows.  A term's power
    t^-kp (4 mu t)^h = (4 mu)^h t^(h-kp) is formed directly where it is a
    normal double, else in logs (exp of a log costs |log| ulps)."""
    if s.kind != "MainExample" or s.params.a <= 0.0:
        raise DomainError(f"{name} is derived only for the main example, a > 0")
    for _, c in terms:
        if c <= -1.0:
            raise DivergenceError(f"{name}: term exponent {c:g} not integrable at 0")
    n, mu, a = s.params.n, s.params.mu, s.params.a
    b = a * _pow(4.0 * math.pi * mu, 0.5 * n)
    if not 0.0 < b < math.inf:
        raise DomainError(f"{name}: b = a (4 pi mu)^(n/2) = {b!r} is not a "
                          "positive double")
    if not t >= _TINY:
        raise UnderflowError(f"{name}: t = {t!r} is below the smallest normal double")
    log_t, log_4mu = math.log(t), math.log(4.0 * mu)
    # mu' = 1/(4t) makes 4 mu' t = 1: the integrals in xi
    members, args = zip(*(quad._layer_power(c, b, p, n, 0.25 / t, t) for _, c in terms))

    def finish(results):
        value = error = 0.0
        for (k, c), res in zip(terms, results):
            j, j_err = _positive(res, "layer_power_integral")
            h = 0.5 * (c + 1.0)
            power = _pow(4.0 * mu, h) * _pow(float(t), h - k * p)
            term, term_err = ((power * j, power * j_err) if _TINY <= power < math.inf
                              else _root(h * (log_4mu + log_t) - k * p * log_t, 1.0, j, j_err))
            value += term
            error += term_err
        if not value >= _TINY:
            raise UnderflowError(f"{name}: {value!r} is below the smallest normal double")
        return value, error
    return members, args, finish


def _bound_integrand(s: SolutionFamily, p: float, *args):
    """r^c f^-p, layer_power_integral's integrand at (c, p, offset, 4 mu t, r)."""
    return quad._layer_power_f(*args)


def _grad_plan(s: SolutionFamily, p: float, t: float) -> tuple:
    n = s.params.n
    return _bound_plan("grad_bound_integrals", s, p, t,
                       ((1, n - 1.0), (2, 2.0 * p + n - 1.0)))


def _hess_plan(s: SolutionFamily, p: float, t: float) -> tuple:
    n = s.params.n
    return _bound_plan("hess_bound_lp", s, p, t,
                       ((1, n - p - 1.0), (2, p + n - 1.0), (3, 3.0 * p + n - 1.0)))


def grad_bound_integrals(s: SolutionFamily, p: float, t: float) -> tuple:
    """(B1 + B2, error) for the main example with a > 0, where
    B1 = t^-p int r^(n-1) f^-p dr and B2 = t^-2p int r^(2p+n-1) f^-p dr.

    The bounds come from |u_r| <= t^-1 f^-1 + (2 mu)^-1 r^2 t^-2 f^-1 and
    u/r = t^-1 f^-1, so ||Du||_p <= 2 (omega (B1 + B2))^(1/p); they vanish
    as t -> 0 iff p < n/2 and are evaluated regardless so the supercritical
    failure is observable."""
    return _one(s, p, _bound_integrand, _grad_plan(s, p, t))


def hess_bound_lp(s: SolutionFamily, p: float, t: float) -> tuple:
    """(value, error) of the three second-derivative bound integrals of the
    main example: t^-p int r^(n-p-1) f^-p + t^-2p int r^(p+n-1) f^-p
    + t^-3p int r^(3p+n-1) f^-p.  Vanishes as t -> 0 iff p < n/3."""
    return _one(s, p, _bound_integrand, _hess_plan(s, p, t))


# ---------------------------------------------------------------------------
# L^infinity
# ---------------------------------------------------------------------------

# points per bracket-refinement pass of linf_norm: each pass keeps 2 of the
# 16 intervals, so the bracket shrinks eightfold per call of u
_LINF_NODES = 17
# the bracketing grid, in units of sqrt(4 mu t)
_LINF_GRID = np.geomspace(1e-2, 1e2, 81)


def linf_norm(s: SolutionFamily, t):
    """(sup_r |u(t,r)|, argmax r) by bracket refinement: two floats for a
    float t, two arrays for a 1-D array of t, whose rows are searched in
    lockstep.

    Per row, an 81-point geometric grid around sqrt(4 mu t) (widened up to
    three times) brackets an interior maximum; u_r must change sign across
    the bracket.  Each refinement pass then evaluates u on 17 equispaced
    nodes of [lo, hi] and keeps the argmax's two neighbours; a row drops
    out once hi - lo <= 1e-12 hi, about 13 passes from the grid's bracket.
    Every step (the grid, a widening, the sign check, a pass, the final
    value) is one array call of u or u_r, a column of the rows' t against
    their nodes, so a t-grid costs the calls of its slowest row; a row gets
    the bits of its own float-t search.

    Families certified unbounded by their endpoint data return (inf, 0) for
    an origin singularity and (inf, inf) for non-decaying tails, per row
    and without searching.  A profile whose derivative does not change sign
    across the sampled bracket raises BracketingError for a float t rather
    than guessing; in an array t that row is NaN in both arrays and the
    other rows are unaffected."""
    ts = np.asarray(t, dtype=float).reshape(-1)
    value, r_star = np.full(len(ts), math.inf), np.zeros(len(ts))
    why = None
    if s.small_r_exponent >= 0.0:
        for i, x in enumerate(ts.tolist()):
            kind, par = s.tail(x)
            if kind == "power" and par >= 0.0:
                r_star[i] = math.inf
        rows = np.flatnonzero(r_star == 0.0)      # the rows that decay
        if rows.size:
            value[rows], r_star[rows], why = _sup_search(s, ts[rows])
    if np.ndim(t):
        return value, r_star
    if why is not None:
        raise BracketingError(why)
    return float(value[0]), float(r_star[0])


def _sup_search(s: SolutionFamily, t: np.ndarray):
    """(sup, argmax, reason) of linf_norm's search over the 1-D array t:
    NaN in both arrays where a row cannot be bracketed, and the reason of
    the last such row, else None."""
    _check_t(t)
    col, scale = t[:, None], np.sqrt(4.0 * s.params.mu * t)
    lo, hi = np.full(len(t), math.nan), np.full(len(t), math.nan)
    why = None
    rows, grid = np.arange(len(t)), scale[:, None] * _LINF_GRID
    for widening in range(3):
        if widening:
            sc = scale[rows]
            grid = sc[:, None] * np.geomspace(grid[:, 0] / sc / 10.0,
                                              grid[:, -1] / sc * 10.0,
                                              grid.shape[1] + 40, axis=1)
        i = np.argmax(np.abs(s.u(col[rows], grid)), axis=1)
        inside = (0 < i) & (i < grid.shape[1] - 1)
        k = np.flatnonzero(inside)
        lo[rows[k]], hi[rows[k]] = grid[k, i[k] - 1], grid[k, i[k] + 1]
        rows, grid = rows[~inside], grid[~inside]
        if not rows.size:
            break
    else:
        why = "no interior maximum found over the sampled range"
    rows = np.flatnonzero(~np.isnan(lo))
    if rows.size:
        u_r = s.u_r(col[rows], np.stack([lo[rows], hi[rows]], axis=1))
        # the sign bit, so that a u_r(hi) underflowed to -0.0 counts
        falls = (u_r[:, 1] <= 0.0) & np.signbit(u_r[:, 1])
        for j in rows[~((u_r[:, 0] > 0.0) & falls)].tolist():
            why = (f"u_r does not change sign over [{lo[j]:g}, {hi[j]:g}]; "
                   "profile not unimodal?")
            lo[j] = hi[j] = math.nan
    found = np.flatnonzero(~np.isnan(lo))
    rows = found[hi[found] - lo[found] > 1e-12 * hi[found]]
    while rows.size:
        nodes = np.linspace(lo[rows], hi[rows], _LINF_NODES, axis=1)
        i = np.argmax(np.abs(s.u(col[rows], nodes)), axis=1)
        k = np.arange(len(rows))
        lo[rows] = nodes[k, np.maximum(i - 1, 0)]
        hi[rows] = nodes[k, np.minimum(i + 1, _LINF_NODES - 1)]
        rows = rows[hi[rows] - lo[rows] > 1e-12 * hi[rows]]
    r_star = 0.5 * (lo + hi)
    sup = np.full(len(t), math.nan)
    if found.size:
        sup[found] = np.abs(s.u(col[found], r_star[found, None]))[:, 0]
    return sup, r_star, why


# ---------------------------------------------------------------------------
# sweeps and decay fits
# ---------------------------------------------------------------------------

def _flagged(flag: str) -> tuple:
    return math.nan, 0.0, flag


def _valued(v: float, e: float) -> tuple:
    return v, e, "unbounded" if math.isinf(v) else "ok"


def _point(fn, *args) -> tuple:
    """(value, error, flag) of fn(*args) -> (value, error), with the errors
    that stand for a property of the point turned into its flag."""
    try:
        v, e = fn(*args)
    except DivergenceError:
        return _flagged("divergent")
    except NonConvergenceError:
        return _flagged("non-converged")
    except UnderflowError:
        return _flagged("underflow")
    return _valued(float(v), float(e))


def _planned(plan, s: SolutionFamily, p: float, t: float) -> tuple:
    """plan(s, p, t), or where the plan raises an error that flags the
    point, a plan without integrals whose finish raises that error."""
    try:
        return plan(s, p, t)
    except (DivergenceError, UnderflowError) as exc:
        error = exc

    def fail(results):
        raise error
    return [], [], fail


def _each_t(plan, integrand):
    """The sweep (s, p, ts) that plans every t's integrals (see _one) and
    runs all of them in one integrate_many, the members' arguments entering
    integrand as (rows, 1) columns: one call of it per generation, and each
    point gets the bits of its own _one run."""
    def sweep(s, p, ts):
        plans = [_planned(plan, s, p, t) for t in ts]
        results = iter(quad._run([(functools.partial(integrand, s, p),
                                   [x for ms, args, _ in plans for x in zip(ms, args)])],
                                 _REL_TOL)[0])
        return [_point(finish, [next(results) for _ in ms]) for ms, _, finish in plans]
    return sweep


def _lp_sweep(k: int):
    """The sweep of the L^p norm of the modulus _MODULI[k]: scaled from one
    integral over a family that declares self_similar (_scaled_points), else
    the integrals of every t in lockstep."""
    each = _each_t(lambda s, p, t: _lp_plan(s, p, t, k), _lp_integrand(k))

    def sweep(s, p, ts):
        points = _scaled_points(s, p, k, ts) if s.self_similar and ts else None
        return each(s, p, ts) if points is None else points
    return sweep


def _linf_sweep(s: SolutionFamily, p: float, ts) -> list:
    """One lockstep linf_norm search over the whole grid, whatever p; a
    row it cannot bracket (NaN) is flagged non-converged."""
    return [_flagged("non-converged") if math.isnan(v) else _valued(v, 0.0)
            for v in linf_norm(s, np.asarray(ts, dtype=float))[0].tolist()]


# kind -> sweep (s, p, ts) -> [(value, error, flag) per t].  linf_norm is
# called through its module name, which perfbench's tracer rebinds.
_SWEEPS = {
    "lp": _lp_sweep(0),
    "grad_lp": _lp_sweep(1),
    "hess_bound_lp": _each_t(_hess_plan, _bound_integrand),
    "linf": _linf_sweep,
    "distance": _lp_sweep(3),
}
KINDS = tuple(_SWEEPS)


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
    v_ref, e_ref, flag = ref = _point(_derivative_lp, s, p, t_ref, k)
    if flag == "underflow":
        return None
    if flag != "divergent":
        # the per-t cores reject such a t once divergence is ruled out
        for t in ts:
            _check_t(t)
    if flag in ("divergent", "non-converged"):
        return [ref] * len(ts)
    e = 0.5 * (s.params.n - p) / p - 0.5 * k
    scaled = [(v_ref * c, e_ref * c) for c in (_pow(t / t_ref, e) for t in ts)]
    return [_valued(v, err) if v >= _TINY else _flagged("underflow") for v, err in scaled]


def norm_sweep(s: SolutionFamily, spec: NormSpec,
               t_grid: Optional[Sequence[float]] = None) -> NormReport:
    """Evaluate one norm functional over a t-grid, converting divergences,
    unbounded sups, quadrature failures and integrals that underflow into
    per-point flags.  A kind that is not defined for the family raises
    DomainError.

    An L^p sweep of u or Du over a family that declares self_similar
    computes one integral per (p, k) and scales it to every t
    (_scaled_points); an L^infinity sweep is one lockstep linf_norm search
    over the whole grid; every other sweep runs the integrals of all its
    t in one lockstep quadrature (_each_t)."""
    ts = [float(t) for t in
          (default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float))]
    points = _SWEEPS[spec.kind](s, spec.p, ts)
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
