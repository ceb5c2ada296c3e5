"""Closed-form radial solution families of the viscous Cole system.

The system is u_t + (u.grad)u = mu Laplace(u) on R^n for radial vector
fields u(t,x) = u(t,r) x/r, which reduces to

    u_t + u u_r = mu (u_rr + (n-1)(u_r/r - u/r^2)).

Every family supplies analytic u, u_r, u_rr, u_t plus the shape functions
g = u/r, g_r, P = g_r/r and W = P_r/r needed to assemble Cartesian
derivatives.  The formulas are algebraically equivalent to the textbook
displays but regrouped so that no intermediate overflows or cancels:

* main_example writes the denominator 1 + a(4 pi mu t)^(n/2) e^(r^2/4mu t)
  as e^(logaddexp(0, L)) and works with the pair (iD, sigma) =
  (1/(1+e^L), e^L/(1+e^L)), each in [0,1].
* self_similar works with the profile ratio F'/F, never with F' itself.
* nonstationary_erf switches to a Taylor series in r below z = 0.35 where
  the subtraction 1/r - (gaussian)/(erf) loses digits.

All evaluators take a scalar t > 0 and a scalar or array r; they are pure
and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .specfun import DomainError, erf, upper_tail_integral

__all__ = [
    "Params",
    "HeatFunction",
    "SolutionFamily",
    "EvaluationError",
    "SingularityError",
    "cole_hopf",
    "gaussian_heat_function",
    "main_example",
    "self_similar",
    "stationary",
    "nonstationary_erf",
    "cartesian_components",
    "fd_derivative",
]


class EvaluationError(ValueError):
    """Evaluation requested outside the domain of definition of a family."""


class SingularityError(EvaluationError):
    """Origin evaluation of a family that is singular at r = 0."""


@dataclass(frozen=True)
class Params:
    """Family constants: dimension n >= 2, viscosity mu > 0, constants a, C.

    a enters the main example and the self-similar family (a > 0 for
    boundedness away from r = 0; a = 0 admitted as the degenerate u = r/t
    diagnostic).  C enters the stationary family only.
    """

    n: int
    mu: float
    a: float = 1.0
    C: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError("Params.n must be an integer >= 2")
        if not self.mu > 0.0:
            raise DomainError("Params.mu must be positive")


@dataclass(frozen=True)
class SolutionFamily:
    """One closed-form solution with all evaluators bundled.

    u, u_r, u_rr, u_t: (t, r) -> value, r may be an array.
    g, g_r, P, W: shape functions u/r, (u/r)_r, g_r/r, (g_r/r)_r / r used
    for the Cartesian assembly; finite at r = 0 only when origin_regular.
    g0: t -> lim_{r->0} u/r (origin-regular families only, else None).
    small_r_exponent: u ~ r^alpha as r -> 0+.
    tail: t -> ("gaussian", scale) or ("power", beta), the large-r decay
    certificate consumed by the norm quadratures.
    """

    kind: str
    params: Params
    origin_regular: bool
    u: Callable
    u_r: Callable
    u_rr: Callable
    u_t: Callable
    g: Callable
    g_r: Callable
    P: Callable
    W: Callable
    small_r_exponent: float
    tail: Callable
    g0: Optional[Callable] = None

    def label(self) -> str:
        p = self.params
        return f"{self.kind}(n={p.n}, mu={p.mu:g}, a={p.a:g}, C={p.C:g})"


def _check_t(t) -> float:
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t}")
    return t


def _asarray_r(r, positive: bool):
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if positive:
        if np.any(arr <= 0.0):
            raise SingularityError("family is singular at r = 0; require r > 0")
    elif np.any(arr < 0.0):
        raise DomainError("r must be nonnegative")
    return arr, np.ndim(r) == 0


def _out(val, scalar):
    return float(val[0]) if scalar else val


# ---------------------------------------------------------------------------
# main example: u(t,r) = r / (t [1 + a (4 pi mu t)^(n/2) e^(r^2/4mu t)])
# ---------------------------------------------------------------------------

def main_example(p: Params) -> SolutionFamily:
    """Bounded positive solution with u(t,0) = 0 and Gaussian tails.

    Writing L = log a + (n/2) log(4 pi mu t) + r^2/4mu t, the denominator
    bracket is e^lse with lse = log(1 + e^L) = logaddexp(0, L), so
    iD = exp(-lse) and sigma = exp(L - lse) = 1 - iD are both stable for
    any L.  All derivatives reduce to polynomials in (iD, sigma):

        u    = (r/t) iD
        u_r  = (1/t) iD (1 - 2 xi sigma)
        u_rr = -sigma iD [3r/(2 mu t^2) + (r^3/(4 mu^2 t^3)) (iD - sigma)]
        u_t  = -(r/t^2) iD [1 + (n/2 - xi) sigma]

    with xi = r^2/4mu t.  For a = 0 the family degenerates to u = r/t.
    """
    if p.a < 0.0:
        raise DomainError("main_example requires a >= 0")
    n, mu, a = p.n, p.mu, p.a

    if a == 0.0:
        def u(t, r):
            t = _check_t(t)
            r, s = _asarray_r(r, positive=False)
            return _out(r / t, s)

        def u_r(t, r):
            t = _check_t(t)
            r, s = _asarray_r(r, positive=False)
            return _out(np.full_like(r, 1.0 / t), s)

        def u_rr(t, r):
            t = _check_t(t)
            r, s = _asarray_r(r, positive=False)
            return _out(np.zeros_like(r), s)

        def u_t(t, r):
            t = _check_t(t)
            r, s = _asarray_r(r, positive=False)
            return _out(-r / (t * t), s)

        def g(t, r):
            t = _check_t(t)
            r, s = _asarray_r(r, positive=False)
            return _out(np.full_like(r, 1.0 / t), s)

        def zero(t, r):
            t = _check_t(t)
            r, s = _asarray_r(r, positive=False)
            return _out(np.zeros_like(r), s)

        return SolutionFamily(
            kind="MainExample", params=p, origin_regular=True,
            u=u, u_r=u_r, u_rr=u_rr, u_t=u_t,
            g=g, g_r=zero, P=zero, W=zero,
            small_r_exponent=1.0, tail=lambda t: ("power", 1.0),
            g0=lambda t: 1.0 / _check_t(t))

    log_a = math.log(a)

    def _core(t, r):
        # returns (xi, iD, sigma)
        four_mu_t = 4.0 * mu * t
        xi = r * r / four_mu_t
        L = log_a + 0.5 * n * math.log(math.pi * four_mu_t) + xi
        lse = np.logaddexp(0.0, L)
        iD = np.exp(-lse)
        sigma = np.exp(L - lse)
        return xi, iD, sigma

    def u(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        _, iD, _ = _core(t, r)
        return _out(r / t * iD, s)

    def u_r(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        xi, iD, sigma = _core(t, r)
        return _out(iD / t * (1.0 - 2.0 * xi * sigma), s)

    def u_rr(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        _, iD, sigma = _core(t, r)
        tt = t * t
        return _out(-sigma * iD * (1.5 * r / (mu * tt)
                                   + r ** 3 / (4.0 * mu * mu * tt * t) * (iD - sigma)), s)

    def u_t(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        xi, iD, sigma = _core(t, r)
        return _out(-r / (t * t) * iD * (1.0 + (0.5 * n - xi) * sigma), s)

    def g(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        _, iD, _ = _core(t, r)
        return _out(iD / t, s)

    def g_r(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        _, iD, sigma = _core(t, r)
        return _out(-r / (2.0 * mu * t * t) * sigma * iD, s)

    def P(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        _, iD, sigma = _core(t, r)
        return _out(-sigma * iD / (2.0 * mu * t * t), s)

    def W(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        _, iD, sigma = _core(t, r)
        return _out(sigma * iD * (sigma - iD) / (4.0 * mu * mu * t ** 3), s)

    def g0(t):
        t = _check_t(t)
        L0 = log_a + 0.5 * n * math.log(4.0 * math.pi * mu * t)
        return math.exp(-np.logaddexp(0.0, L0)) / t

    return SolutionFamily(
        kind="MainExample", params=p, origin_regular=True,
        u=u, u_r=u_r, u_rr=u_rr, u_t=u_t, g=g, g_r=g_r, P=P, W=W,
        small_r_exponent=1.0,
        tail=lambda t: ("gaussian", math.sqrt(4.0 * mu * _check_t(t))),
        g0=g0)


# ---------------------------------------------------------------------------
# self-similar family: u(t,r) = sqrt(4mu/t) F(xi), xi = r^2/4mu t,
# F(xi) = xi^((1-n)/2) e^(-xi) / (a + G_n(xi))
# ---------------------------------------------------------------------------

def self_similar(p: Params) -> SolutionFamily:
    """Exactly self-similar positive solution, singular like 2mu(n-2)/r at 0.

    Needs n >= 3 so the tail integral G_n stays finite at 0 and a > 0 so
    the denominator is positive.  Derivatives are built from the
    logarithmic ratio F'/F = (1-n)/(2 xi) - 1 + w1, w1 = xi^(-n/2) e^(-xi)
    / (a + G_n(xi)), which stays modest where F itself spans hundreds of
    orders of magnitude.
    """
    if p.n < 3:
        raise DomainError("self_similar requires n >= 3")
    if not p.a > 0.0:
        raise DomainError("self_similar requires a > 0")
    n, mu, a = p.n, p.mu, p.a

    def _core(t, r):
        xi = r * r / (4.0 * mu * t)
        lxi = np.log(xi)
        psi = a + upper_tail_integral(n, xi)
        # w1 = -psi'/psi, kept via exp of logs to dodge overflow at tiny xi
        w1 = np.exp(-0.5 * n * lxi - xi) / psi
        lf = 0.5 * (1.0 - n) * lxi - xi
        F = np.exp(lf) / psi
        ratio1 = 0.5 * (1.0 - n) / xi - 1.0 + w1          # F'/F
        dratio1 = 0.5 * (n - 1.0) / (xi * xi) - w1 * (0.5 * n / xi + 1.0) + w1 * w1
        ratio2 = ratio1 * ratio1 + dratio1                 # F''/F
        return xi, F, ratio1, ratio2

    def u(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=True)
        _, F, _, _ = _core(t, r)
        return _out(math.sqrt(4.0 * mu / t) * F, s)

    def u_r(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=True)
        xi, F, ratio1, _ = _core(t, r)
        return _out(math.sqrt(4.0 * mu / t) * F * ratio1 * 2.0 * xi / r, s)

    def u_rr(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=True)
        xi, F, ratio1, ratio2 = _core(t, r)
        amp = math.sqrt(4.0 * mu / t) * F * 2.0 * xi / (r * r)
        return _out(amp * (2.0 * xi * ratio2 + ratio1), s)

    def u_t(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=True)
        xi, F, ratio1, _ = _core(t, r)
        return _out(-math.sqrt(4.0 * mu / t) / t * F * (0.5 + xi * ratio1), s)

    def g(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=True)
        _, F, _, _ = _core(t, r)
        return _out(math.sqrt(4.0 * mu / t) * F / r, s)

    def g_r(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=True)
        xi, F, ratio1, _ = _core(t, r)
        c = math.sqrt(4.0 * mu / t) * F
        return _out(c / r * (ratio1 * 2.0 * xi / r - 1.0 / r), s)

    def P(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=True)
        xi, F, ratio1, _ = _core(t, r)
        c = math.sqrt(4.0 * mu / t) * F
        return _out(c / (r * r) * (ratio1 * 2.0 * xi / r - 1.0 / r), s)

    def W(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=True)
        xi, F, ratio1, ratio2 = _core(t, r)
        c = math.sqrt(4.0 * mu / t) * F
        tx = 2.0 * xi / r
        ur_over = ratio1 * tx            # u_r / u
        urr_over = tx / r * (2.0 * xi * ratio2 + ratio1)   # u_rr / u
        # W = (u_rr - g_r)/r^3 - 2 P / r^2 with everything factored over u
        g_over = 1.0 / r
        gr_over = (ur_over - g_over) / r
        p_over = gr_over / r
        w_over = (urr_over - gr_over) / (r ** 3) - 2.0 * p_over / (r * r)
        return _out(c * w_over, s)

    return SolutionFamily(
        kind="SelfSimilar", params=p, origin_regular=False,
        u=u, u_r=u_r, u_rr=u_rr, u_t=u_t, g=g, g_r=g_r, P=P, W=W,
        small_r_exponent=-1.0,
        tail=lambda t: ("gaussian", math.sqrt(4.0 * mu * _check_t(t))),
        g0=None)


# ---------------------------------------------------------------------------
# stationary family: u = 2(n-2)mu / (r (1 + C r^(n-2))) for n >= 3,
#                    u = -2mu / (r (log r + C)) for n = 2
# ---------------------------------------------------------------------------

def stationary(p: Params) -> SolutionFamily:
    """Time-independent solution, singular at r = 0 (and at log r = -C if n=2)."""
    n, mu, C = p.n, p.mu, p.C

    if n >= 3:
        K = 2.0 * (n - 2.0) * mu

        def _core(t, r):
            B = C * r ** (n - 2)
            Q = 1.0 + B
            if np.any(Q <= 0.0):
                raise EvaluationError(
                    "stationary denominator 1 + C r^(n-2) vanishes on the grid")
            return B, Q

        def u(t, r):
            _check_t(t)
            r, s = _asarray_r(r, positive=True)
            _, Q = _core(t, r)
            return _out(K / (r * Q), s)

        def u_r(t, r):
            _check_t(t)
            r, s = _asarray_r(r, positive=True)
            B, Q = _core(t, r)
            return _out(-K * (1.0 + (n - 1.0) * B) / (r * Q) ** 2, s)

        def u_rr(t, r):
            _check_t(t)
            r, s = _asarray_r(r, positive=True)
            B, Q = _core(t, r)
            poly = 2.0 + (n - 1.0) * (6.0 - n) * B + n * (n - 1.0) * B * B
            return _out(K * poly / (r * Q) ** 3, s)

        tail_beta = -(n - 1.0) if C > 0.0 else -1.0
    else:
        def _core(t, r):
            lam = np.log(r) + C
            if np.any(lam == 0.0):
                raise EvaluationError("stationary n=2 family singular at r = e^-C")
            return lam

        def u(t, r):
            _check_t(t)
            r, s = _asarray_r(r, positive=True)
            lam = _core(t, r)
            return _out(-2.0 * mu / (r * lam), s)

        def u_r(t, r):
            _check_t(t)
            r, s = _asarray_r(r, positive=True)
            lam = _core(t, r)
            return _out(2.0 * mu * (lam + 1.0) / (r * lam) ** 2, s)

        def u_rr(t, r):
            _check_t(t)
            r, s = _asarray_r(r, positive=True)
            lam = _core(t, r)
            return _out(2.0 * mu * (lam - 2.0 * (lam + 1.0) ** 2) / (r * lam) ** 3, s)

        tail_beta = -1.0

    def u_t(t, r):
        _check_t(t)
        r, s = _asarray_r(r, positive=True)
        return _out(np.zeros_like(r), s)

    g, g_r, P, W = _generic_shape(u, u_r, u_rr)
    return SolutionFamily(
        kind="Stationary", params=p, origin_regular=False,
        u=u, u_r=u_r, u_rr=u_rr, u_t=u_t, g=g, g_r=g_r, P=P, W=W,
        small_r_exponent=-1.0, tail=lambda t: ("power", tail_beta), g0=None)


def _generic_shape(u, u_r, u_rr):
    """Shape functions from u and its r-derivatives; fine away from r = 0.

    No catastrophic cancellation for ~1/r profiles: u_r and u/r have the
    same sign pattern in every combination below.
    """

    def _wrap(expr):
        def f(t, r):
            rr = np.asarray(r, dtype=float)
            out = expr(t, rr)
            return float(out) if np.ndim(r) == 0 else out
        return f

    g = _wrap(lambda t, rr: np.asarray(u(t, rr)) / rr)
    g_r = _wrap(lambda t, rr: (np.asarray(u_r(t, rr)) - np.asarray(u(t, rr)) / rr) / rr)
    P = _wrap(lambda t, rr: (np.asarray(u_r(t, rr)) - np.asarray(u(t, rr)) / rr) / rr ** 2)
    W = _wrap(lambda t, rr: (np.asarray(u_rr(t, rr))
                             - (np.asarray(u_r(t, rr)) - np.asarray(u(t, rr)) / rr) / rr)
              / rr ** 3
              - 2.0 * (np.asarray(u_r(t, rr)) - np.asarray(u(t, rr)) / rr) / rr ** 4)
    return g, g_r, P, W


# ---------------------------------------------------------------------------
# nonstationary erf family (n = 3):
# u(t,r) = 2mu (1/r - e^(-r^2/4mu t) / (sqrt(pi mu t) erf(r/sqrt(4mu t))))
# ---------------------------------------------------------------------------

# Taylor coefficients of v(z) = 1 - z w(z) = sum c_m z^(2m),
# w(z) = (2/sqrt(pi)) e^(-z^2)/erf(z); exact rationals, converted once.
_V_COEFFS = tuple(float(c) for c in (
    Fraction(2, 3),
    Fraction(-8, 45),
    Fraction(16, 945),
    Fraction(32, 14175),
    Fraction(-64, 93555),
    Fraction(-2944, 638512875),
    Fraction(5888, 273648375),
    Fraction(-80384, 44405668125),
    Fraction(-99380224, 194896477400625),
    Fraction(3306665984, 32157918771103125),
))
_V_SWITCH = 0.35  # both branches good to ~1e-15 relative at the seam
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def nonstationary_erf(mu: float) -> SolutionFamily:
    """Origin-regular n=3 solution converging to the stationary 2mu/r as t->0.

    Near the origin the closed form subtracts two ~1/r terms; below
    z = r/sqrt(4mu t) = 0.35 the code switches to the Taylor series of
    v(z) = 1 - z w(z) through z^20, where u = (2mu/r) v(z).  Each
    derivative combination has its own series multiplier:

        z v' - v             -> (2m-1) c_m
        z^2 v'' - 2z v' + 2v -> 2(2m-1)(m-1) c_m
        z v'                 -> 2m c_m
        z v' - 2v            -> (2m-2) c_m
        z^2 v'' - 5z v' + 8v -> 4(m-1)(m-2) c_m

    In the direct branch w underflows past z ~ 27 and the family smoothly
    becomes 2mu/r.
    """
    if not mu > 0.0:
        raise DomainError("nonstationary_erf requires mu > 0")
    p = Params(n=3, mu=mu, a=0.0, C=0.0)

    def _split(t, r):
        z = r / math.sqrt(4.0 * mu * t)
        series = z < _V_SWITCH
        return z, series

    def _direct_v(z):
        # v, v', v'' for z >= switch; all ingredients order-1
        w = _TWO_OVER_SQRT_PI * np.exp(-z * z) / erf(z)
        v = 1.0 - z * w
        vp = w * (2.0 * z * z - v)
        vpp = -w * (2.0 * z + w) * (2.0 * z * z - v) + w * (4.0 * z - vp)
        return v, vp, vpp

    def u(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        z, ser = _split(t, r)
        out = np.empty_like(r)
        if np.any(ser):
            rs = r[ser]
            # u = 2mu/r * sum c_m z^(2m) = 2mu sum c_m r^(2m-1)/(4mu t)^m
            acc = np.zeros_like(rs)
            pw = 1.0 / (4.0 * mu * t) * rs  # r/(4mu t), then grows by r^2/(4mu t)
            for cm in _V_COEFFS:
                acc = acc + cm * pw
                pw = pw * rs * rs / (4.0 * mu * t)
            out[ser] = 2.0 * mu * acc
        if np.any(~ser):
            zd = z[~ser]
            v, _, _ = _direct_v(zd)
            out[~ser] = 2.0 * mu / r[~ser] * v
        return _out(out, s)

    def _series_combo(t, rs, weight):
        # (2mu / r^shift) sum weight_m c_m z^(2m), expressed in powers of r
        # so that r = 0 is regular; shift handled by caller through r powers
        q = np.zeros_like(rs)
        pw = np.ones_like(rs)
        inv = 1.0 / (4.0 * mu * t)
        for m, cm in enumerate(_V_COEFFS, start=1):
            pw = pw * rs * rs * inv
            q = q + weight(m) * cm * pw
        return q

    def u_r(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        z, ser = _split(t, r)
        out = np.empty_like(r)
        if np.any(ser):
            rs = r[ser]
            # u_r = (2mu/r^2)(z v' - v): weight (2m-1), power r^(2m-2)
            q = _series_combo(t, rs, lambda m: 2 * m - 1)
            with np.errstate(invalid="ignore", divide="ignore"):
                val = 2.0 * mu * q / (rs * rs)
            val = np.where(rs == 0.0, 2.0 * mu * _V_COEFFS[0] / (4.0 * mu * t), val)
            out[ser] = val
        if np.any(~ser):
            zd = z[~ser]
            v, vp, _ = _direct_v(zd)
            out[~ser] = 2.0 * mu / r[~ser] ** 2 * (zd * vp - v)
        return _out(out, s)

    def u_rr(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        z, ser = _split(t, r)
        out = np.empty_like(r)
        if np.any(ser):
            rs = r[ser]
            q = _series_combo(t, rs, lambda m: 2 * (2 * m - 1) * (m - 1))
            with np.errstate(invalid="ignore", divide="ignore"):
                val = 2.0 * mu * q / rs ** 3
            val = np.where(rs == 0.0, 0.0, val)
            out[ser] = val
        if np.any(~ser):
            zd = z[~ser]
            v, vp, vpp = _direct_v(zd)
            out[~ser] = 2.0 * mu / r[~ser] ** 3 * (zd * zd * vpp - 2.0 * zd * vp + 2.0 * v)
        return _out(out, s)

    def u_t(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        z, ser = _split(t, r)
        out = np.empty_like(r)
        if np.any(ser):
            rs = r[ser]
            q = _series_combo(t, rs, lambda m: 2 * m)
            with np.errstate(invalid="ignore", divide="ignore"):
                val = -mu / t * q / rs
            val = np.where(rs == 0.0, 0.0, val)
            out[ser] = val
        if np.any(~ser):
            zd = z[~ser]
            _, vp, _ = _direct_v(zd)
            out[~ser] = -mu / (t * r[~ser]) * zd * vp
        return _out(out, s)

    def g(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        z, ser = _split(t, r)
        out = np.empty_like(r)
        if np.any(ser):
            rs = r[ser]
            q = _series_combo(t, rs, lambda m: 1)
            with np.errstate(invalid="ignore", divide="ignore"):
                val = 2.0 * mu * q / (rs * rs)
            val = np.where(rs == 0.0, 2.0 * mu * _V_COEFFS[0] / (4.0 * mu * t), val)
            out[ser] = val
        if np.any(~ser):
            out[~ser] = 2.0 * mu / r[~ser] ** 2 * _direct_v(z[~ser])[0]
        return _out(out, s)

    def g_r(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        return _out(np.asarray(P(t, r)) * r, s)

    def P(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        z, ser = _split(t, r)
        out = np.empty_like(r)
        if np.any(ser):
            rs = r[ser]
            q = _series_combo(t, rs, lambda m: 2 * m - 2)
            with np.errstate(invalid="ignore", divide="ignore"):
                val = 2.0 * mu * q / rs ** 4
            lim = 2.0 * mu * 2.0 * _V_COEFFS[1] / (4.0 * mu * t) ** 2
            val = np.where(rs == 0.0, lim, val)
            out[ser] = val
        if np.any(~ser):
            zd = z[~ser]
            v, vp, _ = _direct_v(zd)
            out[~ser] = 2.0 * mu / r[~ser] ** 4 * (zd * vp - 2.0 * v)
        return _out(out, s)

    def W(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        z, ser = _split(t, r)
        out = np.empty_like(r)
        if np.any(ser):
            rs = r[ser]
            q = _series_combo(t, rs, lambda m: 4 * (m - 1) * (m - 2))
            with np.errstate(invalid="ignore", divide="ignore"):
                val = 2.0 * mu * q / rs ** 6
            lim = 2.0 * mu * 8.0 * _V_COEFFS[2] / (4.0 * mu * t) ** 3
            val = np.where(rs == 0.0, lim, val)
            out[ser] = val
        if np.any(~ser):
            zd = z[~ser]
            v, vp, vpp = _direct_v(zd)
            out[~ser] = 2.0 * mu / r[~ser] ** 6 * (zd * zd * vpp - 5.0 * zd * vp + 8.0 * v)
        return _out(out, s)

    def g0(t):
        return 1.0 / (3.0 * _check_t(t))

    return SolutionFamily(
        kind="NonStationaryErf", params=p, origin_regular=True,
        u=u, u_r=u_r, u_rr=u_rr, u_t=u_t, g=g, g_r=g_r, P=P, W=W,
        small_r_exponent=1.0, tail=lambda t: ("power", -1.0), g0=g0)


# ---------------------------------------------------------------------------
# Cole-Hopf transform of a positive heat function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatFunction:
    """theta(t,r) > 0 solving theta_t = mu (theta_rr + (n-1)/r theta_r).

    theta and theta_r are required; the higher evaluators are optional and
    finite differences with relative step fd_step stand in for any that are
    missing.
    """

    theta: Callable
    theta_r: Callable
    theta_rr: Optional[Callable] = None
    theta_rrr: Optional[Callable] = None
    theta_t: Optional[Callable] = None
    theta_rt: Optional[Callable] = None
    fd_step: float = 1e-5


def fd_derivative(f: Callable, x: float, h: float, order: int = 1) -> float:
    """5-point central difference, O(h^4), for order in {1, 2}."""
    fm2, fm1, fp1, fp2 = f(x - 2 * h), f(x - h), f(x + h), f(x + 2 * h)
    if order == 1:
        return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    if order == 2:
        f0 = f(x)
        return (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * fp1 - fp2) / (12.0 * h * h)
    raise ValueError("order must be 1 or 2")


def cole_hopf(theta: HeatFunction, mu: float, n: int = 3,
              params: Optional[Params] = None) -> SolutionFamily:
    """u = -2 mu theta_r / theta, with derivatives by quotient rule when the
    theta-derivatives are supplied and by 5-point finite differences of u
    otherwise (step = fd_step * max(|r|, sqrt(4 mu t))).

    Raises EvaluationError if theta <= 0 is encountered at a query point.
    """
    if params is None:
        params = Params(n=n, mu=mu, a=0.0, C=0.0)

    def _theta_checked(t, r):
        th = np.asarray(theta.theta(t, r), dtype=float)
        if np.any(th <= 0.0) or not np.all(np.isfinite(th)):
            raise EvaluationError("cole_hopf: theta <= 0 (or non-finite) at a query point")
        return th

    def u(t, r):
        t = _check_t(t)
        r, s = _asarray_r(r, positive=False)
        th = _theta_checked(t, r)
        return _out(-2.0 * mu * np.asarray(theta.theta_r(t, r), dtype=float) / th, s)

    def _step(t, r):
        return theta.fd_step * max(float(np.max(np.abs(r), initial=0.0)),
                                   math.sqrt(4.0 * mu * t))

    if theta.theta_rr is not None:
        def u_r(t, r):
            t = _check_t(t)
            r, s = _asarray_r(r, positive=False)
            th = _theta_checked(t, r)
            q1 = np.asarray(theta.theta_r(t, r), dtype=float) / th
            q2 = np.asarray(theta.theta_rr(t, r), dtype=float) / th
            return _out(-2.0 * mu * (q2 - q1 * q1), s)
    else:
        def u_r(t, r):
            t = _check_t(t)
            r, s = _asarray_r(r, positive=False)
            h = _step(t, r)
            val = np.vectorize(lambda ri: fd_derivative(lambda x: u(t, x), ri, h, 1))(r)
            return _out(val, s)

    if theta.theta_rr is not None and theta.theta_rrr is not None:
        def u_rr(t, r):
            t = _check_t(t)
            r, s = _asarray_r(r, positive=False)
            th = _theta_checked(t, r)
            q1 = np.asarray(theta.theta_r(t, r), dtype=float) / th
            q2 = np.asarray(theta.theta_rr(t, r), dtype=float) / th
            q3 = np.asarray(theta.theta_rrr(t, r), dtype=float) / th
            return _out(-2.0 * mu * (q3 - 3.0 * q1 * q2 + 2.0 * q1 ** 3), s)
    else:
        def u_rr(t, r):
            t = _check_t(t)
            r, s = _asarray_r(r, positive=False)
            h = _step(t, r)
            val = np.vectorize(lambda ri: fd_derivative(lambda x: u(t, x), ri, h, 2))(r)
            return _out(val, s)

    if theta.theta_t is not None and theta.theta_rt is not None:
        def u_t(t, r):
            t = _check_t(t)
            r, s = _asarray_r(r, positive=False)
            th = _theta_checked(t, r)
            q1 = np.asarray(theta.theta_r(t, r), dtype=float) / th
            qt = np.asarray(theta.theta_t(t, r), dtype=float) / th
            qrt = np.asarray(theta.theta_rt(t, r), dtype=float) / th
            return _out(-2.0 * mu * (qrt - q1 * qt), s)
    else:
        def u_t(t, r):
            t = _check_t(t)
            r, s = _asarray_r(r, positive=False)
            h = theta.fd_step * t
            val = np.vectorize(
                lambda ri: fd_derivative(lambda tau: u(tau, ri), t, h, 1))(r)
            return _out(val, s)

    g, g_r, P, W = _generic_shape(u, u_r, u_rr)
    return SolutionFamily(
        kind="ColeHopfOf", params=params, origin_regular=False,
        u=u, u_r=u_r, u_rr=u_rr, u_t=u_t, g=g, g_r=g_r, P=P, W=W,
        small_r_exponent=0.0,
        tail=lambda t: ("gaussian", math.sqrt(4.0 * mu * _check_t(t))),
        g0=None)


def gaussian_heat_function(p: Params) -> HeatFunction:
    """theta = a + G_n with the radial heat kernel
    G_n(t,r) = (4 pi mu t)^(-n/2) e^(-r^2/4mu t); all derivatives analytic.

    cole_hopf of this heat function reproduces main_example (for a > 0) and
    the degenerate u = r/t (for a = 0).
    """
    n, mu, a = p.n, p.mu, p.a
    if a < 0.0:
        raise DomainError("gaussian_heat_function requires a >= 0")

    def kernel(t, r):
        t = _check_t(t)
        r = np.asarray(r, dtype=float)
        four_mu_t = 4.0 * mu * t
        return (math.pi * four_mu_t) ** (-0.5 * n) * np.exp(-r * r / four_mu_t)

    def theta(t, r):
        return a + kernel(t, r)

    def theta_r(t, r):
        t = _check_t(t)
        r = np.asarray(r, dtype=float)
        return -r / (2.0 * mu * t) * kernel(t, r)

    def theta_rr(t, r):
        t = _check_t(t)
        r = np.asarray(r, dtype=float)
        mt = mu * t
        return kernel(t, r) * (r * r / (4.0 * mt * mt) - 1.0 / (2.0 * mt))

    def theta_rrr(t, r):
        t = _check_t(t)
        r = np.asarray(r, dtype=float)
        mt = mu * t
        return kernel(t, r) * (0.75 * r / (mt * mt) - r ** 3 / (8.0 * mt ** 3))

    def theta_t(t, r):
        t = _check_t(t)
        r = np.asarray(r, dtype=float)
        xi = r * r / (4.0 * mu * t)
        return kernel(t, r) * (xi - 0.5 * n) / t

    def theta_rt(t, r):
        t = _check_t(t)
        r = np.asarray(r, dtype=float)
        xi = r * r / (4.0 * mu * t)
        return r * kernel(t, r) / (2.0 * mu * t * t) * (1.0 - xi + 0.5 * n)

    return HeatFunction(theta=theta, theta_r=theta_r, theta_rr=theta_rr,
                        theta_rrr=theta_rrr, theta_t=theta_t, theta_rt=theta_rt)


# ---------------------------------------------------------------------------
# Cartesian assembly
# ---------------------------------------------------------------------------

def cartesian_components(s: SolutionFamily, t: float, x):
    """Vector value, Jacobian, and second partials of u(t,x) = g(t,r) x.

    d_j u_i   = P x_i x_j + g delta_ij
    d_jk u_i  = W x_i x_j x_k + P (x_i d_jk + x_j d_ik + x_k d_ij)

    with g = u/r, P = (u/r)_r / r, W = P_r / r.  At x = 0 (origin-regular
    families only) the limits are value 0, Jacobian g0(t) I, second
    partials 0.
    """
    t = _check_t(t)
    x = np.asarray(x, dtype=float)
    n = s.params.n
    if x.shape != (n,):
        raise ValueError(f"x must be a vector in R^{n}")
    r = float(np.linalg.norm(x))
    eye = np.eye(n)
    if r == 0.0:
        if not s.origin_regular:
            raise SingularityError(
                f"{s.kind} is singular at the origin; cannot evaluate at x = 0")
        value = np.zeros(n)
        jac = s.g0(t) * eye
        second = np.zeros((n, n, n))
        return value, jac, second
    g = float(s.g(t, r))
    P = float(s.P(t, r))
    W = float(s.W(t, r))
    value = g * x
    jac = P * np.outer(x, x) + g * eye
    second = (W * np.einsum("i,j,k->ijk", x, x, x)
              + P * (x[:, None, None] * eye[None, :, :]
                     + x[None, :, None] * eye[:, None, :]
                     + x[None, None, :] * eye[:, :, None]))
    return value, jac, second
