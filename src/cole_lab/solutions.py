"""Closed-form radial solution families of the viscous Cole system.

The system is u_t + (u.grad)u = mu Laplace(u) on R^n for radial vector
fields u(t,x) = u(t,r) x/r, which reduces to

    u_t + u u_r = mu (u_rr + (n-1)(u_r/r - u/r^2)).

Every family supplies analytic u, u_r, u_rr, u_t plus the shape functions
g = u/r, g_r, P = g_r/r and W = P_r/r needed to assemble Cartesian
derivatives.  One builder, _family, makes all of them the same way: check
t, coerce r (finite, and r > 0 for the families singular at the origin),
run the family's core(t, r) once, apply the requested quantity's formula
to (t, r, *core), and hold the value to one finite-value rule
(_evaluator).  A family declares only its core, one formula per quantity
and its vanishing factor, so each evaluator does the work of its own
formula and no more.  A caller that needs several quantities at the same
points asks once, s.at(t, r, "u", "u_r", ...): one core, then each named
formula, and each value has the bits of its own evaluator's call.
The formulas are algebraically equivalent to the textbook displays but
regrouped so that no intermediate overflows or cancels:

* main_example writes the denominator 1 + a(4 pi mu t)^(n/2) e^(r^2/4mu t)
  as e^(logaddexp(0, L)) and works with the pair (iD, sigma) =
  (1/(1+e^L), e^L/(1+e^L)), each in [0,1].
* self_similar works with rho = r/sqrt(4 mu t) and the scaled tail
  Q_n = xi^(n/2-1) e^xi G_n, never with G_n, F or F' themselves.
* self_similar, stationary and cole_hopf derive g, g_r, P and W from their
  own u, u_r and u_rr formulas over one shared core.
* nonstationary_erf describes each quantity by one row of a table
  (amplitude, k, weight, combination) and below z = 0.35, where the
  subtraction 1/r - (gaussian)/(erf) loses digits, sums the row's Taylor
  series in r directly, without dividing by r.

All evaluators take t > 0 and r as scalars or arrays, broadcast together;
they are pure and safe to share across threads.  An array element gets the
bits of a scalar call at the same (t, r): numpy arithmetic rounds as Python
float arithmetic does, and where a formula applies a math-module function
to t (log, exp, pow, sqrt), an array t gets the same libm routine element by
element (_libm), not numpy's own, which differs in the last place.  An
array t reaches the formulas unbroadcast (a column t against a row of r
costs one libm call per t, not per point); it is broadcast only where a
mask selects points (_at).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .specfun import DomainError, erf, require, scaled_tail

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
    "fd_central",
    "fd_partials",
    "grid_blocks",
]


class EvaluationError(ValueError):
    """Evaluation requested outside the domain of definition of a family."""


class SingularityError(EvaluationError):
    """Origin evaluation of a family that is singular at r = 0."""


@dataclass(frozen=True)
class Params:
    """Family constants: dimension n >= 2, viscosity mu > 0 and constants
    a, C, all finite.

    a enters the main example and the self-similar family (a > 0 for
    boundedness away from r = 0; a = 0 admitted as the degenerate u = r/t
    diagnostic).  C enters the stationary family only.
    """

    n: int
    mu: float
    a: float = 1.0
    C: float = 0.0

    def __post_init__(self):
        require((isinstance(self.n, int) and self.n >= 2,
                 "Params.n must be an integer >= 2"),
                (self.mu > 0.0, "Params.mu must be positive"),
                (all(map(math.isfinite, (self.mu, self.a, self.C))),
                 "Params.mu, a and C must be finite"))


@dataclass(frozen=True)
class SolutionFamily:
    """One closed-form solution with all evaluators bundled.

    u, u_r, u_rr, u_t: (t, r) -> value, r may be an array.
    g, g_r, P, W: shape functions u/r, (u/r)_r, g_r/r, (g_r/r)_r / r used
    for the Cartesian assembly; finite at r = 0 only when origin_regular.
    Each of these eight also takes further quantity names, (t, r, *names),
    and then returns the tuple of its own value and theirs from one core;
    at(t, r, *names) is that call through the first name's field.
    g0: t -> lim_{r->0} u/r = g(t, 0) (origin-regular families only, else
    None).
    small_r_exponent: u ~ r^alpha as r -> 0+.
    tail: t -> ("gaussian", scale) or ("power", beta), the large-r decay
    certificate consumed by the norm quadratures.
    self_similar: u(t, r) = lam u(lam^2 t, lam r) for every lam > 0, so
    every L^p norm of D^k u is an exact power of t (norms.norm_sweep
    integrates once and scales).  A fact of the closed form, declared by
    the constructor that knows it; never inferred.
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
    self_similar: bool = False

    def at(self, t, r, name: str, *names: str) -> tuple:
        """The named quantities at (t, r), from one core: a tuple of values,
        each with the bits of that quantity's own evaluator call."""
        values = getattr(self, name)(t, r, *names)
        return values if names else (values,)

    def label(self) -> str:
        p = self.params
        return f"{self.kind}(n={p.n}, mu={p.mu:g}, a={p.a:g}, C={p.C:g})"


def _check_t(t):
    """t as a float, or as a float array if t is an array with ndim >= 1;
    DomainError unless every t is positive and finite."""
    if getattr(t, "ndim", 0):
        t = np.asarray(t, dtype=float)
        ok = (t > 0.0) & np.isfinite(t)
        if not ok.all():
            raise DomainError(f"t must be positive and finite, got {t[~ok][0]}")
        return t
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t}")
    return t


def _libm(fn):
    """fn (from the math module) for a float first argument, else applied
    element by element through np.vectorize, so an array t rounds exactly
    as scalar-t calls do."""
    on_array = np.vectorize(fn, otypes=[float])
    return lambda *x: fn(*x) if isinstance(x[0], float) else on_array(*x)


def _pow(x, y):
    """math.pow(x, y), inf where that overflows (math.pow raises)."""
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf


_log, _pow, _sqrt = (_libm(f) for f in (math.log, _pow, math.sqrt))


_TINY, _SMALLEST, _HUGE = (np.finfo(float).tiny, np.finfo(float).smallest_subnormal,
                           np.finfo(float).max)


def _at(x, mask):
    """An array-t quantity broadcast to mask's shape and masked (np.where
    selects, so every value keeps its bits), a scalar one as it is."""
    return np.where(mask, x, 0.0)[mask] if isinstance(x, np.ndarray) else x


def _asarray_r(r, positive: bool):
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    if not np.isfinite(arr).all():
        raise DomainError("r must be finite")
    if positive:
        if (arr <= 0.0).any():
            raise SingularityError("family is singular at r = 0; require r > 0")
    elif (arr < 0.0).any():
        raise DomainError("r must be nonnegative")
    return arr, scalar


def _evaluator(kind, core, formulas, name, positive: bool, vanishes):
    """(t, r) -> formulas[name](t, r, *core(t, r)); a float for scalar t and
    r, else an array of their broadcast shape.  (t, r, *more) -> the tuple
    of that value and each further named formula's, all over one core.  r
    is broadcast to that shape (a view), so a formula of r alone has it
    too; an array t is not.  positive: reject r <= 0 (else only r < 0); a
    NaN or infinite r is always rejected.

    The one finite-value rule: core and formulas run with floating-point
    errors ignored; a value that is not a finite double is 0.0 where
    vanishes(*core) (a factor of every quantity underflowed, so the rest
    met 0 * inf or 0 / 0), else SingularityError names the quantity and r."""
    def evaluate(t, r, *more):
        t = _check_t(t)
        r, scalar = _asarray_r(r, positive)
        if isinstance(t, np.ndarray):
            r = np.broadcast_to(r, np.broadcast_shapes(t.shape, r.shape))
            scalar = False
        names = (name, *more)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            c = core(t, r)
            vals = [formulas[q](t, r, *c) for q in names]
        for i, v in enumerate(vals):
            if not np.isfinite(v).all():
                bad = ~(np.isfinite(v) | vanishes(*c))
                if bad.any():
                    raise SingularityError(f"{kind} {names[i]} overflows a double "
                                           f"at r = {float(r[bad][0])!r}")
                vals[i] = np.where(np.isfinite(v), v, 0.0)
        if scalar:
            vals = [float(v[0]) for v in vals]
        return tuple(vals) if more else vals[0]
    return evaluate


def _family(kind, params, core, formulas, positive,
            vanishes=lambda *c: False, **meta) -> SolutionFamily:
    """A SolutionFamily whose evaluators all come from one core and the
    formulas dict (quantity name -> formula), under the finite-value rule
    of _evaluator with the family's vanishing factor, a predicate over the
    core; meta fills the other fields.  An origin-regular family's g0 is
    its g at r = 0."""
    evaluators = {q: _evaluator(kind, core, formulas, q, positive, vanishes)
                  for q in formulas}
    if meta["origin_regular"]:
        g = evaluators["g"]
        evaluators["g0"] = lambda t: g(t, 0.0)
    return SolutionFamily(kind=kind, params=params, **evaluators, **meta)


def _with_shape(formulas):
    """formulas plus g, g_r, P, W built from its u, u_r, u_rr over the same
    core; fine away from r = 0.

    No catastrophic cancellation for ~1/r profiles: u_r and u/r have the
    same sign pattern in every combination below.
    """
    u, u_r, u_rr = formulas["u"], formulas["u_r"], formulas["u_rr"]

    def g_r(t, r, *c):
        return (u_r(t, r, *c) - u(t, r, *c) / r) / r

    def P(t, r, *c):
        return (u_r(t, r, *c) - u(t, r, *c) / r) / r ** 2

    def W(t, r, *c):
        d = u_r(t, r, *c) - u(t, r, *c) / r
        return (u_rr(t, r, *c) - d / r) / r ** 3 - 2.0 * d / r ** 4

    return {**formulas, "g": lambda t, r, *c: u(t, r, *c) / r,
            "g_r": g_r, "P": P, "W": W}


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
        def zero(t, r):
            return np.zeros_like(r)

        def inv_t(t, r):
            return np.full_like(r, 1.0 / t)

        return _family(
            "MainExample", p, lambda t, r: (),
            {"u": lambda t, r: r / t, "u_r": inv_t, "u_rr": zero,
             "u_t": lambda t, r: -r / (t * t),
             "g": inv_t, "g_r": zero, "P": zero, "W": zero},
            positive=False, origin_regular=True,
            small_r_exponent=1.0, tail=lambda t: ("power", 1.0))

    log_a = math.log(a)

    def core(t, r):
        four_mu_t = 4.0 * mu * t
        if (four_mu_t < _TINY).any():   # r^2/4 mu t and its log lose their digits
            raise SingularityError("MainExample: 4 mu t is below the smallest normal double")
        xi = r * r / four_mu_t
        L = log_a + 0.5 * n * _log(math.pi * four_mu_t) + xi
        lse = np.logaddexp(0.0, L)
        iD = np.exp(-lse)
        sigma = np.exp(L - lse)
        return xi, iD, sigma

    formulas = {
        "u": lambda t, r, xi, iD, sigma: r / t * iD,
        "u_r": lambda t, r, xi, iD, sigma: iD / t * (1.0 - 2.0 * xi * sigma),
        "u_rr": lambda t, r, xi, iD, sigma: -sigma * iD * (
            1.5 * r / (mu * (t * t))
            + r ** 3 / (4.0 * mu * mu * (t * t) * t) * (iD - sigma)),
        "u_t": lambda t, r, xi, iD, sigma:
            -r / (t * t) * iD * (1.0 + (0.5 * n - xi) * sigma),
        "g": lambda t, r, xi, iD, sigma: iD / t,
        "g_r": lambda t, r, xi, iD, sigma: -r / (2.0 * mu * t * t) * sigma * iD,
        "P": lambda t, r, xi, iD, sigma: -sigma * iD / (2.0 * mu * t * t),
        "W": lambda t, r, xi, iD, sigma:
            sigma * iD * (sigma - iD) / (4.0 * mu * mu) / t / t / t}

    # every quantity carries the factor iD, so where iD underflows to 0 a
    # 0 * inf in the rest of its formula stands for 0
    return _family(
        "MainExample", p, core, formulas, positive=False,
        vanishes=lambda xi, iD, sigma: iD == 0.0,
        origin_regular=True, small_r_exponent=1.0,
        tail=lambda t: ("gaussian", math.sqrt(4.0 * mu * _check_t(t))))


# ---------------------------------------------------------------------------
# self-similar family: u(t,r) = sqrt(4mu/t) F(xi), xi = r^2/4mu t,
# F(xi) = xi^((1-n)/2) e^(-xi) / (a + G_n(xi))
# ---------------------------------------------------------------------------

def self_similar(p: Params) -> SolutionFamily:
    """Exactly self-similar positive solution, singular like 2mu(n-2)/r at 0.

    Needs n >= 3 so the tail integral G_n stays finite at 0 and a > 0 so
    the denominator is positive.  Every quantity comes from one core in
    rho = sqrt(xi) = r/sqrt(4 mu t) and the scaled tail Q_n = xi^(n/2-1)
    e^xi G_n (specfun.scaled_tail, for every xi > 0), so neither G_n nor
    xi^(-n/2) is ever formed.  With e = a rho^(n-3) e^xi, taken from its
    log, F(xi) = phi/rho where phi = 1/(Q_n + rho e), and

        beta phi = (rho Q_(n-2) - rho Q_n) phi - (n/2 - 1 + xi)/(Q_n/e + rho),
        c = rho beta phi = 1/2 + xi F'/F,

        u = (4 mu/r) phi,   u_r = (u/r)(2c - 1),
        u_rr = (u/r^2)((2c - 2)(2c - 1) + 4(phi c - xi)),
        u_t = -(4 mu/sqrt(4 mu t)) phi beta phi / t,

    where no sum cancels but the two terms of beta phi at the one sign
    change of u_t (xi = 0.1..0.28 for a = 1), where u_t itself passes
    through 0.  u_t is not -(u/t) c, since c underflows where rho is
    subnormal.  Where phi is below the smallest normal double
    (xi >~ 700), u = exp(log(4 mu/r) - logaddexp(log Q_n, log rho e)) and
    u rho stands for (4 mu/sqrt(4 mu t)) phi.  A value that overflows a
    double raises SingularityError.  The family declares self_similar:
    u(t, r) = lam u(lam^2 t, lam r) for every lam > 0.
    """
    if p.n < 3:
        raise DomainError("self_similar requires n >= 3")
    if not p.a > 0.0:
        raise DomainError("self_similar requires a > 0")
    n, mu, a = p.n, p.mu, p.a
    m, log_a = 0.5 * n - 1.0, math.log(a)

    def core(t, r):
        root_4mu_t = _sqrt(4.0 * mu * t)
        # a rho that rounds to 0 gives the rho -> 0 limits at the smallest
        # subnormal, where log rho is still finite; an infinite one (4 mu t
        # underflows to 0) is the largest double, so xi = inf and u = 0
        rho = np.clip(r / root_4mu_t, _SMALLEST, _HUGE)
        xi = rho * rho
        q, sq = scaled_tail(n, rho)
        log_rho = np.log(rho)
        log_e = log_a + (n - 3) * log_rho + xi
        e = np.exp(log_e)
        phi = 1.0 / (q + rho * e)
        beta_phi = (sq - rho * q) * phi - (m + xi) / (q / e + rho)
        four_mu_r = 4.0 * mu / r
        u = four_mu_r * phi
        amp = 4.0 * mu / root_4mu_t * phi
        deep = phi < _TINY
        if deep.any():
            u[deep] = np.exp(np.log(four_mu_r[deep]) - np.logaddexp(
                np.log(q[deep]), log_e[deep] + log_rho[deep]))
            amp[deep] = u[deep] * rho[deep]
        return xi, phi, rho * beta_phi, beta_phi, u, amp

    formulas = _with_shape(
        {"u": lambda t, r, xi, phi, c, beta_phi, u, amp: u,
         "u_r": lambda t, r, xi, phi, c, beta_phi, u, amp: u / r * (2.0 * c - 1.0),
         "u_rr": lambda t, r, xi, phi, c, beta_phi, u, amp: u / r / r * (
             (2.0 * c - 2.0) * (2.0 * c - 1.0) + 4.0 * (phi * c - xi)),
         "u_t": lambda t, r, xi, phi, c, beta_phi, u, amp: -amp * beta_phi / t})

    # every quantity carries the factor u (u_t the factor u rho), so where u
    # underflows to 0, as it does where xi is inf, a 0 * inf or 0 / 0 in the
    # rest of its formula stands for 0
    return _family(
        "SelfSimilar", p, core, formulas, positive=True,
        vanishes=lambda xi, phi, c, beta_phi, u, amp: u == 0.0,
        origin_regular=False, small_r_exponent=-1.0,
        tail=lambda t: ("gaussian", math.sqrt(4.0 * mu * _check_t(t))),
        self_similar=True)


# ---------------------------------------------------------------------------
# stationary family: u = 2(n-2)mu / (r (1 + C r^(n-2))) for n >= 3,
#                    u = -2mu / (r (log r + C)) for n = 2
# ---------------------------------------------------------------------------

def stationary(p: Params) -> SolutionFamily:
    """Time-independent solution, singular at r = 0 (and at log r = -C if
    n=2)."""
    n, mu, C = p.n, p.mu, p.C

    if n >= 3:
        K = 2.0 * (n - 2.0) * mu

        def core(t, r):
            B = C * r ** (n - 2)
            Q = 1.0 + B
            if np.any(Q <= 0.0):
                raise EvaluationError(
                    "stationary denominator 1 + C r^(n-2) vanishes on the grid")
            return B, Q

        formulas = {
            "u": lambda t, r, B, Q: K / (r * Q),
            "u_r": lambda t, r, B, Q: -K * (1.0 + (n - 1.0) * B) / (r * Q) ** 2,
            "u_rr": lambda t, r, B, Q: K * (2.0 + (n - 1.0) * (6.0 - n) * B
                                            + n * (n - 1.0) * B * B) / (r * Q) ** 3,
        }
        tail_beta = -(n - 1.0) if C > 0.0 else -1.0
    else:
        def core(t, r):
            lam = np.log(r) + C
            if np.any(lam == 0.0):
                raise EvaluationError("stationary n=2 family singular at r = e^-C")
            return (lam,)

        formulas = {
            "u": lambda t, r, lam: -2.0 * mu / (r * lam),
            "u_r": lambda t, r, lam: 2.0 * mu * (lam + 1.0) / (r * lam) ** 2,
            "u_rr": lambda t, r, lam:
                2.0 * mu * (lam - 2.0 * (lam + 1.0) ** 2) / (r * lam) ** 3,
        }
        tail_beta = -1.0

    formulas["u_t"] = lambda t, r, *c: np.zeros_like(r)
    return _family(
        "Stationary", p, core, _with_shape(formulas),
        positive=True, origin_regular=False, small_r_exponent=-1.0,
        tail=lambda t: ("power", tail_beta))


# ---------------------------------------------------------------------------
# nonstationary erf family (n = 3):
# u(t,r) = 2mu (1/r - e^(-r^2/4mu t) / (sqrt(pi mu t) erf(r/sqrt(4mu t))))
# ---------------------------------------------------------------------------

# Taylor coefficients c_1..c_10 of v(z) = 1 - z w(z) = sum c_m z^(2m),
# w(z) = (2/sqrt(pi)) e^(-z^2)/erf(z): the doubles nearest the exact
# rationals 2/3, -8/45, 16/945, 32/14175, -64/93555, -2944/638512875,
# 5888/273648375, -80384/44405668125, -99380224/194896477400625 and
# 3306665984/32157918771103125
_V_COEFFS = (
    0.6666666666666666,
    -0.17777777777777778,
    0.016931216931216932,
    0.002257495590828924,
    -0.0006840895729784619,
    -4.6107136054226e-06,
    2.1516663491972134e-05,
    -1.8102193569911522e-06,
    -5.099128795217583e-07,
    1.0282587027899786e-07,
)
_V_SWITCH = 0.35  # both branches good to ~1e-15 relative at the seam
# past z = 40 e^(-z^2) is 0, v, v', v'' are exactly 1, 0, 0 and each power of
# z in a combination multiplies a 0: clamping z there keeps z^2 from inf * 0
_Z_FLAT = 40.0
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _two_mu(mu, t):
    return 2.0 * mu


# quantity -> (amplitude(mu, t), k, weight(m), combination(z, v, v', v''))
_ERF_TABLE = {
    "u": (_two_mu, 1, lambda m: 1, lambda z, v, vp, vpp: v),
    "u_r": (_two_mu, 2, lambda m: 2 * m - 1, lambda z, v, vp, vpp: z * vp - v),
    "u_rr": (_two_mu, 3, lambda m: 2 * (2 * m - 1) * (m - 1),
             lambda z, v, vp, vpp: z * z * vpp - 2.0 * z * vp + 2.0 * v),
    "u_t": (lambda mu, t: -mu / t, 1, lambda m: 2 * m,
            lambda z, v, vp, vpp: z * vp),
    "g": (_two_mu, 2, lambda m: 1, lambda z, v, vp, vpp: v),
    "g_r": (_two_mu, 3, lambda m: 2 * m - 2, lambda z, v, vp, vpp: z * vp - 2.0 * v),
    "P": (_two_mu, 4, lambda m: 2 * m - 2, lambda z, v, vp, vpp: z * vp - 2.0 * v),
    "W": (_two_mu, 6, lambda m: 4 * (m - 1) * (m - 2),
          lambda z, v, vp, vpp: z * z * vpp - 5.0 * z * vp + 8.0 * v),
}


def _direct_v(z):
    # v, v', v'' for z >= switch; all ingredients order-1
    w = _TWO_OVER_SQRT_PI * np.exp(-z * z) / erf(z)
    v = 1.0 - z * w
    vp = w * (2.0 * z * z - v)
    vpp = -w * (2.0 * z + w) * (2.0 * z * z - v) + w * (4.0 * z - vp)
    return v, vp, vpp


def _erf_formula(mu, amplitude, k, weight, combination):
    """One table row as a formula over the core (series mask, direct mask
    and zv, the direct points' (z, v, v', v''), or None where there are
    none)."""
    terms = [weight(m) * c for m, c in enumerate(_V_COEFFS, start=1)]
    m0 = 1 + next(i for i, wc in enumerate(terms) if wc != 0.0)
    terms = terms[m0 - 1:]

    def formula(t, r, series, direct, zv):
        out = np.empty_like(r)
        if series.any():
            # amp sum_{m >= m0} weight(m) c_m r^(2m-k) / (4mu t)^m; the first
            # nonzero term has e = 2 m0 - k in {0, 1}, so no power of r divides
            rs, e = r[series], 2 * m0 - k
            four_mu_t = 4.0 * mu * t
            scale = _at(amplitude(mu, t), series)
            power = _at(_pow(1.0 / four_mu_t, m0), series)
            pw = power * rs ** e
            four_mu_t = _at(four_mu_t, series)
            fold = ~(np.isfinite(pw) & (power >= _TINY) & np.isfinite(scale))
            if fold.any():
                # (4mu t)^-m0 overflows or underflows, or amp overflows,
                # where the term may not: from mu r^e, divide by 4mu t m0
                # times, unless that has lost its digits, then apply the
                # amplitude, which is linear in mu
                four_mu_t, t_s = (np.broadcast_to(x, rs.shape)
                                  for x in (four_mu_t, _at(t, series)))
                if (four_mu_t[fold] < _TINY).any():
                    raise SingularityError("NonStationaryErf: 4 mu t is below "
                                           "the smallest normal double")
                term = mu * rs[fold] ** e
                for _ in range(m0):
                    term /= four_mu_t[fold]
                pw[fold] = amplitude(term, t_s[fold])
                scale = np.where(fold, 1.0, scale)
            acc = np.zeros_like(rs)
            for wc in terms:   # in place: the bits of pw * rs * rs / four_mu_t
                acc += wc * pw
                pw *= rs
                pw *= rs
                pw /= four_mu_t
            out[series] = scale * acc
        if zv is not None:
            comb = combination(*zv)
            val = _at(amplitude(mu, t), direct) / r[direct] ** k * comb
            # a combination exactly 0 (z v' past z = 40) times an amplitude
            # that overflows is 0 * inf, and stands for 0
            val[np.isnan(val) & (comb == 0.0)] = 0.0
            out[direct] = val
        return out
    return formula


def nonstationary_erf(mu: float) -> SolutionFamily:
    """Origin-regular n=3 solution converging to the stationary 2mu/r as t->0.

    With z = r/sqrt(4mu t) and v(z) = 1 - z w(z), u = (2mu/r) v(z).  Each
    quantity is a row (amplitude, k, weight, combination) of _ERF_TABLE and
    equals amplitude / r^k * combination(z, v, v', v''), which is how it is
    evaluated for z >= 0.35; e.g. u_rr = (2mu/r^3)(z^2 v'' - 2z v' + 2v).
    Below z = 0.35, where that form subtracts two ~1/r terms, the code sums
    amplitude * sum weight(m) c_m r^(2m-k) / (4mu t)^m over the Taylor
    coefficients c_m of v through z^20, from the first nonzero term: no
    power of r divides, so r = 0 and subnormal r are ordinary points.  In
    the direct branch w underflows past z ~ 27 and u becomes 2mu/r; the
    core forms v, v', v'' there once per call, for every quantity asked.
    """
    params = Params(n=3, mu=mu, a=0.0, C=0.0)

    def core(t, r):
        four_mu_t = 4.0 * mu * t
        if (four_mu_t < _SMALLEST).any():   # 0: every quantity would be NaN
            raise SingularityError("NonStationaryErf: 4 mu t underflows to 0")
        z = r / _sqrt(four_mu_t)
        series = z < _V_SWITCH
        direct = ~series
        if not direct.any():
            return series, direct, None
        zd = np.minimum(z[direct], _Z_FLAT)
        return series, direct, (zd, *_direct_v(zd))

    return _family(
        "NonStationaryErf", params, core,
        {q: _erf_formula(mu, *row) for q, row in _ERF_TABLE.items()},
        positive=False, origin_regular=True, small_r_exponent=1.0,
        tail=lambda t: ("power", -1.0))


# ---------------------------------------------------------------------------
# Cole-Hopf transform of a positive heat function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatFunction:
    """theta(t,r) > 0 solving theta_t = mu (theta_rr + (n-1)/r theta_r).

    theta and theta_r are required and give u and g.  cole_hopf builds
    every other quantity from the higher derivatives by the quotient rule;
    one that needs a field left at None raises DomainError.
    """

    theta: Callable
    theta_r: Callable
    theta_rr: Optional[Callable] = None
    theta_rrr: Optional[Callable] = None
    theta_t: Optional[Callable] = None
    theta_rt: Optional[Callable] = None


# the 5-point central stencils' offsets, in units of h: x + k h is x - 2h,
# x - h, x + h and x + 2h to the bit; fd_partials stacks FD_STACK points
# per (t, r), the centre and four offsets each in r and in t
_STENCIL = (-2, -1, 1, 2)
FD_STACK = 1 + 2 * len(_STENCIL)


def fd_derivative(f: Callable, x, h):
    """5-point central first derivative, O(h^4).

    x and h may be numpy arrays (broadcast together): the stencil only forms
    x + k h, so f is called once per stencil offset on the whole array, and
    each element gets the same arithmetic as a scalar call.
    """
    return _central_first(*(f(x + k * h) for k in _STENCIL), h)


def _central_first(fm2, fm1, fp1, fp2, h):
    return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)


def _central_second(f0, fm2, fm1, fp1, fp2, h):
    return (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * fp1 - fp2) / (12.0 * h * h)


def fd_central(f: Callable, x, h, f0):
    """(first, second) 5-point central derivatives, O(h^4), from one
    evaluation of f at x - 2h, x - h, x + h and x + 2h and the centre value
    f0 = f(x) the caller already has."""
    fx = [f(x + k * h) for k in _STENCIL]
    return _central_first(*fx, h), _central_second(f0, *fx, h)


def fd_partials(f: Callable, t, r, h_r, h_t) -> tuple:
    """(f, f_r, f_rr, f_t) at (t, r), by the stencils of fd_central in r
    and fd_derivative in t (step h_t, which broadcasts against t), from one
    call f(T, R) on the centre and its eight offsets stacked along a new
    first axis.  Each value has the bits of the per-offset calls, since f
    evaluates element by element; t is stacked unbroadcast, as a float or
    a column against r's rows."""
    T = np.stack([np.asarray(t, dtype=float)] * 5 + [t + k * h_t for k in _STENCIL])
    R = np.stack([r] + [r + k * h_r for k in _STENCIL] + [r] * 4)
    f0, *fx = f(T.reshape(T.shape + (1,) * (R.ndim - T.ndim)), R)
    return (f0, _central_first(*fx[:4], h_r), _central_second(f0, *fx[:4], h_r),
            _central_first(*fx[4:], h_t))


# grid points per evaluator call: a 200 x 200 figure in one call peaked the
# pointwise benchmark workload at 51.8 MB, in blocks of 50 rows at 51.0 MB,
# no more than with one call per row
GRID_BLOCK_POINTS = 10_000


def grid_blocks(t, r, stack: int = 1):
    """Consecutive blocks of the (t, r) grid as (t column, r at the block's
    shape as a broadcast view), in t order.  A block holds as many whole t
    rows as fit in GRID_BLOCK_POINTS points when one call evaluates each
    point stack times (fd_partials: FD_STACK), and at least one row, so the
    memory of an evaluation grows with the block, not with the grid."""
    t = np.asarray(t, dtype=float)[:, None]
    rows = max(1, GRID_BLOCK_POINTS // max(stack * len(r), 1))
    for i in range(0, len(t), rows):
        t_block = t[i:i + rows]
        yield t_block, np.broadcast_to(r, (len(t_block), len(r)))


def cole_hopf(theta: HeatFunction, params: Params) -> SolutionFamily:
    """u = -2 mu theta_r / theta with mu = params.mu; every derivative by the
    quotient rule on theta's own derivatives.

    Raises EvaluationError if theta <= 0 is encountered at a query point,
    DomainError from a quantity whose formula needs a theta-derivative the
    heat function leaves at None, and SingularityError for g, g_r, P and W
    at r = 0.
    """
    mu = params.mu

    def core(t, r):
        th = np.asarray(theta.theta(t, r), dtype=float)
        if np.any(th <= 0.0) or not np.all(np.isfinite(th)):
            raise EvaluationError("cole_hopf: theta <= 0 (or non-finite) at a query point")
        return (th,)

    def over(name, t, r, th):
        f = getattr(theta, name)
        if f is None:
            raise DomainError(f"cole_hopf: the heat function has no {name}")
        return np.asarray(f(t, r), dtype=float) / th

    def u(t, r, th):
        return -2.0 * mu * np.asarray(theta.theta_r(t, r), dtype=float) / th

    def u_r(t, r, th):
        q1 = over("theta_r", t, r, th)
        return -2.0 * mu * (over("theta_rr", t, r, th) - q1 * q1)

    def u_rr(t, r, th):
        q1 = over("theta_r", t, r, th)
        q2 = over("theta_rr", t, r, th)
        q3 = over("theta_rrr", t, r, th)
        return -2.0 * mu * (q3 - 3.0 * q1 * q2 + 2.0 * q1 ** 3)

    def u_t(t, r, th):
        q1 = over("theta_r", t, r, th)
        qt = over("theta_t", t, r, th)
        return -2.0 * mu * (over("theta_rt", t, r, th) - q1 * qt)

    # u/r has no origin limit this code could evaluate for a generic heat
    # function: at r = 0 the shape functions divide by 0, and the
    # finite-value rule raises SingularityError
    return _family(
        "ColeHopfOf", params, core,
        _with_shape({"u": u, "u_r": u_r, "u_rr": u_rr, "u_t": u_t}),
        positive=False, origin_regular=False, small_r_exponent=0.0,
        tail=lambda t: ("gaussian", math.sqrt(4.0 * mu * _check_t(t))))


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
        four_mu_t = 4.0 * mu * t
        return (_pow(math.pi * four_mu_t, -0.5 * n) * np.exp(-r * r / four_mu_t),)

    formulas = {
        "theta": lambda t, r, G: a + G,
        "theta_r": lambda t, r, G: -r / (2.0 * mu * t) * G,
        "theta_rr": lambda t, r, G:
            G * (r * r / (4.0 * (mu * t) * (mu * t)) - 1.0 / (2.0 * (mu * t))),
        "theta_rrr": lambda t, r, G:
            G * (0.75 * r / ((mu * t) * (mu * t)) - r ** 3 / (8.0 * _pow(mu * t, 3))),
        "theta_t": lambda t, r, G: G * (r * r / (4.0 * mu * t) - 0.5 * n) / t,
        "theta_rt": lambda t, r, G:
            r * G / (2.0 * mu * t * t) * (1.0 - r * r / (4.0 * mu * t) + 0.5 * n),
    }
    return HeatFunction(**{q: _evaluator("GaussianHeat", kernel, formulas, q,
                                         False, lambda G: False)
                           for q in formulas})


# ---------------------------------------------------------------------------
# Cartesian assembly
# ---------------------------------------------------------------------------

def cartesian_components(s: SolutionFamily, t: float, x):
    """Vector value, Jacobian, and second partials of u(t,x) = g(t,r) x.

    d_j u_i   = P x_i x_j + g delta_ij
    d_jk u_i  = W x_i x_j x_k + P (x_i d_jk + x_j d_ik + x_k d_ij)

    with g = u/r, P = (u/r)_r / r, W = P_r / r.  At x = 0 these give the
    limits value 0, Jacobian g0(t) I, second partials 0 for the
    origin-regular families; the others raise SingularityError there.
    """
    t = _check_t(t)
    x = np.asarray(x, dtype=float)
    n = s.params.n
    if x.shape != (n,):
        raise ValueError(f"x must be a vector in R^{n}")
    r = float(np.linalg.norm(x))
    eye = np.eye(n)
    g, P, W = s.at(t, r, "g", "P", "W")
    value = g * x
    jac = P * np.outer(x, x) + g * eye
    second = (W * np.einsum("i,j,k->ijk", x, x, x)
              + P * (x[:, None, None] * eye[None, :, :]
                     + x[None, :, None] * eye[:, None, :]
                     + x[None, None, :] * eye[:, :, None]))
    return value, jac, second
