"""Adaptive quadrature on (0, oo) for powers times sharp exponential layers.

The integrals behind the norm computations all look like

    int_0^oo r^c / (1 + b t^(n/2) exp(r^2/4mu t))^l dr

or their s = r^2/4mu t reductions: smooth, positive, one interior layer
where the denominator switches from 1 to huge, then Gaussian or exponential
decay.  A 15-point Gauss-Kronrod rule with bisection of the worst panels
handles this well provided the layer is split on and the upper truncation
follows the decay certificate instead of a fixed cutoff.  Refinement runs
by generation: all panels bisected in one pass are evaluated with one call
of the integrand on a panels x 15 node array, so integrands are written
for numpy arrays of any length.

Callers describe an integrand with its endpoint behavior (power exponent at
0+, decay class at infinity, optional split hints near the layer); see
`Integrand`.  `lemma1_I` and `lemma2_J` wrap the two parametric families
used throughout, evaluating the denominator in log-domain so that b t^(n/2)
ranging over hundreds of orders of magnitude costs no accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Callable

import numpy as np

__all__ = [
    "Integrand",
    "QuadResult",
    "NonConvergenceError",
    "kronrod_15",
    "integrate_semi_infinite",
    "lemma1_I",
    "layer_power_integral",
    "lemma2_J",
]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

# 15-point Kronrod extension of the 7-point Gauss rule (QUADPACK dqk15).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])
# node layout used below: [-x0..-x6, 0, +x6..+x0]
_OFFSETS = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
# the K15 and G7 weights over that layout (G7 uses every other node), and
# the two as the columns of one matrix
_WK15 = np.concatenate([_WGK, _WGK[6::-1]])
_WG15 = np.zeros(15)
_WG15[1::2] = np.concatenate([_WG, _WG[2::-1]])
_RULES = np.stack([_WK15, _WG15], axis=1)


class NonConvergenceError(RuntimeError):
    """Requested tolerance not reached within the subdivision budget."""


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    subdivisions: int


@dataclass(frozen=True)
class Integrand:
    """A function on (0, oo) plus the endpoint facts adaptivity cannot guess.

    small_r_exponent: f(r) ~ r^alpha as r -> 0+; must satisfy alpha > -1.
    decay: ("gaussian", scale) for exp(-(r/scale)^2) tails,
           ("exponential", rate) for exp(-rate*r),
           ("power", beta) for r^beta with beta < -1.
    splits: interior breakpoints (layer locations) to seed the subdivision.
    """

    f: Callable[[np.ndarray], np.ndarray]
    small_r_exponent: float = 0.0
    decay: tuple = ("exponential", 1.0)
    splits: tuple = ()
    name: str = ""


def _gauss_kronrod(fn, los: list, his: list, probes: list = ()):
    """Gauss-Kronrod 15(7) on the panels [los_i, his_i] from one call of fn
    on all their nodes, plus |fn| at the probe points in the same call.

    Returns the panels as tuples (error_estimate, lo, hi, value, fn) and
    the list of |fn(probe)|.  The estimate is QUADPACK's: |K15 - G7|
    sharpened through the scaled total variation resasc, with a rounding
    floor of 50 eps |f|-integral.
    """
    lo, hi = np.array(los), np.array(his)
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _OFFSETS
    k = len(probes)
    fx = np.asarray(fn(np.concatenate([probes, nodes.ravel()])), dtype=float)
    absf, fx = np.abs(fx[:k]), fx[k:].reshape(nodes.shape)
    # weighted row sums rather than `@`: matmul would load BLAS kernels for
    # these few-panel products, +0.3 MB of peak RSS on the benchmark
    resk, resg = (fx[:, :, None] * _RULES).sum(axis=1).T
    resasc = (np.abs(fx - 0.5 * resk[:, None]) * _WK15).sum(axis=1)
    resabs = (np.abs(fx) * _WK15).sum(axis=1)
    ahalf = np.abs(half)
    err = np.abs((resk - resg) * half)
    resasc *= ahalf
    resabs *= ahalf
    nonflat = resasc != 0.0
    ratio = 200.0 * err / np.where(nonflat, resasc, 1.0)
    err = np.where(nonflat, resasc * np.minimum(1.0, ratio ** 1.5), err)
    floor = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
    err = np.maximum(err, floor)
    panels = list(zip(err.tolist(), los, his, (resk * half).tolist(), repeat(fn)))
    return panels, absf.tolist()


def kronrod_15(f, lo: float, hi: float):
    """One Gauss-Kronrod 15(7) panel; returns (value, error_estimate) with
    the estimate of `_gauss_kronrod`."""
    err, _, _, val, _ = _gauss_kronrod(f, [lo], [hi])[0][0]
    return val, err


def _evaluate(jobs):
    """Panels for the jobs (fn, lo, hi), with one call of each distinct fn."""
    by_fn = {}
    for fn, lo, hi in jobs:
        los, his = by_fn.setdefault(fn, ([], []))
        los.append(lo)
        his.append(hi)
    panels = []
    for fn, (los, his) in by_fn.items():
        panels += _gauss_kronrod(fn, los, his)[0]
    return panels


def _substituted(f, m: float):
    # r = y^m regularizes an r^alpha endpoint: pulls alpha up to m(1+alpha)-1
    def g(y):
        y = np.asarray(y, dtype=float)
        return f(y ** m) * m * y ** (m - 1.0)
    return g


def _tail_estimate(absf: float, decay: tuple, r: float) -> float:
    kind, par = decay
    if kind == "gaussian":
        width = par * par / (2.0 * r) if r > par else par
        return 2.0 * absf * width
    if kind == "exponential":
        return 2.0 * absf / par
    if kind == "power":
        return 2.0 * absf * r / (-par - 1.0)
    raise ValueError(f"unknown decay class {kind!r}")


# the upper limit grows by this factor per step, for at most this many steps
_TAIL_GROWTH = 1.6
_TAIL_STEPS = 400


def _truncate(f: Integrand, radius: float, total: float, rel_tol: float,
              abs_tol: float):
    """Extend the upper limit from radius by factors of 1.6 until the decay
    certificate puts the tail beyond it below a tenth of the tolerance.

    The step-by-step rule probes |f| at the current radius, stops if the
    certificate passes, and otherwise adds the panel [radius, 1.6 radius]
    to the running total.  Here the steps run in chunks of doubling length,
    with one call of f for a chunk's probes and panels together; the
    panels kept are exactly the prefix the step-by-step rule keeps.
    Returns (tail panels, tail bound)."""
    kept = []
    chunk = 2
    done = 0
    while done < _TAIL_STEPS:
        chunk = min(chunk, _TAIL_STEPS - done)
        radii = [radius]
        for _ in range(chunk):
            radii.append(radii[-1] * _TAIL_GROWTH)
        panels, absf = _gauss_kronrod(f.f, radii[:-1], radii[1:], radii[:-1])
        for k, panel in enumerate(panels):
            tail_bound = _tail_estimate(absf[k], f.decay, radii[k])
            if tail_bound <= 0.1 * max(abs_tol, rel_tol * abs(total)):
                return kept + panels[:k], tail_bound
            total += panel[3]
        kept += panels
        radius = radii[-1]
        done += chunk
        chunk *= 2
    raise NonConvergenceError(
        f"tail truncation stalled at r = {radius:.3g} for {f.name or 'integrand'}")


def integrate_semi_infinite(f: Integrand, rel_tol: float, abs_tol: float = 1e-300,
                            max_subdivisions: int = 10_000) -> QuadResult:
    """Integrate f over (0, oo) to within max(rel_tol*|I|, abs_tol).

    Stages:

    1. Lay out panels over the split hints, substituting r = y^m on the
       left-most one when the declared endpoint exponent is singular.
    2. Extend the upper limit until the decay certificate puts the
       remaining tail below a tenth of the tolerance (`_truncate`); the
       final certificate is charged to the error estimate.
    3. Refine by generation: sort the live panels by error and bisect the
       worst ones until the panels left unsplit fit inside the tolerance.
       A panel narrower than 100 eps max(|lo|, |hi|, 1) is frozen instead.

    Every stage evaluates all its new panels with one call of the integrand
    (two when the substituted left piece is among them) and applies the
    K15/G7 weights to the panels x 15 array of values at once.  The value
    and error are summed in position order, so they do not depend on the
    order of refinement.  Raises NonConvergenceError once the subdivision
    cap is hit or no panel can be split further.
    """
    if rel_tol <= 0.0 or abs_tol <= 0.0:
        raise ValueError("tolerances must be positive")
    alpha = f.small_r_exponent
    if alpha <= -1.0:
        raise ValueError(f"integrand declares r^{alpha} at 0+, not integrable")
    if f.decay[0] == "power" and f.decay[1] >= -1.0:
        raise ValueError(f"power tail r^{f.decay[1]} is not integrable")

    splits = sorted({float(s) for s in f.splits if s > 0.0}) or [1.0]
    b1 = splits[0]
    if alpha < -0.05:
        m = min(2.0 / (1.0 + alpha), 50.0)
        left = (_substituted(f.f, m), 0.0, b1 ** (1.0 / m))
    else:
        left = (f.f, 0.0, b1)
    live = _evaluate([left] + [(f.f, lo, hi) for lo, hi in zip(splits[:-1], splits[1:])])
    tail, tail_bound = _truncate(f, splits[-1], sum(p[3] for p in live),
                                 rel_tol, abs_tol)
    live += tail

    frozen = []  # panels too narrow to split further
    n_panels = len(live)
    while True:
        total_val = sum(p[3] for p in live) + sum(p[3] for p in frozen)
        total_err = sum(p[0] for p in live) + sum(p[0] for p in frozen)
        excess = total_err + tail_bound - max(abs_tol, rel_tol * abs(total_val))
        if not excess > 0.0:  # a NaN estimate ends refinement unconverged
            break
        if n_panels >= max_subdivisions or not live:
            raise NonConvergenceError(
                f"{f.name or 'integrand'}: error estimate {total_err:.3g} above "
                f"tolerance after {n_panels} panels")
        live.sort(key=itemgetter(0), reverse=True)
        k = 0
        while excess > 0.0 and k < len(live):
            excess -= live[k][0]
            k += 1
        worst, live = live[:k], live[k:]
        jobs = []
        for panel in worst:
            _, lo, hi, _, fn = panel
            if hi - lo < 100.0 * _EPS * max(abs(lo), abs(hi), 1.0):
                frozen.append(panel)
            elif n_panels < max_subdivisions:
                mid = 0.5 * (lo + hi)
                jobs += [(fn, lo, mid), (fn, mid, hi)]
                n_panels += 1
            else:
                live.append(panel)
        live += _evaluate(jobs)

    # deterministic final reduction: sum in position order
    panels = sorted(live + frozen, key=itemgetter(1, 2))
    value = math.fsum(p[3] for p in panels)
    err_total = math.fsum(p[0] for p in panels) + tail_bound
    return QuadResult(value=value, abs_error_estimate=err_total,
                      subdivisions=n_panels)


def lemma1_I(q: float, k: float, b: float, l: float, n: int, t: float,
             rel_tol: float = 1e-11) -> float:
    """I(t) = t^q int_0^oo s^k / (1 + b t^(n/2) e^s)^l ds.

    Requires k > -1, b > 0, q > 0, l > 0, t > 0.  The denominator is kept
    in log-domain: (1+A e^s)^-l = exp(-l*logaddexp(0, log A + s)), so A may
    underflow or overflow a double without harm.
    """
    if not (k > -1.0 and b > 0.0 and q > 0.0 and l > 0.0 and t > 0.0):
        raise ValueError("lemma1_I requires k > -1, b > 0, q > 0, l > 0, t > 0")
    offset = math.log(b) + 0.5 * n * math.log(t)

    def f(s):
        s = np.asarray(s, dtype=float)
        power = k * np.log(s) if k != 0.0 else 0.0
        return np.exp(power - l * np.logaddexp(0.0, offset + s))

    s0 = max(-offset, 0.0)
    layer = 3.0 / l
    splits = (s0, s0 + layer) if s0 > 0.0 else (1.0, 1.0 + layer)
    core = integrate_semi_infinite(
        Integrand(f, small_r_exponent=k, decay=("exponential", l),
                  splits=splits, name="lemma1_I"),
        rel_tol=rel_tol)
    return t ** q * core.value


def layer_power_integral(c: float, b: float, l: float, n: int, mu: float,
                         t: float, rel_tol: float = 1e-11) -> QuadResult:
    """int_0^oo r^c / (1 + b t^(n/2) e^(r^2/4mu t))^l dr, no t^d prefactor.

    Requires c > -1, b > 0, l > 0, mu > 0, t > 0.  This is the bare layer
    integral shared by lemma2_J (which multiplies by t^d and enforces the
    d > -(c+1)/2 decay precondition) and by norm bounds, which need the
    integral even for exponents d where the bound fails to vanish.
    """
    if not (c > -1.0 and b > 0.0 and l > 0.0 and t > 0.0 and mu > 0.0):
        raise ValueError(
            "layer_power_integral requires c > -1, b > 0, l > 0, mu > 0, t > 0")
    offset = math.log(b) + 0.5 * n * math.log(t)
    four_mu_t = 4.0 * mu * t

    def f(r):
        r = np.asarray(r, dtype=float)
        power = c * np.log(r) if c != 0.0 else 0.0
        return np.exp(power - l * np.logaddexp(0.0, offset + r * r / four_mu_t))

    s0 = max(-offset, 0.0)
    r0 = math.sqrt(four_mu_t * s0) if s0 > 0.0 else math.sqrt(four_mu_t)
    dr = 2.0 * mu * t / (l * max(r0, math.sqrt(four_mu_t)))
    return integrate_semi_infinite(
        Integrand(f, small_r_exponent=c,
                  decay=("gaussian", math.sqrt(four_mu_t / l)),
                  splits=(r0, r0 + 3.0 * dr), name="layer_power_integral"),
        rel_tol=rel_tol)


def lemma2_J(d: float, c: float, b: float, l: float, n: int, mu: float,
             t: float, rel_tol: float = 1e-11) -> float:
    """J(t) = t^d int_0^oo r^c / (1 + b t^(n/2) e^(r^2/4mu t))^l dr.

    Requires c > -1, b > 0, l > 0, d > -(c+1)/2, mu > 0, t > 0.  Evaluated
    twice, directly in r and through the s = r^2/4mu t reduction to
    lemma1_I with q = d+(c+1)/2 and k = (c-1)/2; the routes must agree to
    1e-9 relative or NonConvergenceError is raised.  Returns the direct
    value.
    """
    if not d > -(c + 1.0) / 2.0:
        raise ValueError("lemma2_J requires d > -(c+1)/2")
    direct = t ** d * layer_power_integral(c, b, l, n, mu, t, rel_tol).value

    reduced = 0.5 * (4.0 * mu) ** ((c + 1.0) / 2.0) * lemma1_I(
        q=d + (c + 1.0) / 2.0, k=(c - 1.0) / 2.0, b=b, l=l, n=n, t=t,
        rel_tol=rel_tol)
    denom = max(abs(direct), abs(reduced))
    if denom > 0.0 and abs(direct - reduced) > 1e-9 * denom:
        raise NonConvergenceError(
            f"lemma2_J substitution consistency failure: direct {direct!r} "
            f"vs reduced {reduced!r}")
    return direct
