"""Adaptive quadrature on (0, oo) for powers times sharp exponential layers.

The integrals behind the norm computations all look like

    int_0^oo r^c / (1 + b t^(n/2) exp(r^2/4mu t))^l dr

or their s = r^2/4mu t reductions: smooth, positive, one interior layer
where the denominator switches from 1 to huge, then Gaussian or exponential
decay.  A 15-point Gauss-Kronrod rule with bisection of the worst panels
handles this well provided the layer is split on and the upper truncation
follows the decay certificate instead of a fixed cutoff.

Each integral is a generator (_integral) that lays out its panels, extends
its tail and refines by generation, taking its own decisions: it yields the
new panels (and tail probes) of a generation and receives their K15/G7
values.  integrate_many runs many such members in lockstep, with one call
of a batched integrand F(rows, r) per generation on the new panels of every
member, so a sweep of integrals costs the calls of its slowest member
rather than the sum of all; each member gets the bits of its own run.
integrate_semi_infinite is the one-member case, whose integrand is called
on a flat array of whole panels' nodes, so integrands are written for
numpy arrays of any length.

Callers describe an integrand with its endpoint behavior (power exponent at
0+, decay class at infinity, optional split hints near the layer); see
`Integrand`.  `lemma1_I` and `lemma2_J` wrap the two parametric families
used throughout, evaluating the denominator in log-domain so that b t^(n/2)
ranging over hundreds of orders of magnitude costs no accuracy.  Given
arrays, they integrate all elements (and routes) in one integrate_many.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Integrand",
    "QuadResult",
    "NonConvergenceError",
    "integrate_semi_infinite",
    "integrate_many",
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
# the layout plus the midpoint again, the 16th column of a generation that
# carries tail probes
_OFFSETS16 = np.append(_OFFSETS, 0.0)


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

    A member of integrate_many leaves f at None: one batched integrand
    evaluates every member.
    """

    f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    small_r_exponent: float = 0.0
    decay: tuple = ("exponential", 1.0)
    splits: tuple = ()
    name: str = ""


def _nodes(lo: np.ndarray, hi: np.ndarray, offsets: np.ndarray = _OFFSETS):
    """(nodes, half-widths) of the panels [lo_i, hi_i]: a row of nodes per
    panel, at offsets in units of its half-width from its midpoint."""
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + half[:, None] * offsets, half


def _rules(fx: np.ndarray, half: np.ndarray):
    """Gauss-Kronrod 15(7) on panels of half-widths half from the panels x
    15 values fx at their nodes: (error estimates, values) as lists.  The
    estimate is QUADPACK's: |K15 - G7| sharpened through the scaled total
    variation resasc, with a rounding floor of 50 eps |f|-integral."""
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
    return np.maximum(err, floor).tolist(), (resk * half).tolist()


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


def _layer_width(decay: tuple) -> float:
    """w = 200 scale^2 for a Gaussian tail, else inf: a panel beside a split
    or tail radius r spans at most w/r, 400 of the tail's decay lengths
    scale^2/(2r) there; the outer nodes of a wider one lie so far from a
    layer at r that the panel misses it, error estimate and all."""
    return 200.0 * decay[1] ** 2 if decay[0] == "gaussian" else math.inf


# The protocol of one integral (_integral, _tail): each generation it yields
# (jobs, probes), its new panels as jobs (lo, hi, m), where m is the exponent
# of the substitution r = y^m when [lo, hi] is a panel in y (else None), and
# probes, the radii at which the tail stage needs |f|, one for each of the
# last len(probes) jobs.  It receives (panels, |f| at the probes), each
# panel a tuple (error estimate, lo, hi, value, m), and returns its result.

def _tail(layout: list, decay: tuple, radius: float, total: float,
          rel_tol: float, abs_tol: float, name: str):
    """The first two stages of _integral: evaluate the layout's jobs, and
    extend the upper limit from radius by factors of 1.6 (or less:
    _layer_width) until the decay certificate puts the tail beyond it below
    a tenth of the tolerance; total is the integral below radius, apart
    from the layout's panels.

    The step-by-step rule probes |f| at the current radius, stops if the
    certificate passes, and otherwise adds the panel up to the next radius
    to the running total.  Here the steps run in chunks of doubling length,
    a chunk's probes and panels in one generation, the first chunk's
    together with the layout's panels; the panels kept are exactly the
    prefix the step-by-step rule keeps.  Returns (layout panels, tail
    panels, tail bound)."""
    laid = None
    kept = []
    chunk = 2
    done = 0
    w = _layer_width(decay)
    while done < _TAIL_STEPS:
        chunk = min(chunk, _TAIL_STEPS - done)
        radii = [radius]
        for _ in range(chunk):
            radii.append(min(radii[-1] * _TAIL_GROWTH, radii[-1] + w / radii[-1]))
        panels, absf = yield (layout + [(lo, hi, None) for lo, hi in zip(radii[:-1], radii[1:])],
                              radii[:-1])
        if laid is None:
            laid, panels = panels[:len(layout)], panels[len(layout):]
            total += sum(p[3] for p in laid)
            layout = []
        for k, panel in enumerate(panels):
            tail_bound = _tail_estimate(absf[k], decay, radii[k])
            if tail_bound <= 0.1 * max(abs_tol, rel_tol * abs(total)):
                return laid, kept + panels[:k], tail_bound
            total += panel[3]
        kept += panels
        radius = radii[-1]
        done += chunk
        chunk *= 2
    raise NonConvergenceError(f"tail truncation stalled at r = {radius:.3g} for {name}")


def _integral(f: Integrand, rel_tol: float, max_subdivisions: int):
    """One integral over (0, oo) in three stages, each generation of new
    panels yielded to _lockstep (see the protocol above):

    1. Lay out panels over the split hints and flanks (_layer_width), with
       r = y^m on the left-most one when the endpoint exponent is singular.
    2. Extend the upper limit until the decay certificate puts the
       remaining tail below a tenth of the tolerance; the final certificate
       is charged to the error estimate.  Its first generation also
       evaluates the layout (_tail).
    3. Refine by generation: sort the live panels by error and bisect the
       worst ones until the panels left unsplit fit inside the tolerance.
       A panel narrower than 100 eps max(|lo|, |hi|, 1) is frozen instead.

    The value and error are summed in position order, so they do not depend
    on the order of refinement.  Raises NonConvergenceError once the
    subdivision cap is hit or no panel can be split further."""
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    abs_tol = rel_tol * _TINY
    alpha = f.small_r_exponent
    if alpha <= -1.0:
        raise ValueError(f"integrand declares r^{alpha} at 0+, not integrable")
    if f.decay[0] == "power" and f.decay[1] >= -1.0:
        raise ValueError(f"power tail r^{f.decay[1]} is not integrable")
    name = f.name or "integrand"

    splits = sorted({float(s) for s in f.splits if s > 0.0}) or [1.0]
    w = _layer_width(f.decay)
    splits = sorted(splits + [s - w / s for s, lo in zip(splits, [0.0] + splits)
                              if lo < s - w / s < s])
    b1 = splits[0]
    if alpha < -0.05:
        m = min(2.0 / (1.0 + alpha), 50.0)
        left = (0.0, b1 ** (1.0 / m), m)
    else:
        left = (0.0, b1, None)
    layout = [left] + [(lo, hi, None) for lo, hi in zip(splits[:-1], splits[1:])]
    live, tail, tail_bound = yield from _tail(layout, f.decay, splits[-1], 0.0,
                                              rel_tol, abs_tol, name)
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
                f"{name}: error estimate {total_err:.3g} above "
                f"tolerance after {n_panels} panels")
        live.sort(key=itemgetter(0), reverse=True)
        k = 0
        while excess > 0.0 and k < len(live):
            excess -= live[k][0]
            k += 1
        worst, live = live[:k], live[k:]
        jobs = []
        for panel in worst:
            _, lo, hi, _, m = panel
            if hi - lo < 100.0 * _EPS * max(abs(lo), abs(hi)):
                frozen.append(panel)
            elif n_panels < max_subdivisions:
                mid = 0.5 * (lo + hi)
                jobs += [(lo, mid, m), (mid, hi, m)]
                n_panels += 1
            else:
                live.append(panel)
        if jobs:
            # the jobs of the worst panel's piece (r or y) first, so that a
            # run's panels in y form one block of rows
            first = jobs[0][2]
            jobs.sort(key=lambda job: job[2] != first)
            live += (yield jobs, ())[0]

    # deterministic final reduction: sum in position order
    panels = sorted(live + frozen, key=itemgetter(1, 2))
    value = math.fsum(p[3] for p in panels)
    err_total = math.fsum(p[0] for p in panels) + tail_bound
    return QuadResult(value=value, abs_error_estimate=err_total,
                      subdivisions=n_panels)


def _lockstep(F, runs) -> list:
    """Drive the generators runs (the protocol above) to their ends in
    lockstep.  Each generation gathers the new panels of every live run
    into one node array and makes one call F(rows, r): r holds a panel's 15
    nodes per row, plus a 16th column when some run probes (the probe, or
    the panel's midpoint on a row without one), and rows[i] is the index of
    row i's run.  A panel in y is mapped to r = y^m, with its run's scalar
    m, before the call and its values times m y^(m-1) after it.  Returns
    each run's return value, or the NonConvergenceError it raised."""
    results = [None] * len(runs)
    pending = {i: next(run) for i, run in enumerate(runs)}
    while pending:
        rows, jobs, blocks, probe_rows, probe_r = [], [], [], [], []
        for i, (new, probes) in pending.items():
            start = len(jobs)
            rows += [i] * len(new)
            jobs += new
            blocks.append((i, start, len(jobs), len(probes)))
            probe_rows += range(len(jobs) - len(probes), len(jobs))
            probe_r += probes
        los, his, ms = zip(*jobs)
        nodes, half = _nodes(np.array(los), np.array(his),
                             _OFFSETS16 if probe_r else _OFFSETS)
        if probe_r:
            nodes[probe_rows, 15] = probe_r
        # the panels in y: (first row, end row, m, y^(m-1)) per run
        jacobians = []
        if any(ms):
            for i, start, end, _ in blocks:
                rows_y = [j for j in range(start, end) if ms[j] is not None]
                if rows_y:
                    a, b, m = rows_y[0], rows_y[-1] + 1, ms[rows_y[0]]
                    y = nodes[a:b]
                    jacobians.append((a, b, m, y ** (m - 1.0)))
                    nodes[a:b] = y ** m
        fx = np.asarray(F(np.array(rows), nodes), dtype=float).reshape(nodes.shape)
        for a, b, m, jac in jacobians:
            fx[a:b] = fx[a:b] * m * jac
        err, val = _rules(fx[:, :15] if probe_r else fx, half)
        absf = np.abs(fx[:, 15]).tolist() if probe_r else None
        for i, start, end, probes in blocks:
            panels = list(zip(err[start:end], los[start:end], his[start:end],
                              val[start:end], ms[start:end]))
            try:
                pending[i] = runs[i].send((panels, absf[end - probes:end] if probes else ()))
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
            except NonConvergenceError as exc:
                results[i] = exc
                del pending[i]
    return results


def integrate_many(F, members, rel_tol: float,
                   max_subdivisions: int = 10_000) -> list:
    """Integrate each member (an Integrand, whose f is not used) over
    (0, oo) in lockstep, as integrate_semi_infinite would integrate it
    alone.

    F(rows, r) evaluates the integrand of member rows[i] on row i of the
    2-D node array r, for all rows in one call; per-member parameters
    enter it as (rows, 1) columns, e.g. ts[rows][:, None], so the
    arithmetic rounds as a float parameter would.  Every member takes its
    own refinement decisions, so each gets the bits of its own run, and a
    sweep costs one call of F per generation of its slowest member.
    Returns per member its QuadResult, or the NonConvergenceError it
    raised; the other members are unaffected."""
    return _lockstep(F, [_integral(m, rel_tol, max_subdivisions) for m in members])


def integrate_semi_infinite(f: Integrand, rel_tol: float,
                            max_subdivisions: int = 10_000) -> QuadResult:
    """Integrate f over (0, oo) to within max(rel_tol*|I|, abs_tol), where
    abs_tol = rel_tol times the smallest normal double lies below the
    relative tolerance of every integral that is a normal double.

    The one-member case of integrate_many (see _integral for the stages):
    each generation is one call of f on a flat array of whole panels'
    nodes.  Raises NonConvergenceError once the subdivision cap is hit or
    no panel can be split further."""
    res, = _lockstep(lambda rows, r: f.f(r.ravel()),
                     [_integral(f, rel_tol, max_subdivisions)])
    if isinstance(res, NonConvergenceError):
        raise res
    return res


def _run(groups, alone: bool, rel_tol: float) -> list:
    """Per group (f, planned) the results of its integrals, planned a list
    of (member, args) with integrand f(*args, r).  alone: each through
    integrate_semi_infinite, float args.  Else all in one integrate_many,
    args as (rows, 1) columns and each f on its group's block of rows
    (rows come in member order), a result per member."""
    if alone:
        return [[integrate_semi_infinite(dataclasses.replace(
                     m, f=functools.partial(f, *args)), rel_tol=rel_tol)
                 for m, args in planned] for f, planned in groups]
    starts = list(itertools.accumulate((len(planned) for _, planned in groups), initial=0))
    blocks = [(f, start, np.array([args for _, args in planned], dtype=float).T[:, :, None])
              for (f, planned), start in zip(groups, starts) if planned]
    bounds = [start for _, start, _ in blocks] + starts[-1:]

    def F(rows, r):
        cuts = np.searchsorted(rows, bounds).tolist()
        return np.concatenate([f(*(c[rows[a:z] - start] for c in columns), r[a:z])
                               for (f, start, columns), a, z in zip(blocks, cuts, cuts[1:])])
    results = integrate_many(F, [m for _, planned in groups for m, _ in planned],
                             rel_tol) if blocks else []
    return [results[a:z] for a, z in zip(starts, starts[1:])]


def _each(build, fs, finish, args: tuple, rel_tol: float):
    """finish(x, *results) per element x of args broadcast together, build(*x)
    planning a (member, args) per route of integrand fs[i] (see _run): a
    float for scalar args, else an array of the broadcast shape whose
    integrals run in lockstep.  Raises the first NonConvergenceError."""
    arrays = np.broadcast_arrays(*args)
    elements = list(zip(*(a.ravel().tolist() for a in arrays)))
    routes = zip(*(build(*x) for x in elements))
    results = _run(list(zip(fs, routes)), arrays[0].shape == (), rel_tol)
    for res in itertools.chain(*results):
        if isinstance(res, NonConvergenceError):
            raise res
    values = [finish(*each) for each in zip(elements, *results)]
    return values[0] if arrays[0].shape == () else np.array(values).reshape(arrays[0].shape)


def _power_layer(k, x, l, z):
    """x^k / (1 + e^z)^l with the bracket in log-domain; k and l are
    floats, or (rows, 1) columns of integrate_many's members."""
    # a column takes k log x throughout: where k = 0 it is +-0, which moves
    # no bit of the exponent
    power = k * np.log(x) if isinstance(k, np.ndarray) or k != 0.0 else 0.0
    return np.exp(power - l * np.logaddexp(0.0, z))


def _lemma1(q, k, b, l, n, t):
    """(member, args) of lemma1_I: its Integrand without f, and the
    arguments (k, l, offset) of _lemma1_f."""
    if not (k > -1.0 and b > 0.0 and q > 0.0 and l > 0.0 and t > 0.0):
        raise ValueError("lemma1_I requires k > -1, b > 0, q > 0, l > 0, t > 0")
    offset = math.log(b) + 0.5 * n * math.log(t)
    s0 = max(-offset, 0.0)
    layer = 3.0 / l
    splits = (s0, s0 + layer) if s0 > 0.0 else (1.0, 1.0 + layer)
    member = Integrand(small_r_exponent=k, decay=("exponential", l),
                       splits=splits, name="lemma1_I")
    return member, (k, l, offset)


def _lemma1_f(k, l, offset, s):
    """s^k / (1 + e^(offset + s))^l, lemma1_I's integrand."""
    return _power_layer(k, s, l, offset + s)


def lemma1_I(q, k, b, l, n, t, rel_tol: float = 1e-11):
    """I(t) = t^q int_0^oo s^k / (1 + b t^(n/2) e^s)^l ds.

    Requires k > -1, b > 0, q > 0, l > 0, t > 0.  The denominator is kept
    in log-domain: (1+A e^s)^-l = exp(-l*logaddexp(0, log A + s)), so A may
    underflow or overflow a double without harm.  Arrays broadcast together
    give an array, each element with the bits of its scalar call.
    """
    return _each(lambda *x: [_lemma1(*x)], [_lemma1_f],
                 lambda x, res: x[5] ** x[0] * res.value, (q, k, b, l, n, t), rel_tol)


def _layer_power(c: float, b: float, l: float, n: int, mu: float, t: float):
    """(member, args) of layer_power_integral: its Integrand without f, and
    the arguments (c, l, offset, 4 mu t) of _layer_power_f."""
    if not (c > -1.0 and b > 0.0 and l > 0.0 and t > 0.0 and mu > 0.0):
        raise ValueError(
            "layer_power_integral requires c > -1, b > 0, l > 0, mu > 0, t > 0")
    offset = math.log(b) + 0.5 * n * math.log(t)
    four_mu_t = 4.0 * mu * t
    s0 = max(-offset, 0.0)
    r0 = math.sqrt(four_mu_t * s0) if s0 > 0.0 else math.sqrt(four_mu_t)
    dr = 2.0 * mu * t / (l * max(r0, math.sqrt(four_mu_t)))
    member = Integrand(small_r_exponent=c, decay=("gaussian", math.sqrt(four_mu_t / l)),
                       splits=(r0, r0 + 3.0 * dr), name="layer_power_integral")
    return member, (c, l, offset, four_mu_t)


def _layer_power_f(c, l, offset, four_mu_t, r):
    """r^c / (1 + e^(offset + r^2/4 mu t))^l, layer_power_integral's."""
    return _power_layer(c, r, l, offset + r * r / four_mu_t)


def layer_power_integral(c: float, b: float, l: float, n: int, mu: float,
                         t: float, rel_tol: float = 1e-11) -> QuadResult:
    """int_0^oo r^c / (1 + b t^(n/2) e^(r^2/4mu t))^l dr, no t^d prefactor.

    Requires c > -1, b > 0, l > 0, mu > 0, t > 0.  This is the bare layer
    integral shared by lemma2_J (which multiplies by t^d and enforces the
    d > -(c+1)/2 decay precondition) and by norm bounds, which need the
    integral even for exponents d where the bound fails to vanish.
    """
    return _each(lambda *x: [_layer_power(*x)], [_layer_power_f], lambda x, res: res,
                 (c, b, l, n, mu, t), rel_tol)


def _lemma2(d, c, b, l, n, mu, t):
    """(member, args) of lemma2_J's two routes, the integrals in r and s."""
    if not d > -(c + 1.0) / 2.0:
        raise ValueError("lemma2_J requires d > -(c+1)/2")
    return (_layer_power(c, b, l, n, mu, t),
            _lemma1(d + (c + 1.0) / 2.0, (c - 1.0) / 2.0, b, l, n, t))


def _lemma2_finish(x, direct, reduced) -> float:
    d, c, b, l, n, mu, t = x
    value = t ** d * direct.value
    other = 0.5 * (4.0 * mu) ** ((c + 1.0) / 2.0) * (t ** (d + (c + 1.0) / 2.0) * reduced.value)
    denom = max(abs(value), abs(other))
    if denom > 0.0 and abs(value - other) > 1e-9 * denom:
        raise NonConvergenceError(
            f"lemma2_J substitution consistency failure: direct {value!r} "
            f"vs reduced {other!r}")
    return value


def lemma2_J(d, c, b, l, n, mu, t, rel_tol: float = 1e-11):
    """J(t) = t^d int_0^oo r^c / (1 + b t^(n/2) e^(r^2/4mu t))^l dr.

    Requires c > -1, b > 0, l > 0, d > -(c+1)/2, mu > 0, t > 0.  Evaluated
    twice, directly in r and through the s = r^2/4mu t reduction to
    lemma1_I with q = d+(c+1)/2 and k = (c-1)/2; the routes must agree to
    1e-9 relative or NonConvergenceError is raised.  Returns the direct
    value; arrays broadcast together give an array, each element with the
    bits (and the route check) of its scalar call.
    """
    return _each(_lemma2, [_layer_power_f, _lemma1_f], _lemma2_finish,
                 (d, c, b, l, n, mu, t), rel_tol)
