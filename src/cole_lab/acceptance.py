"""The ten acceptance checks behind `cole-lab verify-all`.

Each criterion runs its canonical configuration and yields one line per
sub-check, which _criterion collects into a CriterionResult.  It never
raises on a verification failure (only on programming errors), so a red
check reports measured numbers instead of a traceback.  The checks are deliberately
literal: where a limit statement is operationalized (a "-> 0" turned into a
monotonicity-plus-ratio cut), the cut is stated in the line it produces.

Criterion summary:
  1  scaled PDE residual <= 1e-9 for every family on its canonical grid
  2  L^p norms vanish for (n,p) in {(2,1),(3,1),(3,2),(5,4)}, grow for
     {(3,4),(2,3)}: strictly decreasing with final < 1e-3 * first
  3  L^inf blowup: sup_r u monotone increasing, final/first > 1e3
  4  self-similar decay_fit slope = (n-p)/(2p) to 1e-6, residual <= 1e-6
  5  erf-vs-stationary distance slope = (3-p)/(2p) for p in {1,2};
     divergence flag at p = 3
  6  gradient bound integrals vanish for (5,2), grow for (3,2); Hessian
     bound vanishes for (7,2), grows for (3,1); same cut as #2
  7  origin regularity: Jacobian limit g0 * I to 1e-10; observed orders
     2.0 +- 0.2 and 1.0 +- 0.2
  8  lemma closed forms to 1e-10 over 20 seeded random draws; key-integral
     J strictly decreasing over t = 1e-2..1e-8 with final < 0.1 * first
  9  solver convergence ratios in [3.5, 4.5] under h-halving (cn-central)
     for the main example and the erf family, one stacked march of both
     per nr; min-principle experiment
 10  cole_hopf(a + G_n) == main_example to 1e-13 on 1000 seeded points
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from . import norms as N
from . import pdesolver as P
from . import residual as R
from .quadrature import lemma1_I, lemma2_J
from .solutions import (Params, cartesian_components, cole_hopf,
                        gaussian_heat_function, main_example,
                        nonstationary_erf, self_similar, stationary)

__all__ = ["CriterionResult", "AcceptanceReport", "run_all", "CRITERIA"]

_T7 = tuple(np.geomspace(1e-2, 1e-8, 7))   # t = 10^-k, k = 2..8
_SEED = 20260823


@dataclass(frozen=True)
class CriterionResult:
    index: int
    title: str
    passed: bool
    lines: tuple

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:2d} [{status}] {self.title}"


@dataclass(frozen=True)
class AcceptanceReport:
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _line(ok: bool, text: str) -> tuple:
    return ok, f"  [{'ok' if ok else 'FAIL'}] {text}"


def _criterion(index: int, title: str):
    """Decorator: a generator of _line pairs becomes a zero-argument
    criterion whose CriterionResult passes when every line does."""
    def build(lines):
        @functools.wraps(lines)
        def run() -> CriterionResult:
            checks = list(lines())
            return CriterionResult(index, title, all(ok for ok, _ in checks),
                                   tuple(text for _, text in checks))
        return run
    return build


def _strictly(values, order) -> bool:
    return all(order(a, b) for a, b in zip(values[:-1], values[1:]))


def _cut(values, label: str, vanish: bool, grow_text: str) -> tuple:
    """The #2/#6 cut: a vanishing sweep is strictly decreasing with
    final < 1e-3 * first, a growing one strictly increasing."""
    if vanish:
        mono = _strictly(values, operator.gt)
        ratio = values[-1] / values[0]
        return _line(mono and ratio < 1e-3,
                     f"{label} vanishing: monotone={mono} "
                     f"final/first={ratio:.3e} (< 1e-3 required)")
    grow = _strictly(values, operator.lt)
    return _line(grow, f"{label} {grow_text}: increasing={grow}")


def _slope(label: str, report, want: float) -> tuple:
    """The #4/#5 check: decay_fit slope = want to 1e-6, residual <= 1e-6."""
    fit = N.decay_fit(report)
    ok = abs(fit.slope - want) <= 1e-6 and fit.max_log_residual <= 1e-6
    return _line(ok, f"{label}: slope {fit.slope:.9f} (want {want:g}), "
                     f"residual {fit.max_log_residual:.2e}")


@_criterion(1, "PDE residual on canonical grids")
def criterion_1():
    main_grid = R.Grid1D(1e-4, 0.1, 200, tuple(np.geomspace(2e-5, 1e-3, 9)))
    ss_grid = R.Grid1D(5e-5, 7e-4, 200, tuple(np.geomspace(1e-5, 5e-5, 5)))
    cases = (
        [(main_example(Params(n=n, mu=0.1, a=1.0)), main_grid) for n in (2, 3, 5)]
        + [(self_similar(Params(n=n, mu=0.005, a=1.0)), ss_grid) for n in (3, 4)]
        + [(stationary(Params(n=n, mu=0.1, C=C)),
            R.Grid1D(0.5 if n == 2 else 0.1, 2.0, 200, (1.0,)))
           for n, C in ((2, 1.0), (3, 0.0), (4, 1.0))]
        + [(nonstationary_erf(0.01),
            R.Grid1D(1e-3, 0.3, 200, tuple(np.geomspace(1e-3, 0.2, 9))))])
    for fam, grid in cases:
        rep = R.radial_residual(fam, grid)
        yield _line(rep.max_abs_scaled <= 1e-9,
                    f"{fam.label()}: max scaled residual "
                    f"{rep.max_abs_scaled:.3e} <= 1e-9")


@_criterion(2, "L^p vanishing / sharpness dichotomy")
def criterion_2():
    for n, p, vanish in ((2, 1.0, True), (3, 1.0, True), (3, 2.0, True),
                         (5, 4.0, True), (3, 4.0, False), (2, 3.0, False)):
        fam = main_example(Params(n=n, mu=0.1, a=1.0))
        rep = N.norm_sweep(fam, N.NormSpec("lp", p=p), _T7)
        yield _cut(rep.values, f"(n,p)=({n},{p:g})", vanish, "sharpness")


@_criterion(3, "L^inf blowup")
def criterion_3():
    fam = main_example(Params(n=3, mu=0.1, a=1.0))
    rep = N.norm_sweep(fam, N.NormSpec("linf"), _T7)
    mono = _strictly(rep.values, operator.lt)
    ratio = rep.values[-1] / rep.values[0]
    yield _line(mono, f"sup_r u monotone increasing as t -> 0: {mono}")
    yield _line(ratio > 1e3, f"final/first = {ratio:.4g} > 1e3")


@_criterion(4, "self-similar exact scaling slopes")
def criterion_4():
    for n, p in ((3, 1.0), (3, 2.0), (4, 2.0)):
        fam = self_similar(Params(n=n, mu=0.005, a=1.0))
        yield _slope(f"(n,p)=({n},{p:g})",
                     N.norm_sweep(fam, N.NormSpec("lp", p=p)), (n - p) / (2.0 * p))


@_criterion(5, "erf-vs-stationary L^p distance decay")
def criterion_5():
    nst = nonstationary_erf(0.1)
    for p in (1.0, 2.0):
        yield _slope(f"p={p:g}", N.norm_sweep(nst, N.NormSpec("distance", p=p)),
                     (3.0 - p) / (2.0 * p))
    rep3 = N.norm_sweep(nst, N.NormSpec("distance", p=3.0), (1e-2, 1e-4))
    yield _line(set(rep3.flags) == {"divergent"},
                f"p=3 flagged divergent: {rep3.flags}")


@_criterion(6, "Sobolev bound-integral thresholds")
def criterion_6():
    for name, bound, n, p, vanish in (
            ("grad bound sum", N.grad_bound_integrals, 5, 2.0, True),
            ("grad bound sum", N.grad_bound_integrals, 3, 2.0, False),
            ("hess bound total", N.hess_bound_lp, 7, 2.0, True),
            ("hess bound total", N.hess_bound_lp, 3, 1.0, False)):
        fam = main_example(Params(n=n, mu=0.1, a=1.0))
        vals = [bound(fam, p, t)[0] for t in _T7]
        yield _cut(vals, f"{name} (n,p)=({n},{p:g})", vanish, "fails to vanish")


@_criterion(7, "origin regularity of the main example")
def criterion_7():
    fam = main_example(Params(n=3, mu=0.1, a=1.0))
    t_bar = 1e-3
    _, jac, _ = cartesian_components(fam, t_bar, np.zeros(3))
    target = fam.g0(t_bar) * np.eye(3)
    gap = float(np.max(np.abs(jac - target)))
    rep = R.origin_limit_check(fam, t_bar)
    yield _line(gap <= 1e-10, f"Jacobian at x=0 matches g0*I: gap {gap:.3e} <= 1e-10")
    yield _line(abs(rep.limit_a_order - 2.0) <= 0.2,
                f"order of |u/r - g0|: {rep.limit_a_order:.4f} = 2.0 +- 0.2")
    yield _line(abs(rep.limit_b_order - 1.0) <= 0.2,
                f"order of |(u/r)_r|: {rep.limit_b_order:.4f} = 1.0 +- 0.2")
    yield _line(rep.passed, "origin limit report passed overall")


@_criterion(8, "integral lemma oracles")
def criterion_8():
    rng = np.random.default_rng(_SEED)
    worst1 = worst2 = 0.0
    for _ in range(20):
        q = rng.uniform(0.5, 3.0)
        b = 10.0 ** rng.uniform(-1.0, 1.0)
        n = int(rng.integers(2, 8))
        t = 10.0 ** rng.uniform(-6.0, 0.0)
        mu = 10.0 ** rng.uniform(-2.0, 0.0)
        d = rng.uniform(-0.9, 2.0)
        offset = math.log(b) + 0.5 * n * math.log(t)
        # k=0, l=1: I = t^q log(1 + 1/(b t^(n/2)))
        exact1 = t ** q * float(np.logaddexp(0.0, -offset))
        got1 = lemma1_I(q=q, k=0.0, b=b, l=1.0, n=n, t=t)
        worst1 = max(worst1, abs(got1 - exact1) / abs(exact1))
        # c=1, l=1: J = 2 mu t^(d+1) log(1 + 1/(b t^(n/2)))
        exact2 = 2.0 * mu * t ** (d + 1.0) * float(np.logaddexp(0.0, -offset))
        got2 = lemma2_J(d=d, c=1.0, b=b, l=1.0, n=n, mu=mu, t=t)
        worst2 = max(worst2, abs(got2 - exact2) / abs(exact2))
    yield _line(worst1 <= 1e-10, f"lemma1_I k=0,l=1 closed form: worst rel "
                                 f"{worst1:.3e} <= 1e-10 over 20 draws")
    yield _line(worst2 <= 1e-10, f"lemma2_J c=1,l=1 closed form: worst rel "
                                 f"{worst2:.3e} <= 1e-10 over 20 draws")
    # key-integral parameterization: d=-p, c=p+n-1, l=p at (n,p)=(3,2)
    n, p, mu, a = 3, 2.0, 0.1, 1.0
    b = a * (4.0 * math.pi * mu) ** (0.5 * n)
    js = [lemma2_J(d=-p, c=p + n - 1.0, b=b, l=p, n=n, mu=mu, t=t) for t in _T7]
    mono = _strictly(js, operator.gt)
    ratio = js[-1] / js[0]
    yield _line(mono and ratio < 0.1,
                f"key integral J -> 0: strictly decreasing={mono}, "
                f"final/first={ratio:.3e} < 0.1")


@_criterion(9, "finite-difference oracle")
def criterion_9():
    cfg = P.SolverConfig(n=3, mu=0.1, r_max=0.3, nr=64, t0=1e-3, t1=2e-3,
                         scheme="cn-central")
    # one stacked march per nr: both families at 128, 256 and 512
    reports = P.convergence_study(cfg, (
        (main_example(Params(n=3, mu=0.1, a=1.0)), [128, 256, 512]),
        (nonstationary_erf(0.1), [64, 128, 256, 512])))
    for name, rep in zip(("main example", "erf family"), reports):
        yield _line(all(3.5 <= rho <= 4.5 for rho in rep.ratios),
                    f"{name} cn-central ratios "
                    + str([f"{rho:.3f}" for rho in rep.ratios])
                    + " all in [3.5, 4.5]")
    mp = P.min_principle_experiment(
        P.SolverConfig(n=3, mu=0.1, r_max=2.0, nr=256, t0=1e-3, t1=5e-3))
    yield _line(mp.passed,
                f"min principle: max drop {mp.max_drop:.3e} <= eps_h "
                f"{mp.eps_h:.3e}, rhs>0 fraction {mp.rhs_positive_fraction:g}")


@_criterion(10, "Cole-Hopf identity")
def criterion_10():
    rng = np.random.default_rng(_SEED + 1)
    p = Params(n=3, mu=0.1, a=1.0)
    fam = main_example(p)
    ch = cole_hopf(gaussian_heat_function(p), p)
    ts, rs = [], []
    for _ in range(1000):
        t = 10.0 ** rng.uniform(-6.0, 0.0)
        ts.append(t)
        rs.append(math.sqrt(4.0 * p.mu * t) * 10.0 ** rng.uniform(-1.5, 1.5))
    ts, rs = np.array(ts), np.array(rs)
    ue, uc = fam.u(ts, rs), ch.u(ts, rs)
    worst = float(np.max(np.abs(uc - ue) / np.maximum(np.abs(ue), 1e-300)))
    yield _line(worst <= 1e-13,
                f"worst relative gap {worst:.3e} <= 1e-13 over 1000 points")


CRITERIA: List[Callable[[], CriterionResult]] = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
]


def run_all() -> AcceptanceReport:
    return AcceptanceReport(results=tuple(fn() for fn in CRITERIA))
