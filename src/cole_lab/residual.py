"""PDE residual checks: does each family actually solve the system?

Radial form:      u_t + u u_r = mu (u_rr + (n-1)(u_r/r - u/r^2))
Divergence form:  u_t + ((1/2)u^2)_r = mu (u_r + ((n-1)/r) u)_r

The two are algebraically identical for smooth u; evaluating both with
different floating-point groupings and comparing to rounding is a cheap
self-check on the derivative evaluators.  Residuals are reported relative
to the largest single term magnitude at each point, since the terms
themselves reach 1e6 and beyond as t -> 0 and absolute tolerances would be
meaningless there.  A grid on which every term underflows to 0 raises
norms.UnderflowError instead of reporting an exact solve, and a point whose
scaled residual is not a finite double raises SingularityError instead of
reporting NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .norms import UnderflowError
from .solutions import (FD_STACK, SingularityError, SolutionFamily, _pow,
                        fd_partials, grid_blocks)
from .specfun import require

__all__ = [
    "Grid1D",
    "ResidualReport",
    "OriginLimitReport",
    "residual_pointwise",
    "radial_residual",
    "divergence_form_residual",
    "origin_limit_check",
]


@dataclass(frozen=True)
class Grid1D:
    """Evaluation grid: nr+1 radii from r_min to r_max, at the given times;
    16 <= nr <= 8192, the solver's range.

    spacing "uniform" or "log" (log requires r_min > 0).  Singular families
    need r_min > 0; the conventional inner cutoff is 1e-3 sqrt(4 mu t).
    """

    r_min: float
    r_max: float
    nr: int
    t_values: tuple
    spacing: str = "uniform"

    def __post_init__(self):
        require((16 <= self.nr <= 8192, "Grid1D.nr must be in [16, 8192]"),
                (0.0 <= self.r_min < self.r_max < math.inf, "need 0 <= r_min < r_max < inf"),
                (self.spacing in ("uniform", "log"), "spacing must be 'uniform' or 'log'"),
                (self.spacing != "log" or self.r_min > 0.0, "log spacing requires r_min > 0"),
                (self.t_values and all(t > 0.0 for t in self.t_values),
                 "t_values must be positive and nonempty"))

    def radii(self) -> np.ndarray:
        if self.spacing == "uniform":
            return np.linspace(self.r_min, self.r_max, self.nr + 1)
        return np.geomspace(self.r_min, self.r_max, self.nr + 1)


@dataclass(frozen=True)
class ResidualReport:
    family: str
    form: str                  # "radial" | "divergence"
    derivative_source: str     # "analytic" | "finite-difference"
    max_abs_scaled: float
    l2_scaled: float
    worst_t: float
    worst_r: float
    n_points: int


def _terms(s: SolutionFamily, r: np.ndarray, form: str, u, ur, urr, ut):
    """(R, scale): the residual and the largest single term magnitude."""
    n, mu = s.params.n, s.params.mu
    if form == "radial":
        R = ut + u * ur - mu * (urr + (n - 1.0) * (ur / r - u / (r * r)))
    elif form == "divergence":
        R = ut + u * ur - mu * urr - mu * (n - 1.0) * ((ur * r - u) / (r * r))
    else:
        raise ValueError(f"unknown form {form!r}")
    scale = np.maximum.reduce([
        np.abs(ut), np.abs(u * ur), mu * np.abs(urr),
        mu * (n - 1.0) * np.abs(ur / r), mu * (n - 1.0) * np.abs(u) / (r * r),
    ])
    return R, scale


def _scaled(s: SolutionFamily, t: float, r: np.ndarray, form: str,
            u, ur, urr, ut):
    R, scale = _terms(s, r, form, u, ur, urr, ut)
    scale = np.maximum(scale, 1e-300)
    return R / scale


def _derivatives(s: SolutionFamily, t, r: np.ndarray,
                 derivative_source: str, h_r: Optional[float],
                 h_t) -> tuple:
    """(u, u_r, u_rr, u_t) at radii r for one time slice t, or for a column
    of slices against r at the block's shape, from one family call: the
    analytic pass asks for the four quantities over one core, and the
    finite-difference pass for u on one stack of the centre, the four
    radial offsets shared by u_r and u_rr, and the four time offsets
    (solutions.fd_partials)."""
    if derivative_source == "analytic":
        return s.at(t, r, "u", "u_r", "u_rr", "u_t")
    if derivative_source == "finite-difference":
        if h_r is None or h_t is None:
            raise ValueError("finite-difference residual needs h_r and h_t")
        return fd_partials(s.u, t, r, h_r, h_t)
    raise ValueError(f"unknown derivative source {derivative_source!r}")


def residual_pointwise(s: SolutionFamily, t: float, r, form: str = "radial",
                       derivative_source: str = "analytic",
                       h_r: Optional[float] = None,
                       h_t: Optional[float] = None) -> np.ndarray:
    """Scaled residual at radii r (r > 0) for one time slice."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return _scaled(s, t, r, form,
                   *_derivatives(s, t, r, derivative_source, h_r, h_t))


def _underflows(s: SolutionFamily, g: Grid1D) -> bool:
    """True when evaluating u, u_r, u_rr and u_t on the grid underflows,
    i.e. their zeros stand for values too small for a double."""
    r = g.radii()
    r = r[r > 0.0]
    with np.errstate(under="raise"):
        try:
            for t, grid_r in grid_blocks(g.t_values, r):
                _derivatives(s, t, grid_r, "analytic", None, None)
        except FloatingPointError:
            return True
    return False


def _run_grid(s: SolutionFamily, g: Grid1D, form: str,
              derivative_source: str) -> ResidualReport:
    """The report over the grid, from one family call per block of t rows
    (solutions.grid_blocks; a finite-difference block keeps its stack of
    FD_STACK points per grid point within GRID_BLOCK_POINTS); the maximum
    and the sum of squares are still taken slice by slice in t order, as a
    loop over slices would.  Where every term is 0 at every point and those zeros come
    from underflow, the residual carries no digits and UnderflowError is
    raised; an exact zero solution still reports 0.  Otherwise a scaled
    residual that is not a finite double (a term that overflows, or r^2
    that underflows to 0) raises SingularityError naming its (t, r): its
    NaN would go unseen past the running maximum."""
    r = g.radii()
    r = r[r > 0.0]  # both forms divide by r
    h_r = h_t = None
    if derivative_source == "finite-difference":
        # step from the grid itself; shrink the stencil footprint away
        # from the left domain edge
        h_r = float(np.min(np.diff(g.radii())))
        r = r[r - 2.0 * h_r > 0.0]
    worst = -1.0
    worst_t = worst_r = math.nan
    sq_sum = 0.0
    digits = False
    bad = None   # the first point whose scaled residual is not a finite double
    for t, grid_r in grid_blocks(g.t_values, r, 1 if h_r is None else FD_STACK):
        if h_r is not None:
            h_t = t * h_r / g.r_max
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            R, scale = _terms(s, r, form, *_derivatives(
                s, t, grid_r, derivative_source, h_r, h_t))
            a = np.abs(R / np.maximum(scale, 1e-300))   # checked by bad below
        digits = digits or bool(np.any(scale > 0.0))
        if bad is None and not np.isfinite(a).all():
            i, j = np.argwhere(~np.isfinite(a))[0]
            bad = f"t = {float(t[i, 0])!r}, r = {float(r[j])!r}"
        for t_i, a_i in zip(t[:, 0].tolist(), a):
            i = int(np.argmax(a_i))
            if a_i[i] > worst:
                worst, worst_t, worst_r = float(a_i[i]), t_i, float(r[i])
            sq_sum += float(np.sum(a_i * a_i))
    if not digits and _underflows(s, g):
        raise UnderflowError(
            f"{s.label()}: u, u_r, u_rr and u_t underflow to 0 at every grid "
            "point, so the residual carries no digits")
    if bad is not None:
        raise SingularityError(
            f"{s.label()}: the {form} residual is not a finite double at {bad}")
    count = len(g.t_values) * len(r)
    return ResidualReport(
        family=s.label(), form=form, derivative_source=derivative_source,
        max_abs_scaled=worst, l2_scaled=math.sqrt(sq_sum / max(count, 1)),
        worst_t=worst_t, worst_r=worst_r, n_points=count)


def radial_residual(s: SolutionFamily, g: Grid1D,
                    derivative_source: str = "analytic") -> ResidualReport:
    """Scaled residual of the radial system over the grid.

    derivative_source "analytic" uses the family's closed-form partials;
    "finite-difference" re-derives them from u alone with 5-point stencils
    whose step is the grid spacing, giving an independent second pass.
    """
    return _run_grid(s, g, "radial", derivative_source)


def divergence_form_residual(s: SolutionFamily, g: Grid1D,
                             derivative_source: str = "analytic") -> ResidualReport:
    """Residual of the divergence (conservation) form; algebraically the
    same PDE, evaluated with a different grouping so agreement with
    radial_residual is a rounding-level consistency check."""
    return _run_grid(s, g, "divergence", derivative_source)


@dataclass(frozen=True)
class OriginLimitReport:
    """Origin behavior of the main example at fixed t_bar.

    (a) u/r -> 1/(t(1+A)) at order r^2, A = a (4 pi mu t)^(n/2)
    (b) (u/r)_r -> 0 at order r
    (c) ((u/r)_r/r)_r/r -> A(A-1)/(4 mu^2 t^3 (1+A)^3)
    """

    t_bar: float
    radii: tuple
    limit_a_target: float
    limit_a_order: float
    limit_a_gap: float        # |g(smallest r) - target| / target
    limit_b_order: float
    limit_c_target: float
    limit_c_gap: float
    passed: bool = field(default=True)


# origin_limit_check's radii over sqrt(4 mu t_bar): 2^-k for k = 4..14
_ORIGIN_RADII = np.ldexp(1.0, -np.arange(4, 15))


def _loglog_slope(x: np.ndarray, y: np.ndarray, what: str) -> float:
    """Slope of log y against log x over the points where y > 0;
    UnderflowError, naming what, where fewer than two are."""
    good = y > 0.0
    if np.count_nonzero(good) < 2:
        raise UnderflowError(f"{what} is 0 at {np.count_nonzero(~good)} of "
                             f"{len(y)} radii, too few for a convergence order")
    lx, ly = np.log(x[good]), np.log(y[good])
    return float(np.polyfit(lx, ly, 1)[0])


def origin_limit_check(s: SolutionFamily, t_bar: float) -> OriginLimitReport:
    """Quantify origin regularity of the main example: measured limits and
    observed convergence orders over the radii _ORIGIN_RADII."""
    require((s.kind == "MainExample" and s.params.a > 0.0,
             "origin_limit_check applies to MainExample with a > 0"))
    n, mu, a = s.params.n, s.params.mu, s.params.a
    t_bar = float(t_bar)
    r = math.sqrt(4.0 * mu * t_bar) * _ORIGIN_RADII

    A = a * _pow(4.0 * math.pi * mu * t_bar, 0.5 * n)
    denominator_c = 4.0 * mu * mu * _pow(t_bar, 3.0) * _pow(1.0 + A, 3.0)
    if not 0.0 < denominator_c < math.inf:
        how = "underflows to 0" if denominator_c == 0.0 else "overflows a double"
        raise SingularityError(f"{s.label()}: the c-limit target's denominator "
                               f"4 mu^2 t^3 (1 + A)^3 {how} at t = {t_bar!r}")
    target_a = 1.0 / (t_bar * (1.0 + A))
    target_c = A * (A - 1.0) / denominator_c

    g_vals, gr_vals, w_vals = s.at(t_bar, r, "g", "g_r", "W")
    gap_a = np.abs(g_vals - target_a)
    at = f"{s.label()} at t_bar = {t_bar!r}"
    order_a = _loglog_slope(r, gap_a, f"{at}: the gap g - target")
    rel_a = float(gap_a[-1] / abs(target_a))

    order_b = _loglog_slope(r, np.abs(gr_vals), f"{at}: (u/r)_r")

    w_small = float(w_vals[-1])
    gap_c = abs(w_small - target_c) / max(abs(target_c), 1e-300)

    passed = (abs(order_a - 2.0) <= 0.2 and abs(order_b - 1.0) <= 0.2
              and rel_a <= 1e-8 and gap_c <= 1e-6)
    return OriginLimitReport(
        t_bar=t_bar, radii=tuple(float(x) for x in r),
        limit_a_target=target_a, limit_a_order=order_a, limit_a_gap=rel_a,
        limit_b_order=order_b, limit_c_target=target_c, limit_c_gap=gap_c,
        passed=passed)
