"""Residual verification: every family satisfies the system to rounding,
the two PDE groupings agree, finite-difference re-derivation converges at
stencil order, and the origin limits hold."""

import contextlib
import dataclasses
import inspect
import io
import math
import warnings

import numpy as np
import pytest
from pytest import approx

from cole_lab import cli, solutions
from cole_lab.norms import UnderflowError
from cole_lab.residual import (Grid1D, _scaled, divergence_form_residual,
                               origin_limit_check, radial_residual,
                               residual_pointwise)
from cole_lab.specfun import DomainError
from cole_lab.solutions import (GRID_BLOCK_POINTS, HeatFunction, Params,
                                SingularityError, cartesian_components, cole_hopf, fd_central,
                                fd_derivative, grid_blocks,
                                main_example, nonstationary_erf, self_similar,
                                stationary)

MAIN = main_example(Params(3, 0.1, a=1.0))
NST = nonstationary_erf(0.1)
SS = self_similar(Params(3, 0.005, a=1.0))
ST = stationary(Params(3, 0.1, C=1.0))

GRIDS = [
    ("main", MAIN, Grid1D(1e-4, 0.1, 100, (2e-5, 1e-3), spacing="log")),
    ("nst", NST, Grid1D(1e-3, 0.3, 100, (1e-3, 0.2))),
    ("ss", SS, Grid1D(1e-5, 7e-4, 100, (1e-5, 5e-5), spacing="log")),
    ("st", ST, Grid1D(0.1, 2.0, 100, (1.0,))),
]


@pytest.mark.parametrize("name,fam,grid", GRIDS, ids=[g[0] for g in GRIDS])
def test_analytic_residual_at_rounding_level(name, fam, grid):
    rep = radial_residual(fam, grid)
    assert rep.max_abs_scaled <= 1e-13
    assert rep.l2_scaled <= rep.max_abs_scaled
    assert rep.worst_t in grid.t_values
    assert rep.derivative_source == "analytic" and rep.form == "radial"


@pytest.mark.parametrize("name,fam,grid", GRIDS, ids=[g[0] for g in GRIDS])
def test_divergence_form_agrees_with_radial(name, fam, grid):
    assert divergence_form_residual(fam, grid).max_abs_scaled <= 1e-13
    # same points, same derivatives, different grouping: rounding-level gap
    t = grid.t_values[-1]
    r = grid.radii()[1:]
    gap = residual_pointwise(fam, t, r, form="radial") \
        - residual_pointwise(fam, t, r, form="divergence")
    assert np.max(np.abs(gap)) <= 1e-13


@pytest.mark.parametrize("fam,grid_args,t", [
    (MAIN, (1e-4, 0.1), 1e-3),
    (NST, (1e-3, 0.3), 0.1),
])
def test_finite_difference_residual_converges(fam, grid_args, t):
    # 5-point stencils: truncation is O(h^4); the contract asks for
    # observed order >= 2 and the measurement sits near 4
    lo, hi = grid_args
    maxima = []
    for nr in (32, 64, 128, 256):
        rep = radial_residual(fam, Grid1D(lo, hi, nr, (t,)),
                              derivative_source="finite-difference")
        maxima.append(rep.max_abs_scaled)
    orders = [math.log2(a / b) for a, b in zip(maxima[:-1], maxima[1:])]
    assert all(o >= 2.0 for o in orders)
    assert maxima[-1] < 1e-4


# the canonical grids of acceptance criterion 1 at 64 intervals, with the
# parameters the `residual` subcommand uses for each family
CANONICAL = [
    ("main", MAIN, (1e-4, 0.1), (2e-5, 1e-3, 3)),
    ("ss", SS, (5e-5, 7e-4), (1e-5, 5e-5, 2)),
    ("st", ST, (0.1, 2.0), (0.5, 1.0, 2)),
    ("nst", NST, (1e-3, 0.3), (1e-3, 0.2, 3)),
]


@pytest.mark.parametrize("form", ["radial", "divergence"])
@pytest.mark.parametrize("name,fam,r_range,t_range", CANONICAL,
                         ids=[c[0] for c in CANONICAL])
def test_finite_difference_residual_equals_per_radius_loop(name, fam, r_range,
                                                           t_range, form):
    # one array call per stencil offset gives the bits of one stencil per
    # radius, because every evaluator returns the scalar calls' bits
    radii = np.linspace(*r_range, 65)
    h = float(np.min(np.diff(radii)))
    r = radii[radii - 2.0 * h > 0.0]
    for t in np.geomspace(*t_range).tolist():
        h_t = t * h / r_range[1]
        got = residual_pointwise(fam, t, r, form, "finite-difference",
                                 h_r=h, h_t=h_t)
        ur = [fd_derivative(lambda x: fam.u(t, x), ri, h) for ri in r]
        urr = [fd_central(lambda x: fam.u(t, x), ri, h, fam.u(t, ri))[1] for ri in r]
        ut = [fd_derivative(lambda tau: fam.u(tau, ri), t, h_t) for ri in r]
        want = _scaled(fam, t, r, form, fam.u(t, r), np.array(ur),
                       np.array(urr), np.array(ut))
        assert np.array_equal(got, want), t


def _per_slice_report(fam, grid, form, source):
    """The grid report from one evaluation per time slice, with the
    stencils of fd_derivative and fd_central: the loop the whole-grid residual replaced."""
    r = grid.radii()
    r = r[r > 0.0]
    if source == "finite-difference":
        h = float(np.min(np.diff(grid.radii())))
        r = r[r - 2.0 * h > 0.0]
    worst, worst_t, worst_r, sq_sum = -1.0, math.nan, math.nan, 0.0
    for t in grid.t_values:
        if source == "analytic":
            d = (fam.u(t, r), fam.u_r(t, r), fam.u_rr(t, r), fam.u_t(t, r))
        else:
            h_t = t * h / grid.r_max
            u = fam.u(t, r)
            d = (u, fd_derivative(lambda x: fam.u(t, x), r, h),
                 fd_central(lambda x: fam.u(t, x), r, h, u)[1],
                 fd_derivative(lambda tau: fam.u(tau, r), t, h_t))
        a = np.abs(_scaled(fam, t, r, form, *d))
        i = int(np.argmax(a))
        if a[i] > worst:
            worst, worst_t, worst_r = float(a[i]), float(t), float(r[i])
        sq_sum += float(np.sum(a * a))
    count = len(r) * len(grid.t_values)
    return (worst, math.sqrt(sq_sum / count), worst_t, worst_r, count)


@pytest.mark.parametrize("source", ["analytic", "finite-difference"])
@pytest.mark.parametrize("form", ["radial", "divergence"])
@pytest.mark.parametrize("name,fam,r_range,t_range", CANONICAL,
                         ids=[c[0] for c in CANONICAL])
def test_grid_residual_equals_per_slice_loop(name, fam, r_range, t_range, form,
                                             source):
    # one call per quantity on the whole (t, r) grid, reduced slice by slice
    # in t order, reports the bits of one evaluation per slice
    grid = Grid1D(*r_range, 64, tuple(np.geomspace(*t_range).tolist()))
    run = radial_residual if form == "radial" else divergence_form_residual
    rep = run(fam, grid, derivative_source=source)
    assert (rep.max_abs_scaled, rep.l2_scaled, rep.worst_t, rep.worst_r,
            rep.n_points) == _per_slice_report(fam, grid, form, source)
    assert (rep.form, rep.derivative_source) == (form, source)


@pytest.mark.parametrize("source,calls", [("analytic", 1),
                                          ("finite-difference", 1)])
def test_grid_residual_work_count(source, calls):
    # one family call on the whole grid: the analytic pass asks u's field
    # for u, u_r, u_rr and u_t over one core (it made one call per
    # quantity), the finite-difference pass for u on the (9, t, r) stack of
    # the centre, four radial offsets shared by u_r and u_rr and four time
    # offsets (it made nine calls, one per stencil point)
    seen = []

    def counted(t, r, *names):
        seen.append((np.shape(r), names))
        return MAIN.u(t, r, *names)

    fam = dataclasses.replace(MAIN, u=counted)
    rep = radial_residual(fam, Grid1D(1e-4, 0.1, 64, (2e-5, 2e-4, 1e-3)),
                          derivative_source=source)
    assert len(seen) == calls
    grid = (3, rep.n_points // 3)
    assert seen[0] == ((grid, ("u_r", "u_rr", "u_t")) if source == "analytic"
                       else ((9, *grid), ()))


@pytest.mark.parametrize("nr,k", [(199, 120), (8192, 3)])
def test_grid_residual_evaluates_in_blocks_of_rows(nr, k):
    # a grid larger than one block is evaluated block by block, each block
    # of whole t rows within GRID_BLOCK_POINTS (at least one row), so memory
    # grows with the block; the report keeps the bits of a per-slice loop
    seen = []

    def counted(t, r, *names):
        seen.append(np.shape(r))
        return MAIN.u(t, r, *names)

    fam = dataclasses.replace(MAIN, u=counted)
    grid = Grid1D(1e-4, 0.1, nr, tuple(np.geomspace(2e-5, 1e-3, k).tolist()))
    rep = radial_residual(fam, grid)
    rows = max(1, GRID_BLOCK_POINTS // (nr + 1))
    assert len(seen) == math.ceil(k / rows)
    assert [shape[0] for shape in seen] == [
        min(rows, k - i) for i in range(0, k, rows)]
    assert all(shape[1] == nr + 1 for shape in seen)
    assert (rep.max_abs_scaled, rep.l2_scaled, rep.worst_t, rep.worst_r,
            rep.n_points) == _per_slice_report(MAIN, grid, "radial", "analytic")


@pytest.mark.parametrize("nr,k", [(199, 12), (8192, 2)])
def test_finite_difference_stack_stays_within_a_block(nr, k):
    # the finite-difference pass stacks nine stencil points per grid point
    # in one call, so a block holds GRID_BLOCK_POINTS // (9 (nr + 1)) whole
    # t rows and the stack stays within GRID_BLOCK_POINTS points, unless
    # nine copies of one t row are already more; the report keeps the bits
    # of a per-slice loop
    seen = []

    def counted(t, r, *names):
        seen.append(np.shape(r))
        return MAIN.u(t, r, *names)

    fam = dataclasses.replace(MAIN, u=counted)
    grid = Grid1D(1e-4, 0.1, nr, tuple(np.geomspace(2e-5, 1e-3, k).tolist()))
    rep = radial_residual(fam, grid, derivative_source="finite-difference")
    width = rep.n_points // k
    rows = max(1, GRID_BLOCK_POINTS // (9 * width))
    assert seen == [(9, min(rows, k - i), width) for i in range(0, k, rows)]
    assert all(math.prod(shape) <= max(GRID_BLOCK_POINTS, 9 * width) for shape in seen)
    assert (rep.max_abs_scaled, rep.l2_scaled, rep.worst_t, rep.worst_r,
            rep.n_points) == _per_slice_report(MAIN, grid, "radial", "finite-difference")


def test_grid_blocks_keep_a_row_wider_than_a_block_whole():
    # no Grid1D row (at most 8193 radii) outgrows a block, but a wider r row
    # is still one block per t row, never split
    r = np.linspace(0.0, 1.0, 2 * GRID_BLOCK_POINTS)
    blocks = list(grid_blocks([1e-3, 1e-2, 1e-1], r))
    assert [t.ravel().tolist() for t, _ in blocks] == [[1e-3], [1e-2], [1e-1]]
    assert all(rb.shape == (1, r.size) for _, rb in blocks)


def test_finite_difference_shrinks_stencil_at_left_edge():
    # points whose stencil would cross r = 0 are dropped, not evaluated
    g = Grid1D(0.0, 0.1, 50, (1e-3,))
    rep = radial_residual(MAIN, g, derivative_source="finite-difference")
    assert rep.n_points < 51
    assert rep.max_abs_scaled < 1e-2


def cartesian_residual(s, t, points):
    """Worst scaled residual of u_t + (Du)u - mu Lap(u) = 0 over R^n points,
    from the Cartesian assembly (value, Jacobian, second partials); at the
    origin of an origin-regular family every term vanishes by the
    closed-form limits."""
    n, mu = s.params.n, s.params.mu
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        value, jac, second = cartesian_components(s, t, x)
        r = float(np.linalg.norm(x))
        ut_vec = float(s.u_t(t, r)) / r * x if r > 0.0 else np.zeros(n)
        advect = jac @ value
        lap = np.einsum("ijj->i", second)
        scale = max(float(np.max(np.abs(ut_vec))), float(np.max(np.abs(advect))),
                    mu * float(np.max(np.abs(lap))), 1e-300)
        worst = max(worst, float(np.max(np.abs(ut_vec + advect - mu * lap))) / scale)
    return worst


def test_cartesian_residual_including_origin():
    pts = [np.zeros(3), np.array([0.02, 0.01, -0.015]), np.array([0.0, 0.05, 0.0])]
    assert cartesian_residual(MAIN, 1e-3, pts) <= 1e-13
    assert cartesian_residual(NST, 0.1, [np.zeros(3), np.array([0.05, -0.04, 0.1])]
                              ) <= 1e-13
    assert cartesian_residual(SS, 1e-5, [np.array([2e-4, 1e-4, -1e-4])]) <= 1e-13


def test_zero_solution_residual_is_zero():
    # every term is an exact 0, not an underflow, so this is no error
    zeros = lambda t, r: np.zeros_like(np.asarray(r, dtype=float))
    const = HeatFunction(theta=lambda t, r: np.ones_like(np.asarray(r, dtype=float)),
                         theta_r=zeros, theta_rr=zeros, theta_rrr=zeros,
                         theta_t=zeros, theta_rt=zeros)
    fam = cole_hopf(const, Params(3, 0.1))
    rep = radial_residual(fam, Grid1D(0.1, 1.0, 32, (0.5,)))
    assert rep.max_abs_scaled == 0.0


def test_residual_of_underflowed_terms_raises():
    # mu = 1e300 puts u near 1e-449: every term underflows to 0, which
    # reported an exact solve (0.0) at the parent
    fam = main_example(Params(3, 1e300, a=1.0))
    grid = Grid1D(1e-4, 0.1, 32, (2e-5, 1e-3))
    for source in ("analytic", "finite-difference"):
        with pytest.raises(UnderflowError, match="underflow"):
            radial_residual(fam, grid, derivative_source=source)


def test_singular_family_on_grid_touching_zero():
    # r = 0 nodes are excluded automatically; no singularity is evaluated
    g = Grid1D(0.0, 7e-4, 32, (1e-5,))
    rep = radial_residual(SS, g)
    assert rep.n_points == 32
    assert rep.max_abs_scaled <= 1e-13


def test_residual_pointwise_validation():
    with pytest.raises(ValueError):
        residual_pointwise(MAIN, 1e-3, [0.01], form="weak")
    with pytest.raises(ValueError):
        residual_pointwise(MAIN, 1e-3, [0.01], derivative_source="symbolic")
    with pytest.raises(ValueError):
        residual_pointwise(MAIN, 1e-3, [0.01], derivative_source="finite-difference")


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid1D(0.0, 1.0, 8, (0.1,))              # nr too small
    with pytest.raises(DomainError):
        Grid1D(0.0, 1.0, 8193, (0.1,))           # nr above the solver's range
    assert Grid1D(0.0, 1.0, 8192, (0.1,)).radii().size == 8193
    with pytest.raises(DomainError):
        Grid1D(-0.1, 1.0, 32, (0.1,))
    with pytest.raises(DomainError):
        Grid1D(0.5, 0.5, 32, (0.1,))
    with pytest.raises(DomainError):
        Grid1D(0.0, 1.0, 32, (0.1,), spacing="chebyshev")
    with pytest.raises(DomainError):
        Grid1D(0.0, 1.0, 32, (0.1,), spacing="log")
    with pytest.raises(DomainError):
        Grid1D(0.0, 1.0, 32, ())
    with pytest.raises(DomainError):
        Grid1D(0.0, 1.0, 32, (0.1, -0.2))


def test_grid_radii():
    g = Grid1D(1e-3, 1.0, 30, (0.1,), spacing="log")
    r = g.radii()
    assert len(r) == 31 and r[0] == approx(1e-3) and r[-1] == approx(1.0)
    assert np.all(np.diff(np.log(r)) > 0.0)


def test_origin_limit_check_passes_for_main():
    rep = origin_limit_check(MAIN, 1e-3)
    assert rep.passed
    assert rep.limit_a_order == approx(2.0, abs=0.2)
    assert rep.limit_b_order == approx(1.0, abs=0.2)
    assert rep.limit_a_gap <= 1e-8
    assert rep.limit_c_gap <= 1e-6
    A = 1.0 * (4.0 * math.pi * 0.1 * 1e-3) ** 1.5
    assert rep.limit_a_target == approx(1.0 / (1e-3 * (1.0 + A)), rel=1e-12)


def test_origin_limit_check_radii_are_dyadic():
    # the radii are fixed, 2^-k sqrt(4 mu t_bar) for k = 4..14, largest
    # first: no caller passed others, so the option is gone
    assert list(inspect.signature(origin_limit_check).parameters) == ["s", "t_bar"]
    base = math.sqrt(4.0 * 0.1 * 1e-3)
    assert origin_limit_check(MAIN, 1e-3).radii == tuple(
        base * 2.0 ** -k for k in range(4, 15))


def test_origin_limit_check_rejects_other_families():
    for fam in (SS, main_example(Params(3, 0.1, a=0.0))):
        with pytest.raises(DomainError, match="applies to MainExample with a > 0"):
            origin_limit_check(fam, 1e-3)


_DEEP_MAIN = (main_example(Params(3, 1e-8, a=1.0)), Grid1D(1e-300, 1e-299, 16, (1e-2, 1e-8)))
_HUGE_MU_ST = (stationary(Params(3, 1e300, C=1.0)), Grid1D(0.0, 1.0, 16, (1.0,)))
_DEEP_NST = (nonstationary_erf(0.1), Grid1D(1e-4, 0.1, 16, (1e-300, 1e-306)))


@pytest.mark.parametrize("fam,grid,source,where", [
    # r * r underflows to 0 in _terms, so u / r^2 is inf and R NaN
    (*_DEEP_MAIN, "analytic", "t = 0.01, r = 1e-300"),
    (*_DEEP_MAIN, "finite-difference", "t = 0.01, r = 1.56"),
    # u is 3e301 at r = 0.0625, so u u_r and mu u_rr pass the largest
    # double and R / scale is inf / inf
    (*_HUGE_MU_ST, "analytic", "t = 1.0, r = 0.0625"),
])
def test_residual_that_is_not_a_finite_double_raises(fam, grid, source, where):
    # these reported max_abs_scaled -1.0 (the running maximum's start, which
    # no NaN passes) or a clean maximum beside a NaN l2_scaled.  The
    # RuntimeWarnings on the way are counted by the CLI's argv fuzz
    for run in (radial_residual, divergence_form_residual):
        with pytest.raises(SingularityError, match=f"not a finite double at {where}"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run(fam, grid, derivative_source=source)


def test_erf_residual_past_its_flat_point_is_finite():
    # the erf family's u_t read NaN at t = 1e-306, r = 1e-4, where -mu / t / r
    # overflows and z v'(z) is 0 (past z = 40), so this grid raised "not a
    # finite double"; u_t is 0 there and the residual is at rounding level
    for run in (radial_residual, divergence_form_residual):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # -mu / t / r overflows
            rep = run(*_DEEP_NST)
        assert rep.max_abs_scaled <= 1e-15 and rep.n_points == 34


def test_origin_limit_check_where_t_cubed_underflows_raises():
    # at t_bar = 1e-300 the c-limit target's 4 mu^2 t^3 (1 + A)^3 underflows
    # to 0: a bare ZeroDivisionError
    with pytest.raises(SingularityError, match="underflows to 0 at t = 1e-300"):
        origin_limit_check(main_example(Params(2, 1e-8, a=3.0)), 1e-300)


def test_origin_limit_check_where_t_cubed_overflows_raises():
    # at t_bar = 1e200 the Python float powers t^3 and (1 + A)^3 pass the
    # largest double: a bare OverflowError
    for n in (2, 12):
        with pytest.raises(SingularityError, match="overflows a double at t = 1e"):
            origin_limit_check(main_example(Params(n, 0.1)), 1e200)


def test_origin_limit_check_without_a_gap_to_fit_raises():
    # at n = 12, A = a (4 pi mu t_bar)^6 ~ 4e-18 puts g's r^2 correction
    # below an ulp of the target, so g - target is 0 at every radius and
    # np.polyfit got empty arrays: a bare TypeError.  n = 8 still fits
    with pytest.raises(UnderflowError, match=r"n=12.*t_bar = 0\.001: the gap g - target "
                                             "is 0 at 11 of 11 radii"):
        origin_limit_check(main_example(Params(12, 0.1)), 1e-3)
    assert not origin_limit_check(main_example(Params(8, 0.1)), 1e-3).passed


def test_self_similar_residual_runs_the_scaled_tail_once_per_pass(monkeypatch):
    # the residual subcommand's analytic pass asks for u, u_r, u_rr and u_t
    # over one core, and its finite-difference pass for u on one stack of
    # its nine stencil points: 2 calls of scaled_tail (and of its continued
    # fraction), where one per quantity and per stencil point made 13
    calls = []
    tail = solutions.scaled_tail

    def counted(n, rho):
        calls.append(np.shape(rho))
        return tail(n, rho)

    monkeypatch.setattr(solutions, "scaled_tail", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["residual", "--family", "SelfSimilar", "--mu", "0.005",
                         "--grid", "5e-5:7e-4:64", "--t-grid", "1e-5:5e-5:2"]) == 0
    assert calls == [(2, 65), (9, 2, 65)]
