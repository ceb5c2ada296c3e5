"""Norm functionals: dual-route values against the layer integral, scaling
identities, divergence power counting, sup-norm search, and decay fits."""

import dataclasses
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from pytest import approx

from cole_lab import cli, quadrature
from cole_lab.cli import main
from cole_lab.norms import (KINDS, BracketingError, DegenerateFitError,
                            DivergenceError, NormReport, NormSpec,
                            UnderflowError, decay_fit, default_t_grid,
                            grad_bound_integrals, grad_lp_norm, hess_bound_lp,
                            hessian_frobenius_lp, hessian_frobenius_sq,
                            linf_norm, lp_distance, lp_norm, norm_sweep,
                            sphere_measure, _bound_integrand, _derivative_lp,
                            _distance_integrand, _distance_plan, _hess_plan,
                            _lp_integrand, _lp_plan)
from cole_lab.quadrature import Integrand, integrate_semi_infinite, layer_power_integral
from cole_lab.solutions import (Params, SingularityError, SolutionFamily,
                                cartesian_components, main_example,
                                nonstationary_erf, self_similar, stationary)
from cole_lab.specfun import DomainError

MAIN = main_example(Params(3, 0.1, a=1.0))
MAIN0 = main_example(Params(3, 0.1, a=0.0))
SS = self_similar(Params(3, 0.005, a=1.0))
ST0 = stationary(Params(3, 0.1, C=0.0))
ST1 = stationary(Params(3, 0.1, C=1.0))
NST = nonstationary_erf(0.1)


def test_sphere_measure_small_dimensions():
    assert sphere_measure(2) == approx(2.0 * math.pi, rel=1e-15)
    assert sphere_measure(3) == approx(4.0 * math.pi, rel=1e-15)
    assert sphere_measure(4) == approx(2.0 * math.pi ** 2, rel=1e-15)


def test_default_t_grid_shape():
    ts = default_t_grid()
    assert ts[0] == approx(1e-2) and ts[-1] == approx(1e-8) and len(ts) == 13


# ---------------------------------------------------------------------------
# L^p dual route: for the main example the p-th power of the norm reduces
# algebraically to the bare layer integral with c = p + n - 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,p,mu,a,t", [
    (3, 1.0, 0.1, 1.0, 1e-3),
    (3, 2.0, 0.1, 1.0, 1e-6),
    (5, 2.5, 0.03, 0.7, 1e-4),
    (2, 1.0, 1.0, 2.0, 1e-2),
])
def test_lp_norm_matches_layer_integral(n, p, mu, a, t):
    fam = main_example(Params(n, mu, a=a))
    b = a * (4.0 * math.pi * mu) ** (0.5 * n)
    layer = layer_power_integral(c=p + n - 1.0, b=b, l=p, n=n, mu=mu, t=t)
    want = (sphere_measure(n) * t ** (-p) * layer.value) ** (1.0 / p)
    got = lp_norm(fam, NormSpec("lp", p=p), t)
    assert got == approx(want, rel=1e-9)


@pytest.mark.parametrize("t", [1e-26, 1e-30, 1e-60, 1e-100, 1e-200])
def test_lp_norm_matches_polylog_at_deep_t(t):
    """Main example (n=3, mu=0.1, a=1) L^1 norm against its closed form
    omega (4 mu t)^2/(2t) F_1(eta), F_1(eta) = -Li_2(-e^eta) and
    eta = -log(a (4 pi mu t)^(3/2)), in 30-digit mpmath.  Every panel here
    is far narrower than 1, so the quadrature's freeze test must be
    relative for these to converge."""
    mp = mpmath.mp
    with mp.workdps(30):
        four_mu_t = 4 * mp.mpf("0.1") * mp.mpf(t)
        eta = -mp.log((mp.pi * four_mu_t) ** mp.mpf(1.5))
        want = 4 * mp.pi * four_mu_t ** 2 / (2 * mp.mpf(t)) * -mp.polylog(2, -mp.exp(eta))
    assert lp_norm(MAIN, NormSpec("lp", p=1.0), t) == approx(float(want), rel=1e-12)


DEEP_T = (1e-2, 1e-30, 1e-75, 1e-150, 1e-200, 1e-225, 1e-300)


def _log_layer(g, eta):
    """log int_0^oo g(x, iD, sigma) dx by the trapezoid rule in log domain,
    with iD = 1/f and sigma = 1 - iD for f = 1 + e^(x^2 - eta), on a grid
    dense across the layer at x^2 = eta."""
    x0 = math.sqrt(max(eta, 1.0))
    x = np.concatenate([np.linspace(1e-300, x0 - 1.0, 6000, endpoint=False),
                        np.linspace(x0 - 1.0, x0 + 1.0, 6000, endpoint=False),
                        np.linspace(x0 + 1.0, math.sqrt(eta + 80.0) + 1.0, 6000)])
    lse = np.logaddexp(0.0, x * x - eta)
    logs = g(np.log(x), x * x, -lse, x * x - eta - lse)
    top = logs.max()
    return top + math.log(np.trapezoid(np.exp(logs - top), x))


def _deep_reference(kind, n, p, t, mu=0.1):
    """log of the main example's (a = 1) norm or bound from integrals in
    xi = r/sqrt(4 mu t), independent of the family evaluators and of the
    quadrature; each g maps (log x, x^2, log iD, log sigma) to the log of
    its integrand."""
    eta = -0.5 * n * math.log(4.0 * math.pi * mu * t)
    l4mt = math.log(4.0 * mu) + math.log(t)
    lw = math.log(sphere_measure(n))
    if kind == "lp":
        return (lw - p * math.log(t) + 0.5 * (p + n) * l4mt + _log_layer(
            lambda lx, x2, liD, ls: (p + n - 1.0) * lx + p * liD, eta)) / p
    if kind == "grad_lp":   # t |Du|_F = iD sqrt((1 - 2 x^2 sigma)^2 + n - 1)
        return (lw - p * math.log(t) + 0.5 * n * l4mt + _log_layer(
            lambda lx, x2, liD, ls: (n - 1.0) * lx + p * liD + 0.5 * p * np.log(
                (1.0 - 2.0 * x2 * np.exp(ls)) ** 2 + n - 1.0), eta)) / p
    return float(np.logaddexp.reduce([
        -k * p * math.log(t) + 0.5 * (c + 1.0) * l4mt
        + _log_layer(lambda lx, x2, liD, ls: c * lx + p * liD, eta)
        for k, c in ((1, n - p - 1.0), (2, p + n - 1.0), (3, 3.0 * p + n - 1.0))]))


def test_deep_t_norms_are_ok_exactly_where_normal(capsys):
    """MainExample lp, grad_lp and hess_bound_lp for n = 2..7 down to
    t = 1e-300: no RuntimeWarning and no non-convergence; flagged ok
    exactly where the value is a normal double (against a log-domain
    trapezoid reference in xi), and then within 1e-6 of it.  Where only
    the p-th power underflowed these were flagged underflow, or unbounded
    where |Du|^p overflowed; the layer's fall between two panel nodes cost
    up to 3e-3 (n = 7, hess, t = 1e-300) under an error estimate of 1e-10."""
    lo, hi = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, kind, p in itertools.product(range(2, 8), ("lp", "grad_lp", "hess_bound_lp"),
                                            (1.0, 2.0)):
            rep = norm_sweep(main_example(Params(n, 0.1, a=1.0)), NormSpec(kind, p=p), DEEP_T)
            if kind == "hess_bound_lp" and p >= n:    # r^(n-p-1) at 0
                assert rep.flags == ("divergent",) * len(DEEP_T)
                continue
            for t, v, flag in zip(DEEP_T, rep.values, rep.flags):
                want = _deep_reference(kind, n, p, t)
                assert min(abs(want - lo), abs(want - hi)) > 1e-3
                where = (n, kind, p, t)
                assert flag == ("ok" if lo < want < hi else
                                "underflow" if want <= lo else "unbounded"), where
                if flag == "ok":
                    assert math.log(v) == approx(want, abs=1e-6), where
    # 40-digit mpmath: (omega t^-p (4 mu t)^((p+n)/2) quad(lambda x:
    # x**(p+n-1) / (1 + b t^(n/2) exp(x**2))**p, [0, ..., inf]))^(1/p)
    five = main_example(Params(5, 0.1, a=1.0))
    for t, want in ((1e-225, 1.9358019056445437e-164), (1e-300, 1.8019131512604294e-220)):
        assert lp_norm(five, NormSpec("lp", p=2.0), t) == approx(want, rel=1e-12)
    # the same with the integrand x**(n-1) f**-2 ((1 - 2 x**2 (f-1)/f)**2
    # + n - 1) for |Du|_F^2; this argv printed inf,nan,unbounded at 1e-200
    assert main(["norms", "--family", "MainExample", "--kind", "grad_lp", "--p", "2",
                 "--t-grid", "1e-150:1e-200:2"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[0] == "1e-200" and row[3] == "ok"
    assert float(row[1]) == approx(3.6432772586779806e+53, rel=1e-12)


def test_self_similar_norms_scale_exactly():
    # ||u(t)||_p / ||u(t0)||_p = (t/t0)^((n-p)/(2p)) with no log correction
    for n, p in ((3, 1.0), (3, 2.0), (4, 2.0)):
        fam = self_similar(Params(n, 0.005, a=1.0))
        spec = NormSpec("lp", p=p)
        t0, t1 = 1e-2, 1e-5
        ratio = lp_norm(fam, spec, t1) / lp_norm(fam, spec, t0)
        assert ratio == approx((t1 / t0) ** ((n - p) / (2.0 * p)), rel=1e-9)


def test_supercritical_lp_grows():
    # p > n: same machinery, opposite direction as t -> 0
    spec = NormSpec("lp", p=4.0)
    assert lp_norm(MAIN, spec, 1e-6) > lp_norm(MAIN, spec, 1e-2)


def test_lp_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec("area", p=2.0)
    with pytest.raises(ValueError):
        NormSpec("lp", p=0.5)
    with pytest.raises(ValueError):
        NormSpec("lp_distance", p=2.0)     # the kind is called "distance"
    assert NormSpec("distance", p=2.0).p == 2.0   # needs no reference
    with pytest.raises(ValueError):
        lp_norm(MAIN, NormSpec("linf"), 1e-3)


def test_integral_norms_take_the_family_dimension():
    # Gamma(n/2) overflows past n = 343; the guard reads the family's n,
    # where it read a spec n that the sweep then ignored, and it runs before
    # the quadrature, whose integral underflows at t = 1e-8
    big = main_example(Params(n=400, mu=0.1, a=1.0))
    for kind, t in itertools.product(("lp", "grad_lp"), (1e-2, 1e-8)):
        with pytest.raises(DomainError):
            norm_sweep(big, NormSpec(kind, p=2.0), (t,))
    with pytest.raises(DomainError):
        sphere_measure(344)
    assert norm_sweep(big, NormSpec("linf"), (1e-2,)).flags == ("ok",)


# ---------------------------------------------------------------------------
# divergence power counting
# ---------------------------------------------------------------------------

def test_divergent_cases_raise():
    # stationary C=0 tail ~ 1/r: fails at infinity for p <= n
    with pytest.raises(DivergenceError):
        lp_norm(ST0, NormSpec("lp", p=2.0), 1.0)
    # degenerate a=0 main example u = r/t grows at infinity
    with pytest.raises(DivergenceError):
        lp_norm(MAIN0, NormSpec("lp", p=2.0), 1e-3)
    # erf family tends to 2mu/r, so L^2 diverges; L^4 does not
    with pytest.raises(DivergenceError):
        lp_norm(NST, NormSpec("lp", p=2.0), 1e-3)
    assert math.isfinite(lp_norm(NST, NormSpec("lp", p=4.0), 1e-3))
    # self-similar 1/r singularity at the origin kills p >= 3
    with pytest.raises(DivergenceError):
        lp_norm(SS, NormSpec("lp", p=3.0), 1e-3)
    assert math.isfinite(lp_norm(SS, NormSpec("lp", p=2.0), 1e-3))
    # stationary C=1 decays like 1/r^2: L^2 is actually finite
    assert math.isfinite(lp_norm(ST1, NormSpec("lp", p=2.0), 1.0))


# ---------------------------------------------------------------------------
# L^p distances
# ---------------------------------------------------------------------------

def test_erf_distance_dual_route():
    # closed-form route |u_nst - u_st| = sqrt(mu/t) w(z) vs raw pointwise
    # subtraction fed to the generic quadrature
    mu, t, n = 0.1, 1e-3, 3
    root = math.sqrt(4.0 * mu * t)
    for p in (1.0, 2.0):
        def f(r):
            return np.abs(NST.u(t, r) - ST0.u(t, r)) ** p * r ** (n - 1.0)
        raw = integrate_semi_infinite(
            Integrand(f, small_r_exponent=-p + n - 1.0,
                      decay=("gaussian", root / math.sqrt(p)), splits=(root,)),
            rel_tol=1e-11)
        assert raw.abs_error_estimate <= 1e-11 * abs(raw.value)
        want = (sphere_measure(n) * raw.value) ** (1.0 / p)
        assert lp_distance(NST, p, t) == approx(want, rel=1e-9)


def test_erf_distance_divergent_at_p3():
    with pytest.raises(DivergenceError):
        lp_distance(NST, 3.0, 1e-3)


def test_erf_distance_exact_slope():
    # sqrt(mu/t) w(r/sqrt(4mu t)) scales exactly: slope (3-p)/(2p)
    spec = NormSpec("distance", p=1.0)
    fit = decay_fit(norm_sweep(NST, spec, np.geomspace(1e-2, 1e-6, 9)))
    assert fit.slope == approx(1.0, abs=1e-9)
    assert fit.max_log_residual < 1e-9


# ---------------------------------------------------------------------------
# gradient and Hessian quantities
# ---------------------------------------------------------------------------

def test_grad_bound_dominates_exact_norm():
    # pointwise |Du|_F <= bound integrands gives norm <= 2 (omega B)^(1/p)
    for p in (1.0, 2.0):
        for t in (1e-3, 1e-5, 1e-7):
            bound, err = grad_bound_integrals(MAIN, p, t)
            assert 0.0 < err <= 1e-8 * bound
            cap = 2.0 * (sphere_measure(3) * bound) ** (1.0 / p)
            assert grad_lp_norm(MAIN, p, t) < cap


def test_grad_bounds_only_for_main_example():
    assert math.isfinite(grad_lp_norm(NST, 4.0, 1e-3))
    for fam in (NST, SS, MAIN0):
        with pytest.raises(DomainError):
            grad_bound_integrals(fam, 2.0, 1e-3)


def test_grad_divergent_for_strong_singularity():
    # |Du| ~ 1/r^2 for the self-similar family: fails for p >= 1.5 in n=3
    with pytest.raises(DivergenceError):
        grad_lp_norm(SS, 2.0, 1e-3)


def _xi_hess_terms(t, p):
    """[(term, error)] of the three Hessian bound terms t^-kp int r^c f^-p
    dr of MAIN as the bound core forms them: (4 mu t)^((c+1)/2) J in logs,
    J the integral in xi = r/sqrt(4 mu t); each term also against the
    integral in r at rel 1e-13."""
    b = (4.0 * math.pi * 0.1) ** 1.5
    out = []
    for k, c in ((1, 2.0 - p), (2, p + 2.0), (3, 3.0 * p + 2.0)):
        j = layer_power_integral(c, b, p, 3, 0.25 / t, t, rel_tol=1e-10)
        term = math.exp(0.5 * (c + 1.0) * (math.log(4.0 * 0.1) + math.log(t))
                        - k * p * math.log(t) + math.log(j.value))
        in_r = layer_power_integral(c, b, p, 3, 0.1, t, rel_tol=1e-10).value
        assert term == approx(t ** (-k * p) * in_r, rel=1e-13)
        out.append((term, term * (j.abs_error_estimate / j.value)))
    return out


def test_hess_bound_terms_positive_and_restricted():
    t, p = 1e-4, 1.5
    terms = [term for term, _ in _xi_hess_terms(t, p)]
    assert all(term > 0.0 for term in terms)
    value, err = hess_bound_lp(MAIN, p, t)
    assert value == terms[0] + terms[1] + terms[2]
    assert 0.0 < err <= 1e-8 * value
    with pytest.raises(DomainError):
        hess_bound_lp(SS, 1.5, 1e-4)
    with pytest.raises(DivergenceError):
        hess_bound_lp(MAIN, 3.0, 1e-4)   # first exponent n-p-1 hits -1


def test_bound_integrals_past_the_largest_power_of_t(capsys):
    # t^(-kp) passes the largest double (t^-4 = 1e320 at t = 1e-80) while
    # the term t^(-kp) int r^c f^-p dr is still a double: the bound is the
    # finite sum, never an OverflowError, and where the integral in r
    # underflows (raised UnderflowError) the integral in xi gives the bound
    t, p = 1e-80, 2.0
    b = (4.0 * math.pi * 0.1) ** 1.5
    ints = [layer_power_integral(c, b, p, 3, 0.1, t, rel_tol=1e-10).value
            for c in (2.0, 2.0 * p + 2.0)]
    with mpmath.workdps(30):
        want = float(sum(mpmath.mpf(t) ** (-k * p) * v
                         for k, v in zip((1, 2), ints)))
    value, err = grad_bound_integrals(MAIN, p, t)
    assert value == approx(want, rel=1e-13)
    assert 0.0 < err <= 1e-8 * value
    # 40-digit mpmath: the sum over the terms (k, c) of t^-kp (4 mu t)^((c+1)/2)
    # quad(lambda x: x**c / (1 + b t^(3/2) exp(x**2))**p, [0, ..., inf])
    grad = grad_bound_integrals(main_example(Params(3, 0.1)), 2.0, 1e-200)[0]
    assert grad == approx(4.9757247576408335e+107, rel=1e-12)
    assert hess_bound_lp(MAIN, 2.0, 1e-80)[0] == approx(1.7059327141882416e+128,
                                                          rel=1e-12)
    rc = main(["norms", "--family", "MainExample", "--kind", "hess_bound_lp",
               "--p", "2", "--t-grid", "1e-80:1e-100:2"])
    rows = capsys.readouterr().out.splitlines()[2:]
    assert rc == 0
    assert [row.split(",")[-1] for row in rows] == ["ok", "ok"]
    assert float(rows[0].split(",")[1]) == approx(1.7059327141882416e+128, rel=1e-12)


def test_frobenius_formulas_match_cartesian_tensors():
    # |Du|_F^2 and |D^2u|_F^2 computed from the radial shape functions must
    # equal the naive sums over the assembled Cartesian components
    t = 0.37
    x = np.array([0.21, -0.12, 0.32])
    r = float(np.linalg.norm(x))
    for fam in (MAIN, NST, SS, ST1):
        _, jac, second = cartesian_components(fam, t, x)
        n = fam.params.n
        du_sq = fam.u_r(t, r) ** 2 + (n - 1.0) * fam.g(t, r) ** 2
        assert float(np.sum(jac * jac)) == approx(du_sq, rel=1e-12)
        assert float(np.sum(second * second)) == approx(
            float(hessian_frobenius_sq(fam, t, r)), rel=1e-12)


def test_hessian_exact_norm_finite_for_main():
    v = hessian_frobenius_lp(MAIN, 2.0, 1e-4)
    assert math.isfinite(v) and v > 0.0


@pytest.mark.parametrize("n", [3, 5, 7])
def test_hessian_exact_norm_at_deep_t(n):
    """||D^2 u_a(lam^2 t)||_p = lam^(n/p - 3) ||D^2 u_(a lam^n)(t)||_p
    (theta = a + G_n scales so), lam = 1e-10: both sides integrate at
    different depths with different a.  W^2 r^6 overflowed a double from
    t ~ 1e-52, so every point here returned inf after RuntimeWarnings;
    past the depth where W itself overflows (t ~ 1e-103) the norm raises
    SingularityError, where it returned NaN or raised NonConvergenceError.
    Underflow of iD in the Gaussian tail is legitimate, so it is not
    trapped."""
    lam = 1e-10
    fam = main_example(Params(n, 0.1))
    scaled = main_example(Params(n, 0.1, a=lam ** n))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for p, t in itertools.product((1.0, 2.0), (1e-60, 1e-80, 1e-100)):
            v = hessian_frobenius_lp(fam, p, t)
            want = lam ** (n / p - 3.0) * hessian_frobenius_lp(scaled, p, t / lam ** 2)
            assert 0.0 < v < math.inf
            assert v == approx(want, rel=1e-12), (p, t)
        for t in (1e-103, 1e-110, 1e-300):
            with pytest.raises(SingularityError, match="overflows"):
                hessian_frobenius_lp(fam, 2.0, t)


def _mp_main_seminorms(n, p, t, mu=0.1, a=1.0):
    """R^n L^p norms of |Du|_F and |D^2u|_F for the main example by 30-digit
    mpmath quadrature, from g = u/r = 1/(t (1 + a (4 pi mu t)^(n/2)
    e^(r^2/4mu t))) and its derivatives by mp.diffs: |Du|_F^2 = (g + r g')^2
    + (n-1) g^2, and with P r = g', W r^3 = r g'' - g',
    |D^2u|_F^2 = (W r^3)^2 + 6 (W r^3)(P r) + 3(n+2)(P r)^2.  One quadrature
    takes |Du|_F^p as the real and |D^2u|_F^p as the imaginary part, so the
    derivatives are taken once per node."""
    mp = mpmath.mp
    with mp.workdps(30):
        t, mu, p = mp.mpf(t), mp.mpf(mu), mp.mpf(p)
        four_mu_t = 4 * mu * t
        big_a = a * (mp.pi * four_mu_t) ** (mp.mpf(n) / 2)

        def g(r):
            return 1 / (t * (1 + big_a * mp.exp(r * r / four_mu_t)))

        def both(r):
            g0, g1, g2 = mp.diffs(g, r, 2)
            w = r * g2 - g1
            du = ((g0 + r * g1) ** 2 + (n - 1) * g0 ** 2) ** (p / 2)
            d2u = (w * w + 6 * w * g1 + 3 * (n + 2) * g1 * g1) ** (p / 2)
            return mp.mpc(du, d2u) * r ** (n - 1)

        # breakpoints around the interior layer at r0, of width 2 mu t / r0
        r0 = mp.sqrt(-four_mu_t * mp.log(big_a))
        dr = 2 * mu * t / r0
        pts = [0] + [r0 + k * dr for k in (-20, -5, 0, 5, 20, 60)] + [mp.inf]
        omega = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        z = mp.quad(both, pts)
        return tuple(float((omega * v) ** (1 / p)) for v in (z.real, z.imag))


@pytest.mark.parametrize("n,p,t", [(5, 2.0, 1e-2), (5, 2.0, 1e-6),
                                   (7, 2.0, 1e-2), (7, 2.0, 1e-6)])
def test_exact_seminorms_match_mpmath(n, p, t):
    fam = main_example(Params(n, 0.1, a=1.0))
    grad, hess = _mp_main_seminorms(n, p, t)
    assert grad_lp_norm(fam, p, t) == approx(grad, rel=1e-10)
    assert hessian_frobenius_lp(fam, p, t) == approx(hess, rel=1e-10)


# ---------------------------------------------------------------------------
# L^infinity
# ---------------------------------------------------------------------------

def test_linf_finds_interior_maximum():
    t = 1e-3
    val, r_star = linf_norm(MAIN, t)
    assert val == approx(MAIN.u(t, r_star), rel=1e-12)
    # stationarity at the found maximum, measured against the peak scale
    assert abs(MAIN.u_r(t, r_star)) <= 1e-4 * val / r_star
    grid = np.geomspace(1e-4, 1.0, 200) * math.sqrt(4.0 * 0.1 * t)
    assert val >= np.max(np.abs(MAIN.u(t, grid)))


def _mp_main_u(t):
    # MAIN: r / (t (1 + (4 pi mu t)^(3/2) e^(r^2/4 mu t))), mu = 0.1, a = 1
    t, mu = mpmath.mpf(t), mpmath.mpf("0.1")
    return lambda r: r / (t * (1 + (4 * mpmath.pi * mu * t) ** 1.5
                               * mpmath.exp(r * r / (4 * mu * t))))


def _mp_nst_u(t):
    # NST: 2 mu (1/r - e^(-z^2) / (sqrt(pi mu t) erf z)), z = r/sqrt(4 mu t)
    t, mu = mpmath.mpf(t), mpmath.mpf("0.1")
    return lambda r: 2 * mu * (1 / r - mpmath.exp(-r * r / (4 * mu * t))
                               / (mpmath.sqrt(mpmath.pi * mu * t)
                                  * mpmath.erf(r / mpmath.sqrt(4 * mu * t))))


@pytest.mark.parametrize("fam,mp_u,t", [
    (MAIN, _mp_main_u, 1e-1), (MAIN, _mp_main_u, 1e-4), (MAIN, _mp_main_u, 1e-8),
    (MAIN, _mp_main_u, 1e-12), (NST, _mp_nst_u, 0.37), (NST, _mp_nst_u, 1e-3),
    (NST, _mp_nst_u, 1e-6),
])
def test_linf_matches_mpmath_maximum_in_few_calls(fam, mp_u, t):
    # bracket refinement: 17 nodes per array call of u, so the whole search
    # takes a handful of calls (golden section made one per step, ~70)
    calls = []

    def u(tt, r):
        calls.append(np.size(r))
        return fam.u(tt, r)

    val, r_star = linf_norm(dataclasses.replace(fam, u=u), t)
    assert len(calls) <= 25
    with mpmath.workdps(40):
        f = mp_u(t)
        r_max = mpmath.findroot(lambda r: mpmath.diff(f, r),
                                (0.99 * r_star, 1.01 * r_star), solver="anderson")
        want = float(f(r_max))
    assert abs(val - want) <= 1e-14 * want
    assert abs(r_star - float(r_max)) <= 1e-6 * r_star


def test_linf_grows_as_t_shrinks():
    assert linf_norm(MAIN, 1e-6)[0] > 10.0 * linf_norm(MAIN, 1e-2)[0]


def test_linf_unbounded_shortcuts():
    assert linf_norm(SS, 0.1) == (math.inf, 0.0)
    assert linf_norm(ST1, 0.1) == (math.inf, 0.0)
    assert linf_norm(MAIN0, 0.1) == (math.inf, math.inf)


def test_linf_nst_finite():
    val, r_star = linf_norm(NST, 0.37)
    assert 0.0 < val < math.inf and r_star > 0.0


def test_linf_bracketing_failure():
    flat = SolutionFamily(
        kind="Flat", params=Params(3, 0.1), origin_regular=True,
        u=lambda t, r: np.ones_like(np.asarray(r, dtype=float)),
        u_r=lambda t, r: np.zeros_like(np.asarray(r, dtype=float)),
        u_rr=lambda t, r: np.zeros_like(np.asarray(r, dtype=float)),
        u_t=lambda t, r: np.zeros_like(np.asarray(r, dtype=float)),
        g=None, g_r=None, P=None, W=None,
        small_r_exponent=0.0, tail=lambda t: ("gaussian", 1.0))
    with pytest.raises(BracketingError):
        linf_norm(flat, 0.1)



def _assert_rows_are_scalar_searches(fam, ts):
    """linf_norm over the array ts gives each row the bits of its float-t
    search, value and argmax; returns the arrays."""
    values, r_star = linf_norm(fam, np.asarray(ts))
    assert values.shape == r_star.shape == (len(ts),)
    for t, v, r in zip(np.asarray(ts).tolist(), values.tolist(), r_star.tolist()):
        assert (v, r) == linf_norm(fam, t), t
    return values, r_star


_LINF_FAMILIES = [main_example(Params(n, 0.1)) for n in range(2, 8)] + [NST]


@pytest.mark.parametrize("fam", _LINF_FAMILIES, ids=[f.label() for f in _LINF_FAMILIES])
@pytest.mark.parametrize("ts", [default_t_grid(), np.geomspace(1e-2, 1e-300, 12)],
                         ids=["default", "deep"])
def test_linf_lockstep_rows_are_scalar_searches(fam, ts):
    values, _ = _assert_rows_are_scalar_searches(fam, ts)
    assert np.all(np.isfinite(values) & (values > 0.0))


def test_linf_lockstep_call_count():
    # every step is one array call for all rows, so the 13-point grid takes
    # the calls of one t (it took 13 times as many, and 39 scalar u_r and u)
    calls = []

    def counted(name):
        def call(t, r):
            calls.append((name, np.shape(r)))
            return getattr(MAIN, name)(t, r)
        return call

    fam = dataclasses.replace(MAIN, u=counted("u"), u_r=counted("u_r"))
    linf_norm(fam, default_t_grid())
    assert len(calls) <= 25
    assert all(len(shape) == 2 for _, shape in calls)
    assert sum(name == "u_r" for name, _ in calls) == 1


def test_linf_lockstep_widens_only_the_row_that_needs_it():
    # MAIN stretched tenfold in r: its sup lies at about 20 sqrt(4 mu t) at
    # t = 1e-2 but 320 sqrt(4 mu t) at t = 1e-300, past the bracketing
    # grid's 100, so only that row widens
    k = 10.0
    wide = dataclasses.replace(MAIN, u=lambda t, r: MAIN.u(t, np.divide(r, k)),
                               u_r=lambda t, r: MAIN.u_r(t, np.divide(r, k)) / k)
    ts = np.array([1e-2, 1e-300, 1e-5])
    values, r_star = _assert_rows_are_scalar_searches(wide, ts)
    scaled = r_star / np.sqrt(4.0 * 0.1 * ts)
    assert scaled[1] > 100.0 and scaled[0] < 100.0 and scaled[2] < 100.0
    assert values == approx(linf_norm(MAIN, ts)[0], rel=1e-13)


def test_linf_lockstep_unbracketed_row_is_flagged_alone():
    # flat (no interior maximum) at t >= 1e-3 only: that row is NaN in the
    # arrays and non-converged in the sweep, the others keep their values
    def u(t, r):
        return np.where(np.asarray(t) >= 1e-3, 1.0, MAIN.u(t, r))

    part = dataclasses.replace(MAIN, u=u)
    ts = np.array([1e-2, 1e-3, 1e-5, 1e-300])
    values, r_star = linf_norm(part, ts)
    assert np.isnan(values[:2]).all() and np.isnan(r_star[:2]).all()
    for t, v, r in zip(ts[2:].tolist(), values[2:].tolist(), r_star[2:].tolist()):
        assert (v, r) == linf_norm(MAIN, t)
    with pytest.raises(BracketingError, match="no interior maximum"):
        linf_norm(part, 1e-2)
    rep = norm_sweep(part, NormSpec("linf"), ts)
    assert rep.flags == ("non-converged", "non-converged", "ok", "ok")
    assert rep.values[2:] == tuple(values[2:].tolist())


@pytest.mark.parametrize("n,t", [(40, 1e-150), (60, 1e-100)])
def test_linf_takes_an_underflowed_u_r_as_a_sign_change(n, t):
    """u_r(hi) underflows to -0.0 at the bracket of these steep profiles,
    which the sign check read as no sign change: BracketingError for a
    float t and NaN rows in an array t.  The sup against the exact
    sqrt(4 mu/t) max_x sqrt(x)/(1 + e^(x - eta)), eta = -(n/2) log(4 pi mu
    t), in 40-digit mpmath."""
    fam = main_example(Params(n, 0.1))
    value, _ = linf_norm(fam, t)
    mp = mpmath.mp
    with mp.workdps(40):
        mu, T = mp.mpf("0.1"), mp.mpf(t)
        eta = -(n / mp.mpf(2)) * mp.log(4 * mp.pi * mu * T)
        x = mp.findroot(lambda x: 1 + mp.exp(x - eta) - 2 * x * mp.exp(x - eta), eta)
        want = mp.sqrt(4 * mu / T) * mp.sqrt(x) / (1 + mp.exp(x - eta))
    assert value == approx(float(want), rel=1e-14)
    values, _ = _assert_rows_are_scalar_searches(fam, np.array([1e-2, t, 1e-300]))
    assert np.all(np.isfinite(values))


# kind -> (family, plan, integrand) of the sweeps that run in lockstep
_LOCKSTEP = {
    "lp": (MAIN, lambda s, p, t: _lp_plan(s, p, t, 0), _lp_integrand(0)),
    "grad_lp": (MAIN, lambda s, p, t: _lp_plan(s, p, t, 1), _lp_integrand(1)),
    "hess_bound_lp": (MAIN, _hess_plan, _bound_integrand),
    "distance": (NST, _distance_plan, _distance_integrand),
}


def _recorded_runs(monkeypatch, **kwargs):
    """(members, results) of every integrate_many call from here on, run
    with kwargs."""
    runs, real = [], quadrature.integrate_many

    def recording(F, members, *args, **kw):
        results = real(F, members, *args, **{**kw, **kwargs})
        runs.append((members, results))
        return results

    monkeypatch.setattr(quadrature, "integrate_many", recording)
    return runs


def _alone(kind, p, t, **kwargs):
    """The results of the integrals of one grid point, each run alone with
    float arguments."""
    fam, plan, integrand = _LOCKSTEP[kind]
    members, args, _ = plan(fam, p, t)
    results = []
    for m, a in zip(members, args):
        f = dataclasses.replace(m, f=lambda r, a=a: integrand(fam, p, *a, r))
        try:
            results.append(integrate_semi_infinite(f, rel_tol=1e-10, **kwargs))
        except quadrature.NonConvergenceError as exc:
            results.append(exc)
    return members, results


def _bits(res):
    if isinstance(res, quadrature.NonConvergenceError):
        return "non-converged"
    return res.value.hex(), res.abs_error_estimate.hex(), res.subdivisions


@pytest.mark.parametrize("kind,p", [("lp", 1.0), ("lp", 2.0), ("grad_lp", 1.0),
                                    ("grad_lp", 2.0), ("hess_bound_lp", 1.0),
                                    ("hess_bound_lp", 2.0), ("hess_bound_lp", 2.5),
                                    ("distance", 1.0), ("distance", 2.5)])
def test_lockstep_members_are_their_own_runs(kind, p, monkeypatch):
    """Every member of a lockstep sweep over the default grid gets the
    (value, error, subdivisions) of its own run, bit for bit, and every
    point the bits of the one-t function.  At p = 2.5 the hess bound's
    r^(n-p-1) term and the distance start on the substituted left piece
    r = y^m."""
    fam = _LOCKSTEP[kind][0]
    runs = _recorded_runs(monkeypatch)
    rep = norm_sweep(fam, NormSpec(kind, p=p))
    assert rep.flags == ("ok",) * 13
    (members, results), = runs
    alone = [_alone(kind, p, t) for t in default_t_grid()]
    assert members == [m for ms, _ in alone for m in ms]
    assert [_bits(r) for r in results] == [_bits(r) for _, rs in alone for r in rs]
    assert any(m.small_r_exponent < -0.05 for m in members) == (p == 2.5)
    one_t = {"lp": lambda t: (lp_norm(fam, NormSpec("lp", p), t),),
             "grad_lp": lambda t: (grad_lp_norm(fam, p, t),),
             "hess_bound_lp": lambda t: hess_bound_lp(fam, p, t),
             "distance": lambda t: (lp_distance(fam, p, t),)}[kind]
    for t, v, e in zip(default_t_grid().tolist(), rep.values, rep.quad_errors):
        want = one_t(t)
        assert v == want[0] and (len(want) == 1 or e == want[1]), t


def test_lockstep_member_that_fails_leaves_the_others(monkeypatch):
    # with a budget of 10 panels, some of the 13 L^1 integrals give up while
    # the others finish: each keeps the outcome of its own run and its flag
    runs = _recorded_runs(monkeypatch, max_subdivisions=10)
    rep = norm_sweep(MAIN, NormSpec("lp", p=1.0))
    (_, results), = runs
    alone = [_alone("lp", 1.0, t, max_subdivisions=10)[1][0] for t in default_t_grid()]
    assert [_bits(r) for r in results] == [_bits(r) for r in alone]
    failed = [isinstance(r, quadrature.NonConvergenceError) for r in results]
    assert 0 < sum(failed) < 13
    assert rep.flags == tuple("non-converged" if f else "ok" for f in failed)


def test_lockstep_sweep_ends_on_a_typed_error(monkeypatch, capsys):
    # an evaluator error inside the batched integrand ends the sweep, as
    # it did from the first t that raised it, and the command exits 3
    def broken(t, r):
        raise SingularityError("broken evaluator")

    fam = dataclasses.replace(MAIN, u=broken)
    with pytest.raises(SingularityError, match="broken evaluator"):
        norm_sweep(fam, NormSpec("lp", p=2.0))
    monkeypatch.setattr(cli, "_build_family", lambda args: fam)
    assert main(["norms", "--family", "MainExample", "--kind", "lp"]) == 3
    assert "numerical failure: broken evaluator" in capsys.readouterr().err


@pytest.mark.parametrize("fam,r_star", [(SS, 0.0), (ST0, 0.0), (ST1, 0.0),
                                        (MAIN0, math.inf)])
def test_linf_lockstep_shortcuts_every_row(fam, r_star):
    def refuse(t, r):
        raise AssertionError("an unbounded family is not searched")

    fam = dataclasses.replace(fam, u=refuse, u_r=refuse)
    values, argmax = linf_norm(fam, default_t_grid())
    assert values.tolist() == [math.inf] * 13 and argmax.tolist() == [r_star] * 13
    assert linf_norm(fam, 1e-3) == (math.inf, r_star)
    rep = norm_sweep(fam, NormSpec("linf"))
    assert rep.flags == ("unbounded",) * 13 and rep.values == (math.inf,) * 13


def test_linf_lockstep_empty_grid():
    values, r_star = linf_norm(MAIN, np.array([]))
    assert values.shape == r_star.shape == (0,)
    assert norm_sweep(MAIN, NormSpec("linf"), ()).flags == ()


@pytest.mark.parametrize("cmd", ["norms", "decay"])
@pytest.mark.parametrize("family", ["MainExample", "NonStationaryErf"])
def test_linf_multi_p_is_the_single_p_runs(capsys, cmd, family):
    # linf does not depend on p: one sweep, reported under each p, in the
    # bytes two single-p runs give
    def run(p):
        assert main([cmd, "--family", family, "--kind", "linf", "--p", p]) == 0
        return capsys.readouterr().out.splitlines()

    both, one, two = run("1,2"), run("1"), run("2")
    assert both[0] == one[0].replace("p=1 |", "p=1,2 |")
    if cmd == "norms":
        assert both[1] == one[1] + "," + two[1].split(",", 1)[1]
        assert both[2:] == [a + "," + b.split(",", 1)[1]
                            for a, b in zip(one[2:], two[2:])]
    else:
        assert both[1] == one[1] == two[1]
        assert both[2:] == one[2:] + [",".join(["2.0"] + two[2].split(",")[1:])]


# ---------------------------------------------------------------------------
# sweeps and decay fits
# ---------------------------------------------------------------------------

# kind -> (family, the public function's value at (p, t))
_PUBLIC = {
    "lp": (MAIN, lambda s, p, t: lp_norm(s, NormSpec("lp", p=p), t)),
    "grad_lp": (MAIN, grad_lp_norm),
    "hess_bound_lp": (MAIN, lambda s, p, t: hess_bound_lp(s, p, t)[0]),
    "linf": (MAIN, lambda s, p, t: linf_norm(s, t)[0]),
    "distance": (NST, lp_distance),
}


@pytest.mark.parametrize("kind", KINDS)
def test_kind_table_matches_public_functions(kind):
    fam, public = _PUBLIC[kind]
    ts = (1e-2, 1e-5)
    for p in (1.0, 2.0):
        rep = norm_sweep(fam, NormSpec(kind, p=p), ts)
        assert rep.flags == ("ok", "ok")
        assert rep.values == tuple(public(fam, p, t) for t in ts)


def test_undefined_kinds_raise_domain_error():
    # a distance off the erf family and a bound off the main example with
    # a > 0 are not defined; the family check comes before power counting
    for fam in (MAIN, SS, ST0):
        with pytest.raises(DomainError, match="NonStationaryErf family"):
            lp_distance(fam, 2.0, 1e-3)
        with pytest.raises(DomainError):
            norm_sweep(fam, NormSpec("distance", p=2.0), (1e-3,))
    for fam in (SS, ST1, NST, MAIN0):
        with pytest.raises(DomainError, match="main example, a > 0"):
            hess_bound_lp(fam, 3.0, 1e-3)     # p = n also fails power counting
        with pytest.raises(DomainError):
            norm_sweep(fam, NormSpec("hess_bound_lp", p=1.0), (1e-3,))


def test_norm_sweep_ok_flags_and_errors():
    spec = NormSpec("lp", p=2.0)
    rep = norm_sweep(MAIN, spec, np.geomspace(1e-2, 1e-6, 5))
    assert rep.flags == ("ok",) * 5
    assert all(v > 0.0 for v in rep.values)
    assert all(e <= 1e-8 * v for v, e in zip(rep.values, rep.quad_errors))
    assert rep.family == MAIN.label()


def test_norm_sweep_grad_and_hess_error_columns():
    # the error column carries the quadrature error (it printed 0.0)
    ts, p = (1e-2, 1e-5), 1.5
    grad = norm_sweep(MAIN, NormSpec("grad_lp", p=p), ts)
    hess = norm_sweep(MAIN, NormSpec("hess_bound_lp", p=p), ts)
    for rep in (grad, hess):
        assert rep.flags == ("ok", "ok")
        assert all(0.0 < e <= 1e-8 * v for v, e in zip(rep.values, rep.quad_errors))
    for t, v, e in zip(ts, hess.values, hess.quad_errors):
        assert e == approx(sum(err for _, err in _xi_hess_terms(t, p)), rel=1e-12)
        assert v == hess_bound_lp(MAIN, p, t)[0]
    for t, v in zip(ts, grad.values):
        assert v == grad_lp_norm(MAIN, p, t)


def test_norm_sweep_flags_underflow():
    # the norm falls below the smallest normal double at t = 1e-8 (1.8e-461)
    # but not at 1e-5, where only its square did and the point was flagged
    # underflow (50-digit mpmath: 1.2638323619997687e-253); these points
    # printed 0.0 with error 0.0 flagged ok before that
    big = main_example(Params(300, 0.1, a=1.0))
    rep = norm_sweep(big, NormSpec("lp", p=2.0), (1e-2, 1e-5, 1e-8))
    assert rep.flags == ("ok", "ok", "underflow")
    assert rep.values[1] == approx(1.2638323619997687e-253, rel=1e-12)
    assert rep.values[0] > 0.0 and math.isnan(rep.values[2])
    tiny_mu = main_example(Params(3, 1e-300, a=1.0))
    rep = norm_sweep(tiny_mu, NormSpec("lp", p=1.0), (1e-2, 1e-8))
    assert rep.flags == ("underflow", "underflow")
    with pytest.raises(UnderflowError):
        lp_norm(tiny_mu, NormSpec("lp", p=1.0), 1e-2)


def test_l2_sweep_work_count(quad_work):
    # MainExample L^2 over the default 13-point grid: its 13 integrals run in
    # lockstep, 126 panels from 5 calls of the batched integrand (70 calls
    # when each integral ran alone, 239 when every panel and tail probe was
    # a call)
    rep = norm_sweep(MAIN, NormSpec("lp", p=2.0))
    assert rep.flags == ("ok",) * 13
    assert (quad_work.integrals, quad_work.panels, quad_work.alone) == (13, 126, 0)
    assert quad_work.calls == 5


def test_norm_sweep_divergent_flags():
    spec = NormSpec("lp", p=2.0)
    rep = norm_sweep(NST, spec, (1e-2, 1e-4))
    assert rep.flags == ("divergent", "divergent")
    assert all(math.isnan(v) for v in rep.values)


def test_norm_sweep_unbounded_flags():
    rep = norm_sweep(SS, NormSpec("linf"), (1e-2, 1e-4))
    assert rep.flags == ("unbounded", "unbounded")


def test_decay_fit_exact_self_similar_law():
    fam = self_similar(Params(4, 0.02, a=1.0))
    rep = norm_sweep(fam, NormSpec("lp", p=2.0), np.geomspace(1e-2, 1e-6, 9))
    fit = decay_fit(rep)
    assert fit.slope == approx(0.5, abs=1e-9)     # (n-p)/(2p)
    assert fit.max_log_residual < 1e-9
    assert fit.n_points == 9


def _per_t_point(fam, p, t, k):
    # (value, flag) of the per-t core, as norm_sweep flags it
    try:
        v = _derivative_lp(fam, p, t, k)[0]
    except DivergenceError:
        return math.nan, "divergent"
    except UnderflowError:
        return math.nan, "underflow"
    return v, "unbounded" if math.isinf(v) else "ok"


@pytest.mark.parametrize("n", (3, 5, 7))
def test_self_similar_sweep_scales_one_integral(n):
    """The scaled sweep against the per-t core at every point of
    t = 1e2..1e-300: rel 1e-12 and the same flags.  At the parent the per-t
    core itself failed below t ~ 1e-100 (|u|^p and u_r^2 overflowed,
    1e-300 absolute tolerance), flagging underflow on normal norms."""
    fam = self_similar(Params(n, 0.005, a=1.0))
    ts = np.geomspace(1e2, 1e-300, 16)
    for (kind, k), p in itertools.product((("lp", 0), ("grad_lp", 1)),
                                          (1.0, 1.5, 2.0, 4.0)):
        rep = norm_sweep(fam, NormSpec(kind, p=p), ts)
        for t, v, flag in zip(ts.tolist(), rep.values, rep.flags):
            want, want_flag = _per_t_point(fam, p, t, k)
            assert flag == want_flag, (kind, p, t)
            if flag == "ok":
                assert v == approx(want, rel=1e-12), (kind, p, t)
    flags = norm_sweep(fam, NormSpec("lp", p=1.0), ts).flags
    assert flags == ("ok",) * 16 if n == 3 else flags[0] == "ok"


@pytest.mark.parametrize("t", [1e-100, 1e-300])
def test_self_similar_sweep_matches_mpmath_at_deep_t(t):
    """||u(t)||_p^p = omega (4 mu)^((p+n)/2) t^((n-p)/2) / 2
    int_0^oo F(xi)^p xi^((n-2)/2) dxi for n = 3, F(xi) = xi^(-1)
    e^(-xi) / (a + G_3(xi)), G_3 = 2 xi^(-1/2) e^(-xi) - 2 sqrt(pi)
    erfc(sqrt xi), in 30-digit mpmath."""
    mp = mpmath.mp
    mu, a = 0.005, 1.0
    fam = self_similar(Params(3, mu, a=a))
    for p in (1.0, 2.0):
        got = norm_sweep(fam, NormSpec("lp", p=p), (t,)).values[0]
        with mp.workdps(30):
            def F(x):
                g3 = 2 / mp.sqrt(x) * mp.exp(-x) - 2 * mp.sqrt(mp.pi) * mp.erfc(mp.sqrt(x))
                return mp.exp(-x) / (x * (a + g3))
            xint = mp.quad(lambda x: F(x) ** p * mp.sqrt(x), [0, 1, 10, 60, mp.inf])
            norm_p = (4 * mp.pi * (4 * mp.mpf(mu)) ** ((p + 3) / 2)
                      * mp.mpf(t) ** ((3 - p) / 2) / 2 * xint)
            want = norm_p ** (1 / mp.mpf(p))
        assert got == approx(float(want), rel=1e-12), p


@pytest.mark.parametrize("family,integrals", [("SelfSimilar", 2), ("MainExample", 26)])
def test_norms_cli_integral_count(family, integrals, quad_work, capsys):
    # one integral per p for the self-similar family (26 before), run alone;
    # one per (p, t) for the main example, which does not declare
    # self_similar, each p's 13 in one lockstep run of 5 calls
    assert main(["norms", "--family", family, "--kind", "lp", "--p", "1,2"]) == 0
    assert quad_work.integrals == integrals
    assert quad_work.alone == (2 if family == "SelfSimilar" else 0)
    assert quad_work.calls == {"SelfSimilar": 6, "MainExample": 10}[family]
    capsys.readouterr()


def test_decay_fit_rejects_degenerate_input():
    spec = NormSpec("lp", p=2.0)
    flat = NormReport(family="x", spec=spec, t_grid=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                      values=(2.0, 2.0, 2.0, 2.0, 2.0),
                      quad_errors=(0.0,) * 5, flags=("ok",) * 5)
    with pytest.raises(DegenerateFitError):
        decay_fit(flat)
    sparse = NormReport(family="x", spec=spec, t_grid=(1e-2, 1e-3, 1e-4, 1e-5),
                        values=(1.0, 10.0, float("nan"), float("nan")),
                        quad_errors=(0.0,) * 4,
                        flags=("ok", "ok", "divergent", "divergent"))
    with pytest.raises(DegenerateFitError):
        decay_fit(sparse)


def test_decay_fit_accepts_an_exact_decade():
    # 3 t^(1/4) over t = 1e-2..1e-6 spans exactly one decade, but its log
    # span rounds an ulp below ln 10, which raised DegenerateFitError
    ts = np.geomspace(1e-2, 1e-6, 5)
    vs = 3.0 * ts ** 0.25
    assert np.log(vs).max() - np.log(vs).min() < math.log(10.0)
    rep = NormReport(family="x", spec=NormSpec("lp", p=2.0), t_grid=tuple(ts),
                     values=tuple(vs), quad_errors=(0.0,) * 5, flags=("ok",) * 5)
    assert decay_fit(rep).slope == approx(0.25, rel=1e-12)
