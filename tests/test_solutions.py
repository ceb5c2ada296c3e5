"""Closed-form families: frozen-value oracles, the radial PDE identity at
random well-scaled points, derivative cross-checks against finite
differences, Cole-Hopf round trips, and the Cartesian assembly."""

import itertools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from cole_lab.solutions import (_V_COEFFS, EvaluationError, HeatFunction,
                                Params, SingularityError, cartesian_components,
                                cole_hopf, fd_central, fd_derivative,
                                gaussian_heat_function, main_example,
                                nonstationary_erf, self_similar, stationary)
from cole_lab.specfun import DomainError, erf


MAIN = main_example(Params(3, 0.1, a=1.0))
MAIN0 = main_example(Params(3, 0.1, a=0.0))
SS = self_similar(Params(3, 0.005, a=1.0))
ST3 = stationary(Params(3, 0.1, C=1.0))
ST2 = stationary(Params(2, 0.1, C=5.0))
NST = nonstationary_erf(0.1)

FAMILIES = [
    ("main", MAIN),
    ("main-n5", main_example(Params(5, 0.03, a=0.2))),
    ("main-a0", MAIN0),
    ("ss", SS),
    ("ss-n4", self_similar(Params(4, 0.02, a=0.7))),
    ("st3", ST3),
    ("st3-C0", stationary(Params(3, 0.2, C=0.0))),
    ("st2", ST2),
    ("nst", NST),
]
SINGULAR = ("ss", "ss-n4", "st3", "st3-C0", "st2")
EVALUATORS = ("u", "u_r", "u_rr", "u_t", "g", "g_r", "P", "W")
# the evaluator contract also covers the Cole-Hopf transform, which accepts
# r = 0 without being origin-regular
CONTRACT = FAMILIES + [
    ("cole-hopf", cole_hopf(gaussian_heat_function(Params(3, 0.1, a=1.0)),
                            Params(3, 0.1, a=1.0))),
]


# ---------------------------------------------------------------------------
# frozen-value oracles (mpmath, 40 digits, from the defining formulas)
# ---------------------------------------------------------------------------

MAIN_TABLE = [
    # (t, r, u) for n=3, mu=0.1, a=1
    (1e-3, 0.02, 19.997578487652216),
    (1e-5, 0.002, 199.99997578194723),
    (1e-7, 0.0002, 1999.9999997578195),
    (2.0, 0.5, 0.03878380386537564),
]

SS_TABLE = [
    # (t, r, u) for n=3, mu=0.005, a=1
    (1e-5, 0.0002, 65.54753145381164),
    (1e-5, 0.002, 4.608879611743456e-09),
    (4e-5, 0.0004, 32.77376572690582),
]

NST_TABLE = [
    # (z, u) at t=0.37, mu=0.1, r = z*sqrt(4 mu t); brackets the series
    # switch at z=0.35 from both sides
    (0.05, 0.017317624798693185),
    (0.2, 0.06858015271397697),
    (0.3499, 0.1173572463672123),
    (0.3501, 0.11741990499284163),
    (0.5, 0.16202250577848568),
    (2.0, 0.24914287340727517),
    (10.0, 0.051987524491003634),
]


@pytest.mark.parametrize("t,r,want", MAIN_TABLE)
def test_main_example_frozen_values(t, r, want):
    assert MAIN.u(t, r) == approx(want, rel=1e-13)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mu,t", [(1e3, 1e-106), (10.0, 1e-110)])
def test_main_example_W_where_t_cubed_is_subnormal(mu, t):
    # t^3 is subnormal (1e-318) or 0 (1e-330), W a normal double at xi = 1
    fam = main_example(Params(3, mu, a=1.0))
    r = math.sqrt(4.0 * mu * t)
    with mpmath.workdps(50):
        mu_, t_, r_ = mpmath.mpf(mu), mpmath.mpf(t), mpmath.mpf(r)
        e_L = (4 * mpmath.pi * mu_ * t_) ** 1.5 * mpmath.exp(r_ ** 2 / (4 * mu_ * t_))
        iD, sigma = 1 / (1 + e_L), e_L / (1 + e_L)
        want = float(sigma * iD * (sigma - iD) / (4 * mu_ ** 2 * t_ ** 3))
    assert fam.W(t, r) == approx(want, rel=1e-13)


@pytest.mark.parametrize("t,r,want", SS_TABLE)
def test_self_similar_frozen_values(t, r, want):
    assert SS.u(t, r) == approx(want, rel=5e-13)


@pytest.mark.parametrize("n", [3, 5])
def test_self_similar_shape_functions_match_mpmath(n):
    """g, g_r, P and W against 40-digit mpmath on r/sqrt(4 mu t) in
    [1e-3, 6]: g = u/r from the closed form with G_n(xi) = Gamma(1 - n/2, xi),
    its r-derivatives by mp.diffs, P = g'/r and W = P'/r = (g'' - g'/r)/r^2."""
    mu, t = 0.005, 1e-5
    fam = self_similar(Params(n, mu, a=1.0))
    mp = mpmath.mp
    with mp.workdps(40):
        four_mu_t = 4 * mp.mpf(mu) * mp.mpf(t)

        def g(r):
            xi = r * r / four_mu_t
            F = (xi ** (mp.mpf(1 - n) / 2) * mp.exp(-xi)
                 / (1 + mp.gammainc(1 - mp.mpf(n) / 2, xi)))
            return 2 * mp.sqrt(mp.mpf(mu) / mp.mpf(t)) * F / r

        for x in (1e-3, 1e-2, 0.2, 1.0, 2.5, 6.0):
            r = x * math.sqrt(4.0 * mu * t)
            g0, g1, g2 = mp.diffs(g, mp.mpf(r), 2)
            want = (g0, g1, g1 / r, (g2 - g1 / r) / r ** 2)
            got = (fam.g(t, r), fam.g_r(t, r), fam.P(t, r), fam.W(t, r))
            for q, v, w in zip(("g", "g_r", "P", "W"), got, want):
                assert v == approx(float(w), rel=1e-13), (q, x)


@pytest.mark.parametrize("z,want", NST_TABLE)
def test_nonstationary_erf_frozen_values(z, want):
    t = 0.37
    r = z * math.sqrt(4.0 * 0.1 * t)
    assert NST.u(t, r) == approx(want, rel=1e-13)


def test_stationary_closed_form_direct():
    # u = 2(n-2) mu / (r (1 + C r^(n-2))) needs no oracle beyond itself
    r = 0.37
    assert ST3.u(1.0, r) == approx(2.0 * 0.1 / (r * (1.0 + r)), rel=1e-15)
    lam = math.log(r) + 5.0
    assert ST2.u(1.0, r) == approx(-2.0 * 0.1 / (r * lam), rel=1e-15)


# ---------------------------------------------------------------------------
# the defining PDE, pointwise: u_t + u u_r = mu (u_rr + (n-1)(u_r/r - u/r^2))
# ---------------------------------------------------------------------------

def _residual_and_scale(fam, t, r):
    n, mu = fam.params.n, fam.params.mu
    ut, u = fam.u_t(t, r), fam.u(t, r)
    ur, urr = fam.u_r(t, r), fam.u_rr(t, r)
    lap = urr + (n - 1.0) * (ur / r - u / r ** 2)
    res = ut + u * ur - mu * lap
    scale = (abs(ut) + abs(u * ur)
             + mu * (abs(urr) + (n - 1.0) * (abs(ur) / r + abs(u) / r ** 2)))
    return res, scale


@pytest.mark.parametrize("name,fam", FAMILIES, ids=[f[0] for f in FAMILIES])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(logt=st.floats(-6.0, 0.0), zmul=st.floats(0.3, 3.0))
def test_pde_residual_identity(name, fam, logt, zmul):
    t = 10.0 ** logt
    r = zmul * math.sqrt(4.0 * fam.params.mu * t)
    res, scale = _residual_and_scale(fam, t, r)
    assert abs(res) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# derivative evaluators vs finite differences of u
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,fam", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_derivatives_match_finite_differences(name, fam):
    t = 0.37
    r = 1.3 * math.sqrt(4.0 * fam.params.mu * t)
    h = 1e-3 * r
    assert fd_derivative(lambda x: fam.u(t, x), r, h) == approx(
        fam.u_r(t, r), rel=1e-7, abs=1e-9)
    assert fd_central(lambda x: fam.u(t, x), r, h, fam.u(t, r))[1] == approx(
        fam.u_rr(t, r), rel=1e-6, abs=1e-8)
    assert fd_derivative(lambda tau: fam.u(tau, r), t, 1e-3 * t) == approx(
        fam.u_t(t, r), rel=1e-7, abs=1e-12)


def test_nst_series_seam_consistency():
    # a finite-difference stencil centered on the branch switch mixes both
    # evaluation routes; agreement pins them to each other
    t, mu = 0.37, 0.1
    r = 0.35 * math.sqrt(4.0 * mu * t)
    h = 1e-3 * r
    assert fd_derivative(lambda x: NST.u(t, x), r, h) == approx(
        NST.u_r(t, r), rel=1e-7)
    assert fd_central(lambda x: NST.u(t, x), r, h, NST.u(t, r))[1] == approx(
        NST.u_rr(t, r), rel=1e-6)


@pytest.mark.parametrize("name,fam", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_shape_functions_are_consistent(name, fam):
    t = 0.37
    r = 1.3 * math.sqrt(4.0 * fam.params.mu * t)
    g = fam.g(t, r)
    assert g == approx(fam.u(t, r) / r, rel=2e-12)
    assert fam.P(t, r) == approx(fam.g_r(t, r) / r, rel=2e-11, abs=1e-13)
    h = 1e-3 * r
    assert fd_derivative(lambda x: fam.g(t, x), r, h) == approx(
        fam.g_r(t, r), rel=1e-6, abs=1e-9)
    assert fd_derivative(lambda x: fam.P(t, x), r, h) / r == approx(
        fam.W(t, r), rel=1e-5, abs=1e-7)


# ---------------------------------------------------------------------------
# origin behavior and small-r limits
# ---------------------------------------------------------------------------

def test_origin_regular_values():
    for fam in (MAIN, MAIN0, NST):
        assert fam.origin_regular
        assert fam.u(0.37, 0.0) == 0.0


def test_g0_matches_small_r_ratio():
    for fam in (MAIN, NST):
        t = 0.37
        r = 1e-9 * math.sqrt(4.0 * fam.params.mu * t)
        assert fam.u(t, r) / r == approx(fam.g0(t), rel=1e-12)
    assert NST.g0(2.0) == approx(1.0 / 6.0, rel=1e-15)


def test_g0_is_g_at_the_origin():
    for fam in (MAIN, MAIN0, NST):
        for t in (0.37, 1e-250, ARRAY_T):
            assert np.array_equal(fam.g0(t), fam.g(t, 0.0)), (fam.kind, t)
        assert isinstance(fam.g0(0.37), float)


def test_self_similar_singular_strength():
    # r u -> 2 mu (n-2) as r -> 0, approached monotonically from below
    n, mu = SS.params.n, SS.params.mu
    K = 2.0 * mu * (n - 2.0)
    t = 0.37
    gaps = []
    for zexp in (-4.0, -6.0, -8.0):
        r = 10.0 ** zexp * math.sqrt(4.0 * mu * t)
        gaps.append(abs(r * SS.u(t, r) - K))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-7 * K


def test_stationary_time_independence():
    r = np.array([0.2, 0.5, 1.5])
    # C=1 keeps 1 + C r^(n-2) positive on the whole grid
    assert np.array_equal(ST3.u(0.1, r), ST3.u(7.3, r))
    assert np.all(ST3.u_t(0.1, r) == 0.0)


def test_self_similar_scaling_identity():
    # lambda u(lambda^2 t, lambda r) = u(t, r), same for r-derivatives
    lam = 3.7
    for t, r in ((0.2, 0.1), (1e-3, 0.003), (5e-2, 0.05)):
        assert lam * SS.u(lam * lam * t, lam * r) == approx(SS.u(t, r), rel=1e-13)
        assert lam * lam * SS.u_r(lam * lam * t, lam * r) == approx(
            SS.u_r(t, r), rel=1e-13)


def _scaling_defect(fam):
    """Worst relative gap of lam u(lam^2 t, lam r) = u(t, r),
    lam^2 u_r(lam^2 t, lam r) = u_r(t, r) and lam^3 u_t(lam^2 t, lam r) =
    u_t(t, r) over xi = r^2/4mu t in [1e-6, 5].  lam = 0.5, 4 and 1024
    scale t and r exactly; lam = 3.7 rounds xi, which u_t amplifies near
    its sign change at xi = 0.1..0.28 (to 2.5e-14 at xi = 0.105, n = 5),
    so it is checked on u and u_r only."""
    mu = fam.params.mu
    worst = 0.0
    for t in (1e-5, 0.2):
        r = np.sqrt(np.geomspace(1e-6, 5.0, 13) * 4.0 * mu * t)
        for lam, quantities in ((0.5, ("u", "u_r", "u_t")), (4.0, ("u", "u_r", "u_t")),
                                (1024.0, ("u", "u_r", "u_t")), (3.7, ("u", "u_r"))):
            for q in quantities:
                power = {"u": 1, "u_r": 2, "u_t": 3}[q]
                want = getattr(fam, q)(t, r)
                got = lam ** power * getattr(fam, q)(lam * lam * t, lam * r)
                worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    return worst


def test_self_similar_declaration_holds():
    """Every family that declares self_similar satisfies the scaling
    identities to rounding; the main example, which is not self-similar,
    fails them, so a wrong declaration would show here."""
    candidates = ([self_similar(Params(n, 0.005, a=a)) for n in range(3, 8)
                   for a in (1.0, 0.3)]
                  + [main_example(Params(n, 0.1, a=1.0)) for n in (2, 3, 5)]
                  + [ST3, NST, MAIN0])
    declared = [f for f in candidates if f.self_similar]
    assert {f.kind for f in declared} == {"SelfSimilar"} and len(declared) == 10
    for fam in declared:
        assert _scaling_defect(fam) <= 1e-14, fam.label()
    assert not MAIN.self_similar
    assert _scaling_defect(MAIN) > 1e-3


def _mp_self_similar(n, mu, a, t, r, dps=700):
    """u, u_r, u_rr and u_t of the self-similar family in dps-digit mpmath;
    700 digits cancel the O(1) terms of 0.5 + xi F'/F down to xi = 1e-600,
    80 down to xi = 1e-12.  G_n by the recurrence from erfc or E1."""
    mp = mpmath.mp
    with mp.workdps(dps):
        mu, a, t, r = mp.mpf(mu), mp.mpf(a), mp.mpf(t), mp.mpf(r)
        xi = r * r / (4 * mu * t)
        if n % 2:
            g, s = mp.sqrt(mp.pi) * mp.erfc(mp.sqrt(xi)), mp.mpf(1) / 2
        else:
            g, s = mp.e1(xi), mp.mpf(0)
        while s > 1 - mp.mpf(n) / 2:
            g = (g - xi ** (s - 1) * mp.exp(-xi)) / (s - 1)
            s -= 1
        psi = a + g
        u = mp.sqrt(4 * mu / t) * xi ** (mp.mpf(1 - n) / 2) * mp.exp(-xi) / psi
        w1 = xi ** (-mp.mpf(n) / 2) * mp.exp(-xi) / psi
        r1 = (1 - n) / (2 * xi) - 1 + w1
        r2 = r1 ** 2 + (n - 1) / (2 * xi ** 2) - w1 * (n / (2 * xi) + 1) + w1 ** 2
        return {"u": u, "u_r": u * r1 * 2 * xi / r,
                "u_rr": u * 2 * xi / r ** 2 * (2 * xi * r2 + r1),
                "u_t": -(u / t) * (mp.mpf(1) / 2 + xi * r1)}


def _assert_matches_mpmath(fam, t, r, quantities=("u", "u_r", "u_rr", "u_t"),
                           dps=700, rel=1e-12):
    """Each quantity at (t, r) within rel of mpmath where it and u are
    normal doubles, SingularityError where it passes the largest double,
    and no RuntimeWarning."""
    p = fam.params
    want = _mp_self_similar(p.n, p.mu, p.a, t, r, dps)
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    for q in quantities:
        w = want[q]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if abs(w) > huge:
                with pytest.raises(SingularityError, match="overflows"):
                    getattr(fam, q)(t, r)
                continue
            got = getattr(fam, q)(t, r)
        if abs(w) >= tiny and abs(want["u"]) >= tiny:
            assert float(abs((got - w) / w)) <= rel, (q, t, r, got, float(w))


@pytest.mark.parametrize("n", range(3, 8))
def test_self_similar_near_origin_matches_mpmath(n):
    """Down to r = 1e-300 (xi = 5e-596) u, u_r, u_rr and u_t are finite and
    accurate, or raise SingularityError exactly where the true value
    overflows a double; no RuntimeWarning.  They returned inf, raised
    DomainError (xi = 0) or warned below xi ~ 1e-154, and u_t lost every
    digit to cancellation from xi ~ 1e-10 down."""
    fam = self_similar(Params(n, 0.005, a=0.7))
    for r in (1e-300, 1e-200, 1e-160, 1e-100, 1e-60, 1e-20, 1e-6, 1e-4):
        _assert_matches_mpmath(fam, 1e-3, r)


def test_self_similar_tiny_r_values():
    # SelfSimilar(3, 0.005): five RuntimeWarnings at r = 1e-100, inf at
    # 1e-160 and DomainError at 1e-200; u -> 2 mu (n - 2)/r
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (1e-100, 1e-160, 1e-200):
            assert SS.u(1e-3, r) == approx(0.01 / r, rel=1e-12)
            assert math.isfinite(SS.u_t(1e-3, r))


def test_self_similar_overflow_raises():
    # values that pass the largest double away from the origin returned inf
    # (NaN for u_t) after RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, t, r in (("W", 1e-3, 1e-60), ("u_rr", 1e-100, 1e-105),
                        ("u_t", 1e-300, 1e-150)):
            with pytest.raises(SingularityError, match="overflows"):
                getattr(SS, q)(t, r)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_self_similar_xi_overflow_is_silent():
    # r^2 / 4 mu t = 1e6 / 4e-308 overflows a double: u and g are 0 there,
    # and no evaluator warns; they warned "overflow encountered in divide"
    fam = self_similar(Params(3, 1e-8))
    for r in (1e3, np.array([1e3, 2e3])):
        assert np.all(fam.u(1e-300, r) == 0.0)
        assert np.all(fam.g(1e-300, r) == 0.0)
        for q in ("u_r", "u_rr", "u_t", "g_r", "P", "W"):
            try:
                assert np.all(np.isfinite(getattr(fam, q)(1e-300, r))), q
            except SingularityError:
                pass
    # W ~ 1/r^5 passes the largest double where r^4 underflows to 0
    with pytest.raises(SingularityError, match="overflows"):
        fam.W(1e-240, 1.4e-137)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_self_similar_is_zero_where_xi_overflows():
    # xi = r^2 / 4 mu t is inf, so every quantity carries the factor
    # e^-xi = 0: u_r, u_rr, u_t, g_r, P and W raised SingularityError
    # ("overflows a double") there, while u and g returned 0
    fam = self_similar(Params(3, 1e-8))
    for q in ("u", "u_r", "u_rr", "u_t", "g", "g_r", "P", "W"):
        fn = getattr(fam, q)
        assert fn(1e-300, 1e3) == 0.0, q
        # in an array, only the point where xi is inf is 0
        got = fn(np.array([1e-300, 1e-3]), np.array([1e3, 1e-4]))
        assert got[0] == 0.0 and got[1] == fn(1e-3, 1e-4) != 0.0, q


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_self_similar_u_t_is_zero_where_amp_over_t_overflows():
    # at t = 1e-300, r = 1e-4 and mu = 1e-8, xi = 2.5e299 is finite but
    # sqrt(4 mu/t)/t passes the largest double while F = e^-xi ... is 0:
    # u_t raised SingularityError ("overflows a double") on inf * 0, though
    # its true value underflows like every other quantity there
    fam = self_similar(Params(3, 1e-8))
    assert fam.u_t(1e-300, 1e-4) == 0.0
    got = fam.u_t(np.array([[1e-300], [1e-3]]), np.array([1e-4, 2e-4]))
    assert np.all(got[0] == 0.0)
    assert got[1].tolist() == [fam.u_t(1e-3, 1e-4), fam.u_t(1e-3, 2e-4)]
    # at xi = 50 the true u_t passes the largest double (mpmath), so it
    # raises; amp/t = inf alone does not make it overflow (see
    # test_self_similar_found_values_match_mpmath)
    with pytest.raises(SingularityError, match="overflows"):
        SS.u_t(1e-300, 1e-150)


def test_self_similar_near_origin_arrays_equal_scalar_calls():
    # an array that mixes points near the origin and away from it, on both
    # sides of the scaled tail's switch at xi = 1 and of the log form of u
    # (xi = 703 and 722 at t = 1e-300), with array t, gives each element
    # the bits of its scalar call; u_r and g overflow below r ~ 1e-154, so
    # they take the points above
    r = np.array([1e-200, 3e-4, 1e-160, 1e-7, 1e-100, 2e-4, 1e-30,
                  0.9999999 * 2e-4, 1.0000001 * 2e-4, 3.75e-150, 3.8e-150])
    t = np.array([1e-3, 2e-5, 1e-3, 0.3, 1e-3, 1e-5, 1e-2,
                  2e-6, 2e-6, 1e-300, 1e-300])
    for q, keep in (("u", r > 0.0), ("u_t", r > 0.0), ("u_r", r > 1e-150),
                    ("g", r > 1e-150)):
        fn = getattr(SS, q)
        ts, rs = t[keep], r[keep]
        assert np.array_equal(fn(ts, rs), [fn(a, b) for a, b in
                                           zip(ts.tolist(), rs.tolist())]), q


@pytest.mark.parametrize("n,mu,t,xi,quantities", [
    # amp/t = sqrt(4 mu/t)/t overflows, not u_t (4.189e199): u_t raised
    # SingularityError
    (3, 1e-8, 1e-300, 568.0, ("u_t",)),
    # F = e^-xi ... underflows before it meets sqrt(4 mu/t): u returned 0.0
    # for 1.132e-178 and u_rr 0.0 for 8.394e132
    (3, 1e-8, 1e-300, 740.0, ("u", "u_rr")),
    # F is subnormal: u was 2e-3 off
    (7, 1e-8, 1e-300, 720.0, ("u",)),
    # 0.5 + xi F'/F cancelled in u_t above its switch at xi = 1e-3:
    # 5.6e-11 off
    (12, 0.005, 1e-3, 3.1e-3, ("u_t",)),
])
def test_self_similar_found_values_match_mpmath(n, mu, t, xi, quantities):
    _assert_matches_mpmath(self_similar(Params(n, mu)), t,
                           math.sqrt(4.0 * mu * t * xi), quantities)


# xi = r^2/4 mu t from 1e-12 to 2e3, across the scaled tail's switch to its
# continued fraction at xi = 1 and the log form of u past xi ~ 700; away
# from u_t's sign change at xi = 0.1..0.28, where no relative bound holds
SS_GRID_XI = (1e-12, 1e-9, 1e-6, 1e-3, 0.03, 0.6, 1.0 - 2e-16, 1.0, 1.0 + 4e-16,
              1.5, 8.0, 40.0, 200.0, 650.0, 705.0, 740.0, 2e3)


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_self_similar_grid_matches_mpmath(n):
    for mu, t in ((1e-8, 1e-300), (0.005, 1e-3), (10.0, 1.0)):
        fam = self_similar(Params(n, mu))
        for xi in SS_GRID_XI:
            _assert_matches_mpmath(fam, t, math.sqrt(4.0 * mu * t * xi), dps=80)


def _log10s(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# family -> (n, mu) -> the family, each at the dimensions it is defined in
SWEPT = {
    "MainExample": lambda n, mu: main_example(Params(n, mu)),
    "SelfSimilar": lambda n, mu: self_similar(Params(max(n, 3), mu)),
    "Stationary-n2": lambda n, mu: stationary(Params(2, mu, C=1.0)),
    "Stationary": lambda n, mu: stationary(Params(max(n, 3), mu, C=1.0)),
    "NonStationaryErf": lambda n, mu: nonstationary_erf(mu),
    "ColeHopfOf": lambda n, mu: cole_hopf(gaussian_heat_function(Params(n, mu)),
                                          Params(n, mu)),
}


# each drawn point is swept over every family, not one hypothesis run per
# family: the draws cost more than the 48 evaluator calls of a point
@settings(max_examples=200, derandomize=True, deadline=None)
@given(n=st.integers(2, 12), mu=_log10s(-8.0, 1.0), t=_log10s(-300.0, 0.0),
       r=st.one_of(st.just(0.0), st.just(5e-324), _log10s(-323.3, 3.0)))
def test_evaluators_finite_or_typed_error(n, mu, t, r):
    """Over n = 2..12 (where the family is defined), mu = 1e-8..10,
    t = 1e-300..1 and r = 0, 5e-324..1e3 every evaluator of every family
    returns a finite double or raises EvaluationError, with no
    floating-point warning on the way."""
    with np.errstate(all="raise", under="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for family, make in SWEPT.items():
            fam = make(n, mu)
            for q in EVALUATORS:
                try:
                    val = getattr(fam, q)(t, r)
                except EvaluationError:
                    continue
                except (FloatingPointError, RuntimeWarning) as exc:
                    raise AssertionError(f"{family} {q}: {exc}") from exc
                assert type(val) is float and math.isfinite(val), (family, q, val)


# ---------------------------------------------------------------------------
# Cole-Hopf: u = -2 mu theta_r / theta
# ---------------------------------------------------------------------------

def _assert_cole_hopf_is_main_example(p, ts):
    """cole_hopf(a + G_n, p) against main_example(p) in u and every
    derivative, with no floating-point exception."""
    ch, main = cole_hopf(gaussian_heat_function(p), p), main_example(p)
    assert ch.params == p
    with np.errstate(all="raise"):
        for t in ts:
            for z in (0.3, 1.0, 3.0):
                r = z * math.sqrt(4.0 * p.mu * t)
                floor = abs(main.u(t, r)) / r
                assert ch.u(t, r) == approx(main.u(t, r), rel=1e-13)
                assert ch.u_r(t, r) == approx(main.u_r(t, r), rel=1e-11,
                                              abs=1e-12 * floor)
                assert ch.u_rr(t, r) == approx(main.u_rr(t, r), rel=1e-10,
                                               abs=1e-11 * floor / r)
                assert ch.u_t(t, r) == approx(main.u_t(t, r), rel=1e-11,
                                              abs=1e-12 * floor * r / t)


def test_cole_hopf_reproduces_main_example():
    _assert_cole_hopf_is_main_example(Params(3, 0.1, a=1.0), (1e-4, 0.37))


def test_cole_hopf_degenerate_is_linear_profile():
    p = Params(3, 0.1, a=0.0)
    ch = cole_hopf(gaussian_heat_function(p), p)
    for t, r in ((0.1, 0.05), (2.0, 1.3)):
        assert ch.u(t, r) == approx(r / t, rel=1e-14)


def test_cole_hopf_reads_mu_from_params():
    # the formulas take mu from params, so a mu other than 0.1 gives the
    # main example of the same Params
    _assert_cole_hopf_is_main_example(Params(4, 0.37, a=2.0), (1e-3, 0.3))


def test_cole_hopf_needs_the_derivatives_it_uses():
    # theta and theta_r give u and g; every other quantity needs a higher
    # theta-derivative and raises DomainError without it
    p = Params(3, 0.1, a=1.0)
    full = gaussian_heat_function(p)
    bare = cole_hopf(HeatFunction(theta=full.theta, theta_r=full.theta_r), p)
    t, r = 0.37, 0.2
    with np.errstate(all="raise"):
        assert bare.u(t, r) == approx(MAIN.u(t, r), rel=1e-13)
        assert bare.g(t, r) == approx(MAIN.g(t, r), rel=1e-13)
        for q in ("u_r", "u_rr", "u_t", "g_r", "P", "W"):
            with pytest.raises(DomainError, match="theta_"):
                getattr(bare, q)(t, r)


def test_cole_hopf_shape_functions_singular_at_origin():
    ch = cole_hopf(gaussian_heat_function(Params(3, 0.1)), Params(3, 0.1))
    with np.errstate(all="raise"):
        assert ch.u(0.37, 0.0) == 0.0
        for q in ("g", "g_r", "P", "W"):
            with pytest.raises(SingularityError):
                getattr(ch, q)(0.37, 0.0)
            with pytest.raises(SingularityError):
                getattr(ch, q)(0.37, np.array([0.1, 0.0]))
            assert math.isfinite(getattr(ch, q)(0.37, 0.1))


def test_cole_hopf_of_erf_monopole_matches_nst():
    # theta = erf(z)/r with z = r/sqrt(4 mu t) is a radial heat solution in
    # n=3; its transform must coincide with the erf family
    mu = 0.1

    def theta(t, r):
        rr = np.asarray(r, dtype=float)
        z = rr / math.sqrt(4.0 * mu * t)
        return erf(z) / rr

    def theta_r(t, r):
        rr = np.asarray(r, dtype=float)
        s = math.sqrt(4.0 * mu * t)
        z = rr / s
        return (2.0 / math.sqrt(math.pi)) * np.exp(-z * z) / (s * rr) \
            - erf(z) / rr ** 2

    ch = cole_hopf(HeatFunction(theta=theta, theta_r=theta_r), Params(3, mu))
    t = 0.37
    for z in (0.5, 2.0, 8.0):
        r = z * math.sqrt(4.0 * mu * t)
        assert ch.u(t, r) == approx(NST.u(t, r), rel=1e-12)


def test_cole_hopf_rejects_nonpositive_theta():
    bad = HeatFunction(theta=lambda t, r: np.asarray(r, dtype=float) * 0.0 - 1.0,
                       theta_r=lambda t, r: np.asarray(r, dtype=float) * 0.0)
    ch = cole_hopf(bad, Params(3, 0.1))
    with pytest.raises(EvaluationError):
        ch.u(0.1, 0.5)


# ---------------------------------------------------------------------------
# Cartesian assembly
# ---------------------------------------------------------------------------

def test_cartesian_origin_limits():
    for fam in (MAIN, NST):
        t = 0.37
        value, jac, second = cartesian_components(fam, t, np.zeros(3))
        assert np.all(value == 0.0)
        assert np.array_equal(jac, fam.g0(t) * np.eye(3))
        assert np.all(second == 0.0)


@pytest.mark.parametrize("fam", [SS, ST3, dict(CONTRACT)["cole-hopf"]],
                         ids=["SelfSimilar", "Stationary", "ColeHopfOf"])
def test_cartesian_origin_singular_families_refuse(fam):
    # the evaluators' own r = 0 rule refuses the origin
    with pytest.raises(SingularityError):
        cartesian_components(fam, 0.37, np.zeros(3))


def test_cartesian_off_axis_identities():
    t = 0.37
    x = np.array([0.21, -0.12, 0.32])
    r = float(np.linalg.norm(x))
    for fam in (MAIN, NST, SS, ST3):
        value, jac, second = cartesian_components(fam, t, x)
        n = fam.params.n
        assert value == approx(fam.g(t, r) * x, rel=1e-14)
        assert jac == approx(jac.T, rel=1e-13)
        # radial directional derivative and divergence reduce to u_r, and
        # to u_r + (n-1) u/r, of the scalar profile
        assert jac @ x == approx(fam.u_r(t, r) * x, rel=1e-10)
        assert np.trace(jac) == approx(
            fam.u_r(t, r) + (n - 1.0) * fam.g(t, r), rel=1e-10)
        assert second == approx(np.transpose(second, (0, 2, 1)), rel=1e-13)
        assert second == approx(np.transpose(second, (1, 0, 2)), rel=1e-13)
        # contracting the second partials gives the componentwise Laplacian
        lap = (fam.u_rr(t, r)
               + (n - 1.0) * (fam.u_r(t, r) / r - fam.u(t, r) / r ** 2))
        assert np.einsum("ikk->i", second) == approx(lap * x / r, rel=1e-9)


def test_cartesian_shape_validation():
    with pytest.raises(ValueError):
        cartesian_components(MAIN, 0.37, np.zeros(4))


# ---------------------------------------------------------------------------
# domain errors and metadata
# ---------------------------------------------------------------------------

def test_time_domain_errors():
    for _, fam in CONTRACT:
        for q in EVALUATORS:
            for t in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(DomainError):
                    getattr(fam, q)(t, 0.1)


def test_negative_radius_rejected():
    # families that accept the origin reject r < 0 as a domain error; the
    # singular ones reject every r <= 0 as a singularity
    for name, fam in CONTRACT:
        want = SingularityError if name in SINGULAR else DomainError
        for q in EVALUATORS:
            with pytest.raises(want):
                getattr(fam, q)(0.1, -0.5)
            with pytest.raises(want):
                getattr(fam, q)(0.1, np.array([0.2, -0.5]))


def test_nonfinite_radius_rejected():
    for _, fam in CONTRACT:
        for q in EVALUATORS:
            for r in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError):
                    getattr(fam, q)(0.1, r)
                with pytest.raises(DomainError):
                    getattr(fam, q)(0.1, np.array([0.2, r]))


def test_singular_families_reject_origin():
    for name, fam in FAMILIES:
        if name not in SINGULAR:
            continue
        for q in EVALUATORS:
            with pytest.raises(SingularityError):
                getattr(fam, q)(0.37, 0.0)
            with pytest.raises(SingularityError):
                getattr(fam, q)(0.37, np.array([0.1, 0.0]))


def test_stationary_pole_detection():
    # n>=3 with C<0: denominator 1 + C r^(n-2) crosses zero at r=1
    neg = stationary(Params(3, 0.1, C=-1.0))
    assert neg.u(1.0, 0.5) > 0.0
    for r in (1.0, 1.5):
        with pytest.raises(EvaluationError):
            neg.u(1.0, r)
    # n=2 with C=0: log r vanishes at r=1
    log_pole = stationary(Params(2, 0.1, C=0.0))
    with pytest.raises(EvaluationError):
        log_pole.u(1.0, 1.0)


def test_constructor_validation():
    with pytest.raises(DomainError):
        Params(1, 0.1)
    with pytest.raises(DomainError):
        Params(3, 0.0)
    with pytest.raises(DomainError):
        main_example(Params(3, 0.1, a=-0.5))
    with pytest.raises(DomainError):
        self_similar(Params(2, 0.1, a=1.0))
    with pytest.raises(DomainError):
        self_similar(Params(3, 0.1, a=0.0))
    with pytest.raises(DomainError):
        nonstationary_erf(0.0)
    with pytest.raises(DomainError):
        gaussian_heat_function(Params(3, 0.1, a=-1.0))


def test_metadata_fields():
    assert MAIN.kind == "MainExample" and MAIN.small_r_exponent == 1.0
    kind, scale = MAIN.tail(0.37)
    assert kind == "gaussian" and scale == approx(math.sqrt(4.0 * 0.1 * 0.37))
    assert MAIN0.tail(0.37) == ("power", 1.0)
    assert SS.small_r_exponent == -1.0 and SS.g0 is None
    assert not SS.origin_regular
    assert ST3.tail(1.0) == ("power", -2.0)
    assert stationary(Params(3, 0.2, C=0.0)).tail(1.0) == ("power", -1.0)
    assert ST2.tail(1.0) == ("power", -1.0)
    assert NST.tail(1.0) == ("power", -1.0) and NST.small_r_exponent == 1.0
    assert MAIN.label() == "MainExample(n=3, mu=0.1, a=1, C=0)"


def test_scalar_and_array_evaluation():
    # a scalar r gives a float; an array r gives an array of its shape whose
    # elements are bit-equal to the scalar calls (both erf branches at t)
    t = 0.37
    r = np.array([[0.01, 0.1], [0.4, 0.7]])
    for name, fam in CONTRACT:
        for q in EVALUATORS:
            f = getattr(fam, q)
            assert type(f(t, 0.5)) is float, (name, q)
            out = f(t, r)
            assert isinstance(out, np.ndarray) and out.shape == r.shape, (name, q)
            want = np.array([[f(t, x) for x in row] for row in r])
            assert np.array_equal(out, want), (name, q)


# an array t: one evaluator call gives a whole time trace (the marcher's
# boundary data), bit-equal to scalar-t calls.  The last five t are points
# where the main example's u, u_r, g or P (mu = 0.1) moves when an array t
# takes numpy's log in place of libm's (numpy 2.4, x86-64); numpy's pow
# differs from libm's at about a fifth of the random ones.
_RNG = np.random.default_rng(20261018)
ARRAY_T = np.concatenate([np.geomspace(1e-8, 1.0, 30),
                          10.0 ** _RNG.uniform(-8.0, 0.0, 46),
                          [0.7378056554545331, 0.9822179875488986,
                           0.9736618413824724, 0.9255293604448043,
                           0.7727630591594365]])
_FULL_HEAT = gaussian_heat_function(Params(3, 0.1, a=1.0))
HEAT_EVALUATORS = ("theta", "theta_r", "theta_rr", "theta_rrr", "theta_t",
                   "theta_rt")
# (label, mu, {evaluator name: evaluator})
_ARRAY_T_EVALUATORS = [
    (name, fam.params.mu, {q: getattr(fam, q) for q in EVALUATORS})
    for name, fam in CONTRACT
] + [("gaussian-heat", 0.1, {q: getattr(_FULL_HEAT, q) for q in HEAT_EVALUATORS})]


@pytest.mark.parametrize("label,mu,evaluators", _ARRAY_T_EVALUATORS,
                         ids=[c[0] for c in _ARRAY_T_EVALUATORS])
def test_array_t_matches_scalar_calls(label, mu, evaluators):
    t = ARRAY_T
    # r spanning both erf branches (z from 0.03 to 30), and a fixed radius
    # clear of the n = 2 stationary pole at e^-5
    r = np.sqrt(4.0 * mu * t) * 10.0 ** _RNG.uniform(-1.5, 1.5, t.size)
    for q, f in evaluators.items():
        for rr in (0.05, r):
            out = f(t, rr)
            assert isinstance(out, np.ndarray) and out.shape == t.shape, q
            want = np.array([f(float(ti), float(ri))
                             for ti, ri in zip(t, np.broadcast_to(rr, t.shape))])
            assert np.array_equal(out, want), (q, int(np.sum(out != want)))
        assert type(f(np.float64(0.37), 0.05)) is float, q


def test_array_t_g0_matches_scalar_calls():
    for name, fam in CONTRACT:
        if fam.g0 is not None:
            want = np.array([fam.g0(float(ti)) for ti in ARRAY_T])
            assert np.array_equal(fam.g0(ARRAY_T), want), name


def test_array_t_broadcasts_against_r():
    t = np.array([[1e-3], [0.37]])
    r = np.array([0.01, 0.1, 0.4])
    for name, fam in CONTRACT:
        out = fam.u(t, r)
        assert out.shape == (2, 3), name
        want = np.array([[fam.u(float(ti), float(ri)) for ri in r] for ti in t[:, 0]])
        assert np.array_equal(out, want), name


@pytest.mark.parametrize("label,mu,evaluators", _ARRAY_T_EVALUATORS,
                         ids=[c[0] for c in _ARRAY_T_EVALUATORS])
def test_column_t_against_row_r_matches_scalar_calls(label, mu, evaluators):
    # the (t, r) grid of a figure or residual run: t reaches the formulas
    # unbroadcast, and is broadcast only at masked branches (the erf series,
    # the self-similar near-origin u_t)
    t = np.geomspace(1e-6, 1.0, 7)[:, None]
    r = np.geomspace(1e-3, 1.0, 13)
    for q, f in evaluators.items():
        for rr in (r, np.broadcast_to(r, (t.size, r.size))):
            out = f(t, rr)
            want = np.array([[f(float(ti), float(ri)) for ri in r] for ti in t[:, 0]])
            assert np.array_equal(out, want), (q, int(np.sum(out != want)))


# every family of the contract, plus SelfSimilar at a and n where its grid
# reaches the log form of u (phi below the smallest normal, xi >~ 700) and
# the point where u underflows to 0; each at z = r / sqrt(4 mu t) on both
# sides of the erf series switch (0.35) and past its flat point (40)
_AT_FAMILIES = CONTRACT + [("ss-n5-a3", self_similar(Params(5, 0.02, a=3.0)))]
_AT_Z = np.array([0.01, 0.2, 0.3499, 0.3501, 1.0, 5.0, 27.0, 39.0, 41.0, 60.0])
# each quantity alone, every pair in both orders (a formula that changed
# the core or another's value would show against some pair) and all eight
# in both orders
_AT_SETS = ([(q,) for q in EVALUATORS] + list(itertools.permutations(EVALUATORS, 2))
            + [EVALUATORS, EVALUATORS[::-1]])


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("name,fam", _AT_FAMILIES, ids=[f[0] for f in _AT_FAMILIES])
def test_one_call_returns_the_bits_of_separate_calls(name, fam):
    # s.at(t, r, *names) runs the core once and every named formula on it:
    # each value has the bits of that quantity's own call (signed zeros
    # included), for each set of quantities, at a float t, at an array t
    # and at a column t against a row r
    mu = fam.params.mu
    ts = np.array([1e-6, 1e-3, 0.37])
    z = np.broadcast_to(_AT_Z, (ts.size, _AT_Z.size))
    grid_r = np.sqrt(4.0 * mu * ts)[:, None] * z
    cases = [(0.37, grid_r[2]), (float(ts[0]), float(grid_r[0, 6])),
             (np.repeat(ts, _AT_Z.size), grid_r.ravel()), (ts[:, None], _AT_Z * 0.01)]
    for t, r in cases:
        alone = {q: getattr(fam, q)(t, r) for q in EVALUATORS}
        for names in _AT_SETS:
            got = fam.at(t, r, *names)
            assert len(got) == len(names)
            for q, value in zip(names, got):
                assert type(value) is type(alone[q]), (names, q)
                assert _bits(value) == _bits(alone[q]), (names, q)
        # the evaluator field itself takes the further names
        assert [_bits(v) for v in fam.W(t, r, "u", "P")] == [
            _bits(alone[q]) for q in ("W", "u", "P")]


def test_one_call_covers_each_branch():
    # the points of test_one_call_returns_the_bits_of_separate_calls reach
    # the branches they are there for
    ss = dict(_AT_FAMILIES)["ss-n5-a3"]
    xi = _AT_Z ** 2
    assert xi.max() > 700.0 and ss.u(0.37, np.sqrt(4 * 0.02 * 0.37) * 60.0) == 0.0
    assert 0.0 < ss.u(0.37, np.sqrt(4 * 0.02 * 0.37) * 27.0) < 1e-300
    assert (_AT_Z < 0.35).any() and (_AT_Z > 0.35).any() and (_AT_Z > 40.0).any()
    assert dict(_AT_FAMILIES)["st2"].params.n == 2
    assert dict(_AT_FAMILIES)["main-a0"].params.a == 0.0


def test_main_example_is_zero_where_iD_underflows():
    # at t = 1e-300, r = 1e-4, xi = 2.5e292 and iD = 1/(1 + e^L) underflows
    # to 0, so every quantity, which carries the factor iD, underflows too:
    # u_rr, u_t, g_r and P meet 0 * inf (r / t^2 with t^2 = 0), which the
    # finite-value rule reads as 0.0, with no RuntimeWarning
    for q in EVALUATORS:
        assert MAIN.at(1e-300, 1e-4, q)[0] == 0.0, q
        got = getattr(MAIN, q)(np.array([[1e-300], [1e-3]]), np.array([1e-4, 0.02]))
        assert got[0, 0] == 0.0 and got[1, 1] == getattr(MAIN, q)(1e-3, 0.02), q
    # where iD is not 0, u_t = -(r / t^2) iD (...) passes the largest double
    # at r = 1e-160: a typed error (it read -inf)
    with pytest.raises(SingularityError, match="overflows a double"):
        MAIN.u_t(1e-300, 1e-160)


def test_erf_u_t_is_zero_past_its_flat_point_whatever_the_amplitude():
    # at t = 1e-306, r = 1e-4 (z = 5e148, clamped to 40) u_t's combination
    # z v'(z) is exactly 0 while -mu / t / r overflows to -inf: u_t read nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # -mu / t / r overflows
        assert NST.u_t(1e-306, 1e-4) == 0.0
        got = NST.u_t(np.array([1e-306, 1e-306, 1e-300, 1e-3]),
                      np.array([1e-4, 0.1, 1e-4, 0.02]))
    # every other point keeps its bits, the sign of its zero included
    assert got[0] == 0.0
    assert _bits(got[1:]) == _bits([NST.u_t(1e-306, 0.1), NST.u_t(1e-300, 1e-4),
                                    NST.u_t(1e-3, 0.02)])
    assert math.copysign(1.0, got[2]) == -1.0 and got[3] < 0.0


def test_array_t_domain_errors():
    for bad in (0.0, -1.0, math.nan, math.inf):
        t = np.array([1e-3, bad, 0.37])
        for label, _, evaluators in _ARRAY_T_EVALUATORS:
            for q, f in evaluators.items():
                with pytest.raises(DomainError):
                    f(t, 0.1)
                with pytest.raises(DomainError):
                    f(t, np.array([0.1, 0.2, 0.3]))


# ---------------------------------------------------------------------------
# the erf family at tiny and zero r: the series never divides by r
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [1e-54, 1e-81, 1e-108, 1e-162, 1e-300, 5e-324])
def test_nst_finite_at_tiny_radius(r):
    for q in EVALUATORS:
        assert math.isfinite(getattr(NST, q)(1e-3, r)), q


def _mp_erf(q, mu, t, r):
    """u, u_r, u_rr, u_t, g or g_r of the erf family in 300-digit mpmath,
    from the defining formula (derivatives by mp.diff)."""
    mp = mpmath.mp
    with mp.workdps(300):
        mu, t, r = mp.mpf(mu), mp.mpf(t), mp.mpf(r)
        h = mp.mpf(10) ** -60

        def u(t, r):
            return 2 * mu * (1 / r - mp.exp(-r * r / (4 * mu * t))
                             / (mp.sqrt(mp.pi * mu * t) * mp.erf(r / mp.sqrt(4 * mu * t))))
        return {"u": lambda: u(t, r),
                "u_r": lambda: mp.diff(lambda x: u(t, x), r, 1, h=r * h),
                "u_rr": lambda: mp.diff(lambda x: u(t, x), r, 2, h=r * h),
                "u_t": lambda: mp.diff(lambda s: u(s, r), t, 1, h=t * h),
                "g": lambda: u(t, r) / r,
                "g_r": lambda: mp.diff(lambda x: u(t, x) / x, r, 1, h=r * h)}[q]()


@pytest.mark.parametrize("q", ["u", "u_r", "u_rr", "u_t", "g", "g_r"])
def test_erf_series_where_its_leading_power_overflows(q):
    # at t = 1e-200, r = 1e-110 (z = 1.6e-10) (4 mu t)^-2 passes the largest
    # double but u_rr ~ r / (4 mu t)^2 does not: u_rr and g_r raised a bare
    # OverflowError from math.pow
    assert getattr(NST, q)(1e-200, 1e-110) == approx(
        float(_mp_erf(q, 0.1, 1e-200, 1e-110)), rel=1e-15)
    array = getattr(NST, q)(np.array([[1e-3], [1e-200]]), np.array([1e-110, 0.0]))
    assert array[1, 0] == getattr(NST, q)(1e-200, 1e-110)
    assert array[0, 0] == getattr(NST, q)(1e-3, 1e-110)


def test_erf_family_past_the_range_of_a_double_raises():
    # P and W ~ (4 mu t)^-2 overflow themselves
    for q in ("P", "W"):
        with pytest.raises(SingularityError, match=f"{q} overflows a double"):
            getattr(NST, q)(1e-200, 1e-110)
    # 4 mu t = 4e-314 is subnormal: 1 / (4 mu t) overflowed and u(t, 0)
    # was 0 * inf = NaN
    fam = nonstationary_erf(1e-8)
    for call in (lambda: fam.u(1e-306, 0.0), lambda: fam.g0(1e-306),
                 lambda: fam.u_r(np.array([[1e-3], [1e-306]]), np.array([0.0]))):
        with pytest.raises(SingularityError, match="4 mu t is below"):
            call()
    with pytest.raises(SingularityError, match="underflows to 0"):
        fam.u(1e-320, 0.5)


def test_erf_family_far_past_its_layer():
    # z = 5e154: z^2 overflowed in the direct branch, and every quantity
    # but u and g read NaN; there v, v', v'' are 1, 0, 0 exactly
    fam, t, r = nonstationary_erf(1e-8), 1e-306, 0.01
    assert fam.u(t, r) == approx(2e-8 / r, rel=1e-15)
    assert fam.u_r(t, r) == approx(-2e-8 / r ** 2, rel=1e-15)
    assert fam.u_rr(t, r) == approx(4e-8 / r ** 3, rel=1e-15)
    assert fam.u_t(t, r) == 0.0
    assert all(math.isfinite(getattr(fam, q)(t, r)) for q in EVALUATORS)


def _mp_erf_leading(q, mu, t, r):
    """The leading Taylor term in r of u_t, u_rr, g_r or P of the erf family
    in 300-digit mpmath: u = 2 mu (c1 r / (4 mu t) + c2 r^3 / (4 mu t)^2 +
    ...), with v's exact coefficients c1 = 2/3 and c2 = -8/45.  The next
    term is smaller by z^2 = r^2 / (4 mu t)."""
    mp = mpmath.mp
    with mp.workdps(300):
        mu, t, r = mp.mpf(mu), mp.mpf(t), mp.mpf(r)
        c1, c2, s = mp.mpf(2) / 3, mp.mpf(-8) / 45, 4 * mu * t
        return {"u_t": -2 * mu * c1 * r / (4 * mu * t * t),
                "u_rr": 2 * mu * 6 * c2 * r / s ** 2,
                "g_r": 2 * mu * 2 * c2 * r / s ** 2,
                "P": 2 * mu * 2 * c2 / s ** 2}[q]


@pytest.mark.parametrize("q", ["u_t", "u_rr", "g_r", "P"])
@pytest.mark.parametrize("t,r", [(1e-10, 1e-3), (1e-140, 1.0)])
def test_erf_series_where_its_amplitude_overflows_or_its_power_underflows(q, t, r):
    # mu = 1e300, series branch (z = 5e-149 and 5e-81).  At t = 1e-10 u_t's
    # amplitude -mu/t overflows (SingularityError at the parent, where u_t
    # is -r/(3 t^2) = -3.3e16) and (4 mu t)^-2 underflows to 0 (u_rr, g_r
    # and P read 0.0 at the parent); at t = 1e-140 (4 mu t)^-2 = 6.25e-322
    # is subnormal, and u_rr, g_r and P were 4.8e-4 off
    fam = nonstationary_erf(1e300)
    assert getattr(fam, q)(t, r) == approx(
        float(_mp_erf_leading(q, 1e300, t, r)), rel=1e-15, abs=0.0)
    array = getattr(fam, q)(np.array([[1e-3], [t]]), np.array([r, 0.0]))
    assert array[1, 0] == getattr(fam, q)(t, r)


def test_stationary_past_the_range_of_a_double_raises():
    # u = 2e292 at r = 1e-300 is a double, but u_r ~ -K / r^2 and the rest
    # are not: they were +-inf, with RuntimeWarnings on the way.  Underflow
    # stays at the caller's setting, as for SelfSimilar: residual reads it
    fam = stationary(Params(3, 1e-8, C=1.0))
    with np.errstate(all="raise", under="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fam.u(1.0, 1e-300) == approx(2e-8 / 1e-300, rel=1e-15)
        assert fam.u_t(1.0, 1e-300) == 0.0
        for q in ("u_r", "u_rr", "g", "g_r", "P", "W"):
            with pytest.raises(SingularityError,
                               match=f"Stationary {q} overflows a double at r = 1e-300"):
                getattr(fam, q)(1.0, 1e-300)
            with pytest.raises(SingularityError):
                getattr(fam, q)(np.array([[1.0], [2.0]]), np.array([0.5, 1e-300]))


def test_erf_series_coefficients_are_the_nearest_doubles():
    # _V_COEFFS is written as float literals, so importing the module
    # imports no fractions; they are the exact Taylor coefficients of
    # v(z) = 1 - z w(z), rounded once
    exact = (Fraction(2, 3), Fraction(-8, 45), Fraction(16, 945),
             Fraction(32, 14175), Fraction(-64, 93555), Fraction(-2944, 638512875),
             Fraction(5888, 273648375), Fraction(-80384, 44405668125),
             Fraction(-99380224, 194896477400625),
             Fraction(3306665984, 32157918771103125))
    assert _V_COEFFS == tuple(float(c) for c in exact)


def test_nst_tiny_radius_matches_origin_limit():
    t = 1e-3
    assert NST.P(t, 1e-80) == approx(NST.P(t, 0.0), rel=1e-14)
    _, jac, second = cartesian_components(NST, t, np.array([1e-120, 0.0, 0.0]))
    assert np.all(np.isfinite(jac)) and np.all(np.isfinite(second))
    assert jac == approx(NST.g0(t) * np.eye(3), rel=1e-14)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mu=st.floats(1e-8, 10.0), t=st.floats(1e-8, 1.0),
       r=st.one_of(st.just(0.0), st.floats(5e-324, 1e-300), st.floats(0.0, 1e3)))
def test_nst_evaluators_finite_everywhere(mu, t, r):
    fam = nonstationary_erf(mu)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for q in EVALUATORS:
            val = getattr(fam, q)(t, r)
            assert type(val) is float and math.isfinite(val), q
