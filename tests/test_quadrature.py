"""Quadrature engine: closed-form integrals, error-estimate honesty, and the
integral-lemma parameterizations."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cole_lab import quadrature
from cole_lab.quadrature import (Integrand, NonConvergenceError, QuadResult,
                                 _lockstep, _tail, _tail_estimate,
                                 integrate_many, integrate_semi_infinite,
                                 layer_power_integral, lemma1_I, lemma2_J)
from gauss_kronrod import kronrod_15


def test_kronrod_polynomial_exactness():
    # the 15-point Kronrod extension integrates degree <= 22 exactly
    for k in (0, 3, 7, 13, 22):
        val, _ = kronrod_15(lambda s: s ** k, 0.0, 1.0)
        assert val == pytest.approx(1.0 / (k + 1), rel=5e-15)


def test_kronrod_error_estimate_is_conservative():
    f = lambda s: np.exp(-s) * np.sin(7.0 * s)
    exact = 7.0 / 50.0 - math.exp(-2.0) * (7.0 * math.cos(14.0) + math.sin(14.0)) / 50.0
    val, err = kronrod_15(f, 0.0, 2.0)
    assert abs(val - exact) <= max(err, 1e-15)


CLOSED_FORMS = [
    (Integrand(lambda s: np.exp(-s), decay=("exponential", 1.0)), 1.0),
    (Integrand(lambda s: np.exp(-s * s), decay=("gaussian", 1.0)),
     math.sqrt(math.pi) / 2.0),
    (Integrand(lambda s: s * s * np.exp(-s), decay=("exponential", 1.0)), 2.0),
    (Integrand(lambda s: (1.0 + s) ** -3.0, decay=("power", -3.0)), 0.5),
    (Integrand(lambda s: np.exp(-s) / np.sqrt(s), small_r_exponent=-0.5,
               decay=("exponential", 1.0)), math.sqrt(math.pi)),
    # interior kink advertised through splits
    (Integrand(lambda s: np.exp(-np.abs(s - 3.0)), decay=("exponential", 1.0),
               splits=(3.0,)), 2.0 - math.exp(-3.0)),
]


@pytest.mark.parametrize("integrand,want", CLOSED_FORMS)
def test_semi_infinite_closed_forms(integrand, want):
    res = integrate_semi_infinite(integrand, rel_tol=1e-11)
    assert res.abs_error_estimate <= 1e-11 * abs(res.value)
    assert res.value == pytest.approx(want, rel=1e-11)
    assert abs(res.value - want) <= 10.0 * res.abs_error_estimate + 1e-14 * want


@pytest.mark.parametrize("integrand,want", CLOSED_FORMS)
def test_semi_infinite_call_pattern(integrand, want):
    # every call of the integrand carries whole panels, and one integral
    # takes a handful of calls (one per panel and probe made 12-66)
    sizes = []

    def counted(s):
        sizes.append(np.size(s))
        return integrand.f(s)

    res = integrate_semi_infinite(dataclasses.replace(integrand, f=counted),
                                  rel_tol=1e-11)
    assert res.value == pytest.approx(want, rel=1e-11)
    assert len(sizes) <= 10
    assert min(sizes) >= 15


def test_integrate_many_members_are_their_own_runs():
    # the closed forms (a substituted left piece, power, exponential and
    # Gaussian tails) and one member that gives up, in one lockstep run:
    # each member gets the bits of its own run, or its own
    # NonConvergenceError, and the run takes the calls of its slowest member
    jagged = Integrand(lambda s: np.exp(-s) * np.abs(np.sin(50.0 * s)),
                       decay=("exponential", 1.0), name="jagged")
    members = [f for f, _ in CLOSED_FORMS] + [jagged]
    calls = []

    def F(rows, r):
        calls.append(r.shape)
        out = np.empty_like(r)
        for i in set(rows.tolist()):
            out[rows == i] = members[i].f(r[rows == i])
        return out

    results = integrate_many(F, members, rel_tol=1e-13, max_subdivisions=40)
    alone_calls = []
    for f, res in zip(members, results):
        counted = []
        f = dataclasses.replace(f, f=lambda s, f=f.f: counted.append(1) or f(s))
        try:
            alone = integrate_semi_infinite(f, rel_tol=1e-13, max_subdivisions=40)
            assert (res.value, res.abs_error_estimate, res.subdivisions) == \
                (alone.value, alone.abs_error_estimate, alone.subdivisions)
        except NonConvergenceError:
            assert isinstance(res, NonConvergenceError)
        alone_calls.append(len(counted))
    assert isinstance(results[-1], NonConvergenceError)
    assert len(calls) == max(alone_calls)
    assert all(width in (15, 16) for _, width in calls)


def _truncate_step_by_step(f, radius, total, rel_tol, abs_tol):
    # the rule _tail batches: one probe, then at most one panel, per step
    panels = []
    for _ in range(400):
        absf = float(abs(f.f(np.array([radius]))[0]))
        bound = _tail_estimate(absf, f.decay, radius)
        if bound <= 0.1 * max(abs_tol, rel_tol * abs(total)):
            return panels, bound
        nxt = radius * 1.6
        total += kronrod_15(f.f, radius, nxt)[0]
        panels.append((radius, nxt))
        radius = nxt
    raise NonConvergenceError("stalled")


SLOW_TAIL = Integrand(lambda s: (1.0 + s) ** -1.5, decay=("power", -1.5))


@pytest.mark.parametrize("integrand", [f for f, _ in CLOSED_FORMS] + [SLOW_TAIL])
def test_truncation_keeps_the_step_by_step_prefix(integrand):
    # the chunked tail keeps exactly the panels and the certificate of the
    # step-by-step rule; SLOW_TAIL needs 100+ steps, i.e. several chunks
    for rel_tol, radius, total in ((1e-11, 1.0, 0.3), (1e-6, 3.0, 1.0)):
        want_panels, want_bound = _truncate_step_by_step(
            integrand, radius, total, rel_tol, 1e-300)
        (laid, panels, bound), = _lockstep(
            lambda rows, r: integrand.f(r),
            [_tail([], integrand.decay, radius, total, rel_tol, 1e-300, "tail")])
        assert laid == []
        assert [(p[1], p[2]) for p in panels] == want_panels
        assert bound == want_bound


def test_truncation_stall_reported():
    # r^-1.01 leaves a tail above 1e-11 after the 400-step budget
    creeping = Integrand(lambda s: (1.0 + s) ** -1.01, decay=("power", -1.01))
    with pytest.raises(NonConvergenceError, match="tail truncation stalled"):
        integrate_semi_infinite(creeping, rel_tol=1e-11)


def test_deterministic_repeats():
    integrand = CLOSED_FORMS[1][0]
    a = integrate_semi_infinite(integrand, rel_tol=1e-11)
    b = integrate_semi_infinite(integrand, rel_tol=1e-11)
    assert a.value == b.value and a.abs_error_estimate == b.abs_error_estimate


def test_result_shape():
    res = integrate_semi_infinite(CLOSED_FORMS[0][0], rel_tol=1e-10)
    assert isinstance(res, QuadResult)
    assert res.subdivisions >= 1
    assert res.abs_error_estimate >= 0.0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(q=st.floats(0.5, 3.0), logb=st.floats(-1.0, 1.0),
       n=st.integers(2, 7), logt=st.floats(-6.0, 0.0))
def test_lemma1_closed_form_k0_l1(q, logb, n, logt):
    # k=0, l=1: I(t) = t^q log(1 + 1/(b t^(n/2)))
    b, t = 10.0 ** logb, 10.0 ** logt
    offset = math.log(b) + 0.5 * n * math.log(t)
    want = t ** q * float(np.logaddexp(0.0, -offset))
    assert lemma1_I(q=q, k=0.0, b=b, l=1.0, n=n, t=t) == pytest.approx(want, rel=1e-10)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(d=st.floats(-0.9, 2.0), logb=st.floats(-1.0, 1.0),
       n=st.integers(2, 7), logt=st.floats(-6.0, 0.0),
       logmu=st.floats(-2.0, 0.0))
def test_lemma2_closed_form_c1_l1(d, logb, n, logt, logmu):
    # c=1, l=1: J(t) = 2 mu t^(d+1) log(1 + 1/(b t^(n/2)))
    b, t, mu = 10.0 ** logb, 10.0 ** logt, 10.0 ** logmu
    offset = math.log(b) + 0.5 * n * math.log(t)
    want = 2.0 * mu * t ** (d + 1.0) * float(np.logaddexp(0.0, -offset))
    got = lemma2_J(d=d, c=1.0, b=b, l=1.0, n=n, mu=mu, t=t)
    assert got == pytest.approx(want, rel=1e-10)


# (q, k, b, l, n, t) per element: k = 0, a substituted left piece (k <
# -0.05), l != 1, a deep t (b t^(n/2) = 7e-210), and an int n each
LEMMA1_ELEMENTS = [(1.0, 0.0, 1.0, 1.0, 3, 0.1), (2.5, -0.6, 0.3, 2.0, 2, 1e-4),
                   (0.7, 3.5, 7.0, 0.5, 7, 1e-60), (1.5, 0.5, 1.4, 1.5, 5, 3e-2)]


def _hex(x):
    return float(x).hex()


def test_lemma1_array_is_its_scalar_calls(quad_work):
    # the elements' integrals in one lockstep run, each with the bits of
    # its scalar call; the arguments broadcast together
    q, k, b, l, n, t = (np.array(x) for x in zip(*LEMMA1_ELEMENTS))
    got = lemma1_I(q, k, b, l, n, t)
    assert (quad_work.integrals, quad_work.alone) == (4, 0)
    want = [lemma1_I(*x) for x in LEMMA1_ELEMENTS]
    assert quad_work.alone == 4 and all(isinstance(v, float) for v in want)
    assert list(map(_hex, got)) == list(map(_hex, want))
    grid = lemma1_I(1.5, 0.5, b[:, None], 1.0, 3, np.array([1e-3, 1e-6]))
    assert grid.shape == (4, 2)
    assert [_hex(grid[i, j]) for i in range(4) for j in range(2)] == [
        _hex(lemma1_I(1.5, 0.5, bi, 1.0, 3, tj)) for bi in b for tj in (1e-3, 1e-6)]
    with pytest.raises(ValueError, match="lemma1_I requires"):
        lemma1_I(q, np.array([0.0, -1.0, 0.0, 0.0]), b, l, n, t)


def test_lemma2_array_is_its_scalar_calls(quad_work):
    # both routes of every element in one lockstep run: the key integral
    # over seven decades of t and three c = 1 closed forms
    n, p, mu = 3, 2.0, 0.1
    b = (4.0 * math.pi * mu) ** (0.5 * n)
    ts = np.geomspace(1e-2, 1e-8, 7)
    got = lemma2_J(-p, p + n - 1.0, b, p, n, mu, ts)
    assert (quad_work.integrals, quad_work.alone) == (14, 0)
    assert quad_work.calls == 12    # the slower route's; 18 as two runs
    assert list(map(_hex, got)) == [
        _hex(lemma2_J(-p, p + n - 1.0, b, p, n, mu, t)) for t in ts.tolist()]
    d, b, n, mu, t = (np.array([0.5, -0.4, 1.7]), np.array([0.2, 1.0, 9.0]),
                      np.array([2, 5, 7]), np.array([0.01, 0.3, 1.0]),
                      np.array([1e-6, 1e-3, 0.5]))
    got = lemma2_J(d, 1.0, b, 1.0, n, mu, t)
    want = [lemma2_J(*x) for x in zip(d.tolist(), [1.0] * 3, b.tolist(), [1.0] * 3,
                                       n.tolist(), mu.tolist(), t.tolist())]
    assert all(isinstance(v, float) for v in want)
    assert list(map(_hex, got)) == list(map(_hex, want))
    with pytest.raises(ValueError, match="d > -"):
        lemma2_J(np.array([0.0, -1.5]), 1.0, 1.0, 1.0, 3, 0.1, 0.1)


def test_lemma2_array_raises_where_one_element_disagrees(monkeypatch):
    # the reduced route of the l = 1.5 element is off by 1e-6: the array
    # call raises as that element's scalar call does, the others pass
    real = quadrature._lemma1_f

    def skewed(k, l, offset, s):
        return real(k, l, offset, s) * np.where(np.asarray(l) == 1.5, 1.0 + 1e-6, 1.0)

    monkeypatch.setattr(quadrature, "_lemma1_f", skewed)
    ls = np.array([1.0, 1.5, 2.0])
    with pytest.raises(NonConvergenceError, match="substitution consistency"):
        lemma2_J(0.5, 2.0, 1.0, ls, 3, 0.1, 1e-3)
    with pytest.raises(NonConvergenceError, match="substitution consistency"):
        lemma2_J(0.5, 2.0, 1.0, 1.5, 3, 0.1, 1e-3)
    assert lemma2_J(0.5, 2.0, 1.0, ls[[0, 2]], 3, 0.1, 1e-3).shape == (2,)


def test_lemma1_gamma_limit():
    # for b t^(n/2) >> 1 the bracket is ~ b t^(n/2) e^s and
    # I ~ t^q (b t^(n/2))^-l Gamma(k+1) int s^k e^-ls ds
    q, k, b, l, n, t = 1.0, 2.0, 1.0, 1.0, 2, 50.0
    # here offset = log(b t^(n/2)) = log 50 >> 1, so the denominator is
    # essentially b t e^s and I -> t^q (bt)^-1 * Gamma(3)/1^3
    approx = t ** q / (b * t) * 2.0
    got = lemma1_I(q=q, k=k, b=b, l=l, n=n, t=t)
    assert got == pytest.approx(approx, rel=0.05)


def test_lemma_validation():
    with pytest.raises(ValueError):
        lemma1_I(q=1.0, k=-1.0, b=1.0, l=1.0, n=3, t=0.1)
    with pytest.raises(ValueError):
        lemma1_I(q=0.0, k=0.0, b=1.0, l=1.0, n=3, t=0.1)
    with pytest.raises(ValueError):
        lemma1_I(q=1.0, k=0.0, b=-1.0, l=1.0, n=3, t=0.1)
    with pytest.raises(ValueError):
        lemma2_J(d=-1.5, c=1.0, b=1.0, l=1.0, n=3, mu=0.1, t=0.1)
    with pytest.raises(ValueError):
        lemma2_J(d=0.0, c=-1.0, b=1.0, l=1.0, n=3, mu=0.1, t=0.1)
    with pytest.raises(ValueError):
        layer_power_integral(c=-1.0, b=1.0, l=1.0, n=3, mu=0.1, t=0.1)


def test_lemma2_matches_layer_integral():
    d, c, b, l, n, mu, t = -2.0, 4.0, 1.4050881, 2.0, 3, 0.1, 1e-3
    bare = layer_power_integral(c, b, l, n, mu, t)
    assert bare.abs_error_estimate <= 1e-11 * abs(bare.value)
    want = t ** d * bare.value
    assert lemma2_J(d=d, c=c, b=b, l=l, n=n, mu=mu, t=t) == pytest.approx(
        want, rel=1e-12)


def test_key_integral_sequence_decreases():
    n, p, mu, a = 3, 2.0, 0.1, 1.0
    b = a * (4.0 * math.pi * mu) ** (0.5 * n)
    ts = np.geomspace(1e-2, 1e-8, 7)
    js = [lemma2_J(d=-p, c=p + n - 1.0, b=b, l=p, n=n, mu=mu, t=t) for t in ts]
    assert all(x > y for x, y in zip(js[:-1], js[1:]))
    assert js[-1] < 0.1 * js[0]


def test_extreme_underflow_parameters():
    # A = b t^(n/2) spans far beyond double range without harm
    got = lemma1_I(q=1.0, k=0.0, b=1.0, l=1.0, n=7, t=1e-60)
    offset = 0.5 * 7 * math.log(1e-60)
    want = 1e-60 * float(np.logaddexp(0.0, -offset))
    assert got == pytest.approx(want, rel=1e-9)


def test_nonconvergence_reported():
    # kinks every ~0.06 units: no budget of 40 panels reaches 1e-13
    jagged = Integrand(lambda s: np.exp(-s) * np.abs(np.sin(50.0 * s)),
                       decay=("exponential", 1.0), name="jagged")
    with pytest.raises(NonConvergenceError):
        integrate_semi_infinite(jagged, rel_tol=1e-13, max_subdivisions=40)


@pytest.mark.parametrize("t", [1e-200, 1e-205])
def test_layer_integral_relative_below_1e_290(t):
    # the bare layer integral against its s = r^2/4mu t reduction where the
    # integral is near 1e-300: an absolute floor of 1e-300 parted them by
    # 4.0e-5 at t = 1e-200 and 2.3e-3 at t = 1e-205, and lemma2_J raised
    c, b, l, n, mu = 2.0, 1.0, 2.0, 3, 0.1
    direct = layer_power_integral(c, b, l, n, mu, t).value
    reduced = 0.5 * (4.0 * mu) ** 1.5 * lemma1_I(q=1.5, k=0.5, b=b, l=l, n=n, t=t)
    assert direct == pytest.approx(reduced, rel=1e-13)
    assert lemma2_J(d=0.0, c=c, b=b, l=l, n=n, mu=mu, t=t) == direct


def test_sharp_layer_is_not_missed():
    # int_0^oo x / (1 + B e^(x^2)) dx = log(1 + 1/B)/2 exactly; at
    # B = b t^(7/2) ~ e^-2417 the nodes of the panel below the layer and of
    # the first tail step lay so far from it that the result was 2.9e-4 off
    # under an error estimate of 5e-13
    n, t = 7, 1e-300
    b = (4.0 * math.pi * 0.1) ** (0.5 * n)
    offset = math.log(b) + 0.5 * n * math.log(t)
    res = layer_power_integral(1.0, b, 1.0, n, 0.25 / t, t)   # 4 mu t = 1
    want = 0.5 * (-offset + math.log1p(math.exp(offset)))
    assert res.value == pytest.approx(want, rel=1e-13)
    assert abs(res.value - want) <= res.abs_error_estimate
