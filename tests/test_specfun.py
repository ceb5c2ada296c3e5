"""Special-function kernels against frozen high-precision reference values,
against mpmath on dense grids, and against their defining identities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cole_lab.specfun import (DomainError, erf, erfc, scaled_tail,
                              upper_tail_integral)
from gauss_kronrod import kronrod_15

# reference values computed once with a 40-digit arbitrary-precision
# evaluation of the defining integrals and frozen here
ERF_TABLE = [
    (0.1, 0.1124629160182849),
    (0.5, 0.5204998778130465),
    (1.0, 0.8427007929497149),
    (2.0, 0.9953222650189527),
    (3.0, 0.9999779095030014),
    (3.5, 0.9999992569016276),
    (5.0, 0.9999999999984626),
    (-1.3, -0.9340079449406524),
]

ERFC_TABLE = [
    (0.3, 0.6713732405408726),
    (0.7, 0.32219880616258156),
    (1.5, 0.033894853524689274),
    (3.0, 2.209049699858544e-05),
    (6.0, 2.1519736712498913e-17),
    (11.5, 1.793309643576782e-59),
    (13.0, 1.7395573154667246e-75),
    (20.0, 5.395865611607901e-176),
    (26.5, 2.2109076642637343e-307),
    (-2.0, 1.9953222650189528),
]

EXP1_TABLE = [
    (0.1, 1.8229239584193906),
    (0.5, 0.5597735947761608),
    (1.0, 0.21938393439552029),
    (3.0, 0.013048381094197037),
    (10.0, 4.156968929685325e-06),
    (30.0, 3.0215520106888124e-15),
]

# G_n(z) = int_z^oo s^(-n/2) e^(-s) ds, on both sides of scaled_tail's
# switch from the recurrence to the continued fraction at z = 1
TAIL_TABLE = [
    ((2, 0.5), 0.5597735947761608),
    ((2, 5.0), 0.0011482955912753257),
    ((2, 39.0), 2.888779301522701e-19),
    ((2, 41.0), 3.723166776459978e-20),
    ((2, 300.0), 1.71038427680451e-133),
    ((3, 0.5), 0.5906913067325994),
    ((3, 5.0), 0.0004773964866727085),
    ((3, 39.0), 4.569908698728836e-20),
    ((3, 41.0), 5.747656555855864e-21),
    ((3, 300.0), 9.858585443962328e-135),
    ((4, 0.5), 0.653287724649106),
    ((4, 5.0), 0.00019929380854176763),
    ((4, 39.0), 7.230381976339797e-21),
    ((4, 41.0), 8.874100240584854e-22),
    ((4, 300.0), 5.682463999494478e-136),
    ((5, 0.5), 0.7498909754592095),
    ((5, 5.0), 8.35092093847495e-05),
    ((5, 39.0), 1.144126906804286e-21),
    ((5, 41.0), 1.370288147488694e-22),
    ((5, 300.0), 3.275366902882041e-137),
    ((6, 0.5), 0.8864174571007138),
    ((6, 5.0), 3.511203571082553e-05),
    ((6, 39.0), 1.8106942373535647e-22),
    ((6, 41.0), 2.1161790271467783e-23),
    ((6, 300.0), 1.887923492610199e-138),
    ((7, 0.5), 1.0724658257534472),
    ((7, 5.0), 1.4809140306086817e-05),
    ((7, 39.0), 2.865977417566813e-23),
    ((7, 41.0), 3.268471934395337e-24),
    ((7, 300.0), 1.0882031847924625e-139),
]


@pytest.mark.parametrize("x,want", ERF_TABLE)
def test_erf_reference(x, want):
    assert erf(x) == pytest.approx(want, rel=5e-15)


@pytest.mark.parametrize("x,want", ERFC_TABLE)
def test_erfc_reference(x, want):
    assert erfc(x) == pytest.approx(want, rel=5e-15)


@pytest.mark.parametrize("x,want", EXP1_TABLE)
def test_exp1_reference(x, want):
    assert upper_tail_integral(2, x) == pytest.approx(want, rel=5e-15)


@pytest.mark.parametrize("key,want", TAIL_TABLE)
def test_upper_tail_reference(key, want):
    n, z = key
    assert upper_tail_integral(n, z) == pytest.approx(want, rel=5e-15)


# ---------------------------------------------------------------------------
# dense grids against mpmath at 40 digits
# ---------------------------------------------------------------------------

_SUBNORMAL_ULP = 5e-324


def _mp_values(f, xs):
    with mpmath.workdps(40):
        return np.array([float(f(mpmath.mpf(float(x)))) for x in xs])


def _assert_rel(x, got, want, rel):
    # relative error; below the normal range one ulp there is tolerated
    got = np.asarray(got, dtype=float)
    excess = np.abs(got - want) - rel * np.abs(want)
    i = int(np.argmax(excess))
    assert excess[i] <= _SUBNORMAL_ULP, f"x = {x[i]!r}: got {got[i]!r}, want {want[i]!r}"


ERF_GRID = np.linspace(-6.0, 26.5, 3251)


def test_erf_dense_against_mpmath():
    _assert_rel(ERF_GRID, erf(ERF_GRID), _mp_values(mpmath.erf, ERF_GRID), 5e-15)


def test_erfc_dense_against_mpmath():
    # down to 2.2e-307 at x = 26.5, the edge of the normal range
    _assert_rel(ERF_GRID, erfc(ERF_GRID), _mp_values(mpmath.erfc, ERF_GRID), 5e-15)


def test_logaddexp_dense_against_mpmath():
    # log(1 + e^x) over the whole range where e^x is finite, plus the far
    # tails where it is e^x rounded to 0 and x itself
    x = np.concatenate([np.linspace(-745.0, 709.0, 2909), [-800.0, -50.0, 40.0, 1000.0]])
    want = _mp_values(lambda v: mpmath.log1p(mpmath.exp(v)), x)
    _assert_rel(x, np.logaddexp(0.0, x), want, np.finfo(float).eps)
    assert np.logaddexp(0.0, -800.0) == 0.0
    assert np.logaddexp(0.0, 40.0) == 40.0
    assert np.logaddexp(0.0, 1000.0) == 1000.0


def test_exp1_dense_against_mpmath():
    z = np.geomspace(1e-3, 700.0, 1201)
    _assert_rel(z, upper_tail_integral(2, z), _mp_values(mpmath.e1, z), 5e-15)


@pytest.mark.parametrize("n", range(2, 13))
def test_upper_tail_dense_against_mpmath(n):
    # from z = 1e-6, where G_12 is ~2e29, up to z = 600, where it is still a
    # normal double; a thinner grid past n = 7 keeps the mpmath time down
    z = np.geomspace(1e-6, 600.0, 801 if n <= 7 else 201)
    want = _mp_values(lambda v: mpmath.gammainc(1 - mpmath.mpf(n) / 2, v), z)
    _assert_rel(z, upper_tail_integral(n, z), want, 5e-15)


def test_erf_against_defining_integral():
    # independent route: 15-point Gauss-Kronrod on the defining integral
    for x in (0.3, 1.0, 2.5):
        val, _ = kronrod_15(lambda s: np.exp(-s * s), 0.0, x)
        want = 2.0 / math.sqrt(math.pi) * val
        assert erf(x) == pytest.approx(want, rel=1e-13)


def test_erf_special_points():
    assert erf(0.0) == 0.0
    assert erf(40.0) == 1.0
    assert erf(-40.0) == -1.0


def test_erf_array_is_the_c_library_elementwise():
    # an array skips the C library where |x| >= 6, where it returns +-1
    # exactly; every element keeps the bits of math.erf, across that seam
    # and where math.erf itself first rounds to 1 (x = 5.9215875)
    x = np.concatenate([np.linspace(-8.0, 8.0, 4001), np.linspace(5.9, 6.1, 2001),
                        [-math.inf, -1e300, -6.0, 6.0, 1e300, math.inf, math.nan]])
    got = erf(x)
    want = np.array([math.erf(v) for v in x.tolist()])
    assert got.tobytes() == want.tobytes()
    assert erf(x[:-1].reshape(2, -1)).tobytes() == want[:-1].tobytes()


@settings(max_examples=50, derandomize=True)
@given(st.floats(-6.0, 6.0))
def test_erf_odd_and_bounded(x):
    assert abs(erf(x)) <= 1.0
    assert erf(-x) == pytest.approx(-erf(x), abs=1e-300)


@settings(max_examples=50, derandomize=True)
@given(st.floats(-4.0, 4.0), st.floats(1e-2, 1.0))
def test_erf_strictly_increasing(x, dx):
    # range kept clear of the |x| ~ 6 region where erf rounds to +-1
    assert erf(x + dx) > erf(x)


@settings(max_examples=50, derandomize=True)
@given(st.floats(-10.0, 10.0))
def test_erf_erfc_complement(x):
    assert erf(x) + erfc(x) == pytest.approx(1.0, rel=2e-15, abs=2e-15)


def test_erfc_negative_reflection():
    for x in (0.2, 1.7, 4.0):
        assert erfc(-x) == pytest.approx(2.0 - erfc(x), rel=1e-15)


def test_upper_tail_recurrence_identity():
    # integration by parts: G_{n+2}(z) = (G_n(z) - z^(-n/2) e^(-z)) / (-n/2)
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        z = float(10.0 ** rng.uniform(-1.0, 1.9))
        lhs = upper_tail_integral(n + 2, z)
        rhs = (upper_tail_integral(n, z) - z ** (-0.5 * n) * math.exp(-z)) / (-0.5 * n)
        assert lhs == pytest.approx(rhs, rel=5e-9)


def test_upper_tail_decreasing_in_z_and_positive():
    z = np.geomspace(0.1, 200.0, 60)
    for n in (2, 3, 5, 7):
        vals = upper_tail_integral(n, z)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        upper_tail_integral(1, 1.0)
    for z in (0.0, -2.0, math.nan, np.array([1.0, math.nan])):
        with pytest.raises(DomainError):
            upper_tail_integral(3, z)


@pytest.mark.parametrize("n", range(2, 8))
def test_upper_tail_array_equals_scalar_calls(n):
    # each element of an array takes its own continued-fraction depth, so
    # an array mixing small and large z gives the scalar calls' bits
    z = np.geomspace(1e-2, 600.0, 401)
    assert np.array_equal(upper_tail_integral(n, z),
                          [upper_tail_integral(n, x) for x in z.tolist()])


def test_array_scalar_passthrough():
    x = np.array([0.1, 1.0, 3.0])
    out = erf(x)
    assert isinstance(out, np.ndarray) and out.shape == x.shape
    assert isinstance(erf(0.5), float)
    assert isinstance(erfc(np.array([[1.0, 2.0]])), np.ndarray)
    assert isinstance(upper_tail_integral(2, 1.0), float)


def _mp_gamma_tails(n, z):
    """Gamma(1 - k/2, z) for k = 1..n in mpmath, by the downward recurrence
    from Gamma(1/2, z) = sqrt(pi) erfc(sqrt z) and Gamma(0, z) = E1(z)."""
    out = {1: mpmath.sqrt(mpmath.pi) * mpmath.erfc(mpmath.sqrt(z)), 2: mpmath.e1(z)}
    for k in range(3, n + 1):
        a = 1 - mpmath.mpf(k - 2) / 2
        out[k] = (out[k - 2] - z ** (a - 1) * mpmath.exp(-z)) / (a - 1)
    return out


@pytest.mark.parametrize("n", range(3, 9))
def test_scaled_tail_against_mpmath(n):
    """Q_n(z) = z^(n/2-1) e^z G_n(z) and sqrt(z) Q_(n-2)(z), from sqrt(z)
    down to z = 1e-600 (sqrt z = 1e-300), where G_n itself overflows, and
    across the switch to the continued fraction at z = 1 up to z = 900."""
    root = np.concatenate([np.geomspace(1e-300, 1.0, 41),
                           [np.nextafter(1.0, 2.0)], np.geomspace(1.01, 30.0, 12)])
    q, sq = scaled_tail(n, root)
    with mpmath.workdps(50):
        for x, qi, sqi in zip(root.tolist(), q, sq):
            z = mpmath.mpf(x) ** 2
            scale = z ** (mpmath.mpf(n) / 2 - 1) * mpmath.exp(z)
            g = _mp_gamma_tails(n, z)
            want_q, want_sq = scale * g[n], mpmath.mpf(x) * scale / z * g[n - 2]
            assert float(abs(qi - want_q) / want_q) <= 2e-15, (n, x)
            assert float(abs(sqi - want_sq) / want_sq) <= 2e-15, (n, x)
    scalar_calls = [scaled_tail(n, x) for x in root.tolist()]
    assert np.array_equal(np.transpose([q, sq]), scalar_calls)


def test_scaled_tail_domain():
    for n, root in ((2, 0.5), (3, 0.0), (3.0, 0.5), (3, math.nan),
                    (4, np.array([0.5, math.nan]))):
        with pytest.raises(DomainError):
            scaled_tail(n, root)
    assert isinstance(scaled_tail(4, 0.5)[0], float)
