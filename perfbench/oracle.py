"""Independent mpmath oracle for the cole-lab benchmark.

Everything here is computed from the closed forms at 30 significant digits
with mpmath, without importing cole_lab:

* the radial profile u(t, r) of all four families;
* L^p norms by mpmath.quad with breakpoints at the interior layer
  (MainExample, SelfSimilar, and the erf-to-stationary distance);
* the L^infinity maximum, by root-finding on u_r;
* the truncation part of the finite-difference PDE residual, i.e. the
  5-point stencils of the `residual` command evaluated in exact arithmetic
  on the same floating-point abscissae, plus a rounding allowance.

The norm, linf and residual values depend only on the fixed workload argv,
so they are stored in `reference.json`.  Regenerate it with

    python3 perfbench/oracle.py

which takes about half a minute.  Pointwise u samples depend on the benchmark
seed and are computed at run time through `u_value`.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp
import numpy as np

DPS = 30
mp.mp.dps = DPS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
ROUNDING_ULPS = 64          # relative error allowed for one float evaluation of u
EPS = 2.0 ** -52


# ---------------------------------------------------------------------------
# closed-form radial profiles
# ---------------------------------------------------------------------------

def u_main(n, mu, a, t, r):
    """r / (t (1 + a (4 pi mu t)^(n/2) exp(r^2 / 4 mu t)))."""
    n, mu, a, t, r = int(n), mp.mpf(mu), mp.mpf(a), mp.mpf(t), mp.mpf(r)
    four_mu_t = 4 * mu * t
    return r / (t * (1 + a * (mp.pi * four_mu_t) ** (mp.mpf(n) / 2)
                     * mp.exp(r * r / four_mu_t)))


def u_selfsim(n, mu, a, t, r):
    """sqrt(4 mu / t) xi^((1-n)/2) e^(-xi) / (a + Gamma(1 - n/2, xi))."""
    n, mu, a, t, r = int(n), mp.mpf(mu), mp.mpf(a), mp.mpf(t), mp.mpf(r)
    xi = r * r / (4 * mu * t)
    g = mp.gammainc(1 - mp.mpf(n) / 2, xi)
    return mp.sqrt(4 * mu / t) * xi ** ((1 - mp.mpf(n)) / 2) * mp.exp(-xi) / (a + g)


def u_stationary(n, mu, C, t, r):
    """2 (n-2) mu / (r (1 + C r^(n-2))) for n >= 3, -2 mu / (r (log r + C))
    for n = 2."""
    n, mu, C, r = int(n), mp.mpf(mu), mp.mpf(C), mp.mpf(r)
    if n == 2:
        return -2 * mu / (r * (mp.log(r) + C))
    return 2 * (n - 2) * mu / (r * (1 + C * r ** (n - 2)))


def u_erf(mu, t, r):
    """2 mu (1/r - e^(-z^2) / (sqrt(pi mu t) erf(z))), z = r / sqrt(4 mu t).

    The two terms cancel to O(z^2) near the origin, so the subtraction runs
    at twice the working precision."""
    with mp.workdps(2 * DPS):
        mu, t, r = mp.mpf(mu), mp.mpf(t), mp.mpf(r)
        z = r / mp.sqrt(4 * mu * t)
        val = 2 * mu * (1 / r - mp.exp(-z * z) / (mp.sqrt(mp.pi * mu * t) * mp.erf(z)))
    return +val


def u_value(family, params, t, r):
    """u(t, r) for a family name and a dict with n, mu, a, C."""
    n, mu, a, C = params["n"], params["mu"], params["a"], params["C"]
    if family == "MainExample":
        return u_main(n, mu, a, t, r)
    if family == "SelfSimilar":
        return u_selfsim(n, mu, a, t, r)
    if family == "Stationary":
        return u_stationary(n, mu, C, t, r)
    if family == "NonStationaryErf":
        return u_erf(mu, t, r)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _sphere(n):
    return 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)


def _norm_from_integral(n, p, integral):
    return (_sphere(n) * integral) ** (1 / mp.mpf(p))


def lp_main(n, mu, a, p, t):
    """Full R^n L^p norm of the main example, breakpoints at the layer
    s = r^2 / 4 mu t = s0 where the denominator switches on."""
    mu, a, t, p = mp.mpf(mu), mp.mpf(a), mp.mpf(t), mp.mpf(p)
    four_mu_t = 4 * mu * t
    s0 = -(mp.log(a) + mp.mpf(n) / 2 * mp.log(mp.pi * four_mu_t))
    s_points = sorted({mp.mpf(s) for s in (0.25, 1, 4)}
                      | {s0 + k for k in (-8, -4, -2, -1, 0, 1, 2, 4, 8, 16, 32, 64)
                         if s0 + k > 0})
    pts = [mp.mpf(0)] + [mp.sqrt(four_mu_t * s) for s in s_points] + [mp.inf]
    f = lambda r: u_main(n, mu, a, t, r) ** p * r ** (n - 1)
    return _norm_from_integral(n, p, mp.quad(f, pts))


def lp_selfsim(n, mu, a, p, t):
    """Full R^n L^p norm of the self-similar family; the integrand is
    singular like r^(n-1-p) at 0, which tanh-sinh handles at the endpoint."""
    mu, a, t, p = mp.mpf(mu), mp.mpf(a), mp.mpf(t), mp.mpf(p)
    four_mu_t = 4 * mu * t
    pts = [mp.mpf(0)] + [mp.sqrt(four_mu_t * s)
                         for s in (1e-4, 1e-2, 0.25, 1, 3, 8, 20, 50)] + [mp.inf]
    f = lambda r: u_selfsim(n, mu, a, t, r) ** p * r ** (n - 1)
    return _norm_from_integral(n, p, mp.quad(f, pts))


def erf_distance(mu, p, t):
    """R^3 L^p norm of u_erf - u_stationary(C=0) = sqrt(mu/t) w(z),
    w(z) = (2/sqrt(pi)) e^(-z^2) / erf(z)."""
    mu, t, p = mp.mpf(mu), mp.mpf(t), mp.mpf(p)
    root = mp.sqrt(4 * mu * t)
    amp = mp.sqrt(mu / t)

    def f(r):
        z = r / root
        w = 2 / mp.sqrt(mp.pi) * mp.exp(-z * z) / mp.erf(z)
        return (amp * w) ** p * r * r

    pts = [mp.mpf(0)] + [root * z for z in (1e-3, 0.1, 0.5, 1, 2, 4, 8)] + [mp.inf]
    return _norm_from_integral(3, p, mp.quad(f, pts))


def linf(family, params, t):
    """sup_r u(t, r): bracket the sign change of u_r on a log grid around
    the layer scale, then root-find on u_r."""
    t = mp.mpf(t)
    scale = mp.sqrt(4 * mp.mpf(params["mu"]) * t)
    u = lambda r: u_value(family, params, t, r)
    ur = lambda r: mp.diff(u, r)
    grid = [scale * mp.mpf(10) ** (mp.mpf(k) / 8) for k in range(-16, 25)]
    signs = [ur(r) for r in grid]
    for lo, hi, slo, shi in zip(grid[:-1], grid[1:], signs[:-1], signs[1:]):
        if slo > 0 and shi < 0:
            break
    else:
        raise ArithmeticError(f"no maximum bracketed for {family} at t={t}")
    r_star = mp.findroot(ur, (lo, hi), solver="anderson")
    return u(r_star)


# ---------------------------------------------------------------------------
# finite-difference residual
# ---------------------------------------------------------------------------

def _linspace(lo, hi, k):
    # the command's own abscissae: numpy.linspace, then float
    return [float(x) for x in np.linspace(lo, hi, k)]


def fd_residual_bound(family, params, r_lo, r_hi, nr, t_values):
    """Range the largest scaled finite-difference residual reported by the
    `residual` command must fall in on this grid.

    Mirrors the grid and steps of the command (h = grid spacing, points
    closer than 2h to r = 0 dropped, h_t = t h / r_max), evaluates the three
    5-point stencils in exact arithmetic on the same abscissae, and takes,
    per point, the truncation residual |T| / scale plus or minus a rounding
    allowance of ROUNDING_ULPS relative error in every float evaluation of
    u.  Returns (max of the lower ends, max of the upper ends).
    """
    n, mu = params["n"], mp.mpf(params["mu"])
    radii = _linspace(r_lo, r_hi, nr + 1)
    h = min(b - a for a, b in zip(radii[:-1], radii[1:]))
    eps_u = mp.mpf(ROUNDING_ULPS * EPS)
    lower = upper = mp.mpf(0)
    for t in t_values:
        h_t = t * h / r_hi
        hm, hmt = mp.mpf(h), mp.mpf(h_t)
        for r in radii:
            if not (r > 0.0 and r - 2.0 * h > 0.0):
                continue
            fr = [u_value(family, params, t, x)
                  for x in (r - 2 * h, r - h, r, r + h, r + 2 * h)]
            ft = [u_value(family, params, tau, r)
                  for tau in (t - 2 * h_t, t - h_t, t + h_t, t + 2 * h_t)]
            ur = (fr[0] - 8 * fr[1] + 8 * fr[3] - fr[4]) / (12 * hm)
            urr = (-fr[0] + 16 * fr[1] - 30 * fr[2] + 16 * fr[3] - fr[4]) / (12 * hm * hm)
            ut = (ft[0] - 8 * ft[1] + 8 * ft[2] - ft[3]) / (12 * hmt)
            v, rm = fr[2], mp.mpf(r)
            trunc = ut + v * ur - mu * (urr + (n - 1) * (ur / rm - v / (rm * rm)))
            scale = max(abs(ut), abs(v * ur), mu * abs(urr),
                        mu * (n - 1) * abs(ur / rm), mu * (n - 1) * abs(v) / (rm * rm),
                        mp.mpf(1e-300))
            a = [abs(x) for x in fr]
            at = [abs(x) for x in ft]
            d_ur = eps_u * (a[0] + 8 * a[1] + 8 * a[3] + a[4]) / (12 * hm)
            d_urr = eps_u * (a[0] + 16 * a[1] + 30 * a[2] + 16 * a[3] + a[4]) / (12 * hm * hm)
            d_ut = eps_u * (at[0] + 8 * at[1] + 8 * at[2] + at[3]) / (12 * hmt)
            d_u = eps_u * abs(v)
            rounding = (d_ut + abs(v) * d_ur + abs(ur) * d_u + mu * d_urr
                        + mu * (n - 1) * (d_ur / rm + d_u / (rm * rm))
                        + 16 * EPS * scale)
            lower = max(lower, (abs(trunc) - rounding) / scale)
            upper = max(upper, (abs(trunc) + rounding) / scale)
    return float(lower), float(upper)


# ---------------------------------------------------------------------------
# stored reference
# ---------------------------------------------------------------------------

def _params(family, flags):
    p = {"n": 3, "mu": 0.1, "a": 0.0 if family == "NonStationaryErf" else 1.0, "C": 0.0}
    for flag, value in zip(flags[::2], flags[1::2]):
        key = flag.lstrip("-")
        p[key] = int(value) if key == "n" else float(value)
    return p


def build_reference(log=print):
    """All seed-independent oracle values the workload checks use."""
    from workloads import DEFAULT_T, RESIDUAL_GRIDS, _grid, oracle_key

    ts = [float(t) for t in DEFAULT_T]
    me = _params("MainExample", ())
    er = _params("NonStationaryErf", ())
    sweeps = {
        oracle_key("lp", "MainExample", 3, 1.0): lambda t: lp_main(3, 0.1, 1.0, 1, t),
        oracle_key("lp", "MainExample", 3, 2.0): lambda t: lp_main(3, 0.1, 1.0, 2, t),
        oracle_key("lp", "SelfSimilar", 3, 1.0): lambda t: lp_selfsim(3, 0.1, 1.0, 1, t),
        oracle_key("lp", "SelfSimilar", 3, 2.0): lambda t: lp_selfsim(3, 0.1, 1.0, 2, t),
        oracle_key("distance", "NonStationaryErf", 3, 1.0): lambda t: erf_distance(0.1, 1, t),
        oracle_key("distance", "NonStationaryErf", 3, 2.0): lambda t: erf_distance(0.1, 2, t),
        oracle_key("linf", "MainExample", 3, 0.0): lambda t: linf("MainExample", me, t),
        oracle_key("linf", "NonStationaryErf", 3, 0.0): lambda t: linf("NonStationaryErf", er, t),
    }
    norms = {}
    for key, fn in sweeps.items():
        log(f"  {key}")
        norms[key] = [float(fn(t)) for t in ts]
    residual = {}
    for family, (flags, grid, tgrid) in RESIDUAL_GRIDS.items():
        log(f"  residual {family}")
        r_lo, r_hi, nr = _grid(grid)
        t_lo, t_hi, k = _grid(tgrid)
        lower, upper = fd_residual_bound(family, _params(family, flags), r_lo, r_hi, nr,
                                         [float(t) for t in np.geomspace(t_lo, t_hi, k)])
        residual[family] = {"lower": lower, "upper": upper}
    return {"generator": "python3 perfbench/oracle.py",
            "mpmath": mp.__version__, "dps": DPS,
            "norms": norms, "residual": residual}


def main():
    ref = build_reference(log=lambda msg: print(msg, file=sys.stderr))
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)


if __name__ == "__main__":
    main()
