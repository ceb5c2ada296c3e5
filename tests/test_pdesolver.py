"""Finite-difference marcher: config guards, manufactured-solution
convergence against the closed forms, scheme agreement, stability and
minimum-principle experiments."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from pytest import approx

from cole_lab import pdesolver
from cole_lab.pdesolver import (BumpProfile, SolverConfig, StabilityError,
                                _initial_and_boundaries, _Stepper,
                                _Tridiagonal, convergence_study, march,
                                min_principle_experiment)
from cole_lab.solutions import (Params, main_example, nonstationary_erf,
                                self_similar, stationary)
from cole_lab.specfun import DomainError

MAIN = main_example(Params(3, 0.1, a=1.0))
NST = nonstationary_erf(0.1)
ST = stationary(Params(3, 0.1, C=1.0))


def _cfg(**kw):
    base = dict(n=3, mu=0.1, r_max=0.3, nr=128, t0=1e-3, t1=2e-3)
    base.update(kw)
    return SolverConfig(**base)


def test_config_validation():
    bad = [
        dict(n=1), dict(mu=0.0), dict(t0=0.0), dict(t1=5e-4),
        dict(t1=6e-3),                       # beyond the 5 t0 horizon
        dict(nr=8), dict(nr=9000),
        dict(r_min=0.4),                     # r_min >= r_max
        dict(scheme="ftcs"), dict(cfl=0.0), dict(cfl=1.5),
        dict(scheme="rk2", cfl=0.6),
    ]
    for kw in bad:
        with pytest.raises(DomainError):
            _cfg(**kw)


def _amp(cfg, *members):
    """max|u(t0)| of a stack on cfg's grid, the amplitude march steps by."""
    return max(float(np.max(np.abs(m.u(cfg.t0, cfg.radii())))) for m in members)


def test_step_size_honors_diffusion_cfl():
    # cn-upwind and rk2 step by the diffusion number, whatever the amplitude
    for scheme in ("cn-upwind", "rk2"):
        cfg = _cfg(scheme=scheme)
        dt, n_steps = cfg.step_size(1.0)
        assert cfg.step_size(0.0) == cfg.step_size(1e6) == (dt, n_steps)
        h = cfg.r_max / cfg.nr
        assert dt * n_steps == approx(cfg.t1 - cfg.t0, rel=1e-12)
        assert dt <= cfg.cfl * h * h / cfg.mu * (1.0 + 1e-12)


def test_step_size_honors_advective_cfl():
    cfg = _cfg(scheme="cn-central")
    h = cfg.r_max / cfg.nr
    for amp in (1.0, 7.5, 1e3):
        dt, n_steps = cfg.step_size(amp)
        assert dt * n_steps == approx(cfg.t1 - cfg.t0, rel=1e-12)
        assert dt * amp / h <= cfg.cfl * (1.0 + 1e-12)
        assert (n_steps - 1) * cfg.cfl * h / amp < cfg.t1 - cfg.t0
    assert cfg.step_size(0.0) == (cfg.t1 - cfg.t0, 1)


def test_central_step_meets_the_bound_in_floats():
    # span / ceil(span amp / (cfl h)) can round to a dt just past the bound,
    # and at cfl = 1 march then raised on step 0 (Courant 1 + 2^-52)
    for r_max, nr, amp, f in itertools.product(
            (0.1, 0.3, 0.5, 1.0), (16, 128, 300, 1000), (0.1, 3.0, 5.0, 20.0),
            (2.0, 4.0, 5.0)):
        cfg = _cfg(r_max=r_max, nr=nr, t0=0.1, t1=0.1 * f, cfl=1.0, scheme="cn-central")
        r = cfg.radii()
        dt, _ = cfg.step_size(amp)
        assert dt * amp / (r[1] - r[0]) <= 1.0, (r_max, nr, amp, f)
    cfg = _cfg(r_max=0.1, nr=16, t0=0.1, t1=0.4, cfl=1.0, scheme="cn-central")
    assert march(cfg, np.full(17, 3.0)).n_steps == 145


def test_central_step_count_is_bounded():
    # the advective step count grows with the amplitude: at 1e9 it would be
    # 1.7e9 steps, whose arrays alone would take tens of GB
    cfg = _cfg(scheme="cn-central")
    with pytest.raises(StabilityError, match="more than"):
        march(cfg, 1e9 * np.sin(np.pi * cfg.radii() / cfg.r_max))


@pytest.mark.parametrize("scheme", pdesolver.SCHEMES)
def test_every_scheme_caps_its_step_count(scheme):
    # one cap for every scheme: at mu = 1e300 the diffusive rule asked
    # numpy for 3e303 steps, which it refused with a bare ValueError
    cfg = _cfg(scheme=scheme, mu=1e300)
    with pytest.raises(StabilityError, match="more than 1048576"):
        cfg.step_size(1.0)
    with pytest.raises(StabilityError, match="more than 1048576"):
        march(cfg, main_example(Params(3, 1e300)))
    assert _cfg(scheme=scheme, mu=1e3).step_size(1.0)[1] <= 2 ** 20


def test_central_step_resolves_diffusion():
    # cn-central's speed is at least mu / (r_max - r_min): at mu = 1e3 the
    # amplitude alone gave 6 steps of diffusion number ~500 and a max
    # error of 1.1e-3
    fam = main_example(Params(3, 1e3))
    cfg = _cfg(mu=1e3, nr=64, scheme="cn-central")
    run = march(cfg, fam)
    assert run.n_steps == 2845
    assert np.max(np.abs(run.final - fam.u(cfg.t1, run.radii))) <= 1e-6


def test_zero_initial_profile_is_fixed_point():
    cfg = _cfg(nr=64)
    run = march(cfg, np.zeros(65))
    assert np.all(run.final == 0.0)
    assert np.all(run.max_history == 0.0) and np.all(run.min_history == 0.0)


def test_central_scheme_is_second_order_on_main_example():
    (rep,) = convergence_study(_cfg(scheme="cn-central"), [(MAIN, [128, 256, 512])])
    assert all(3.5 <= rho <= 4.5 for rho in rep.ratios)


def test_central_scheme_is_second_order_in_time():
    # at a fixed h, halving dt quarters the error against a fine-dt march:
    # AB2 advection with Crank-Nicolson diffusion (forward-Euler advection
    # gave ratios 2.07 and 2.09 here)
    cfg = _cfg(nr=256, scheme="cn-central")
    ref = march(dataclasses.replace(cfg, cfl=1.0 / 64.0), MAIN).final
    errs = [float(np.max(np.abs(march(dataclasses.replace(cfg, cfl=c), MAIN).final - ref)))
            for c in (1.0, 0.5, 0.25)]
    ratios = [a / b for a, b in zip(errs[:-1], errs[1:])]
    assert all(abs(rho - 4.0) <= 0.3 for rho in ratios), ratios


def test_central_march_on_a_wide_domain_at_cfl_1():
    # dt = cfl h^2 / mu put the Courant number at 1.85 on step 0 here; the
    # advective step keeps it at cfl, and the layer peak never grows
    cfg = _cfg(r_max=2.0, nr=512, cfl=1.0, scheme="cn-central")
    run = march(cfg, MAIN)
    assert run.dt * _amp(cfg, MAIN) / (cfg.r_max / cfg.nr) <= 1.0
    assert run.max_history.max() <= _amp(cfg, MAIN)
    err = float(np.max(np.abs(run.final - MAIN.u(cfg.t1, run.radii))))
    assert err < 2.0        # dt = 0.25 h^2 / mu gave 2.009 at this grid


def test_central_scheme_is_second_order_on_erf_family():
    (rep,) = convergence_study(_cfg(scheme="cn-central"), [(NST, [64, 128, 256])])
    assert all(3.5 <= rho <= 4.5 for rho in rep.ratios)


def test_upwind_scheme_is_first_order():
    (rep,) = convergence_study(_cfg(scheme="cn-upwind"), [(MAIN, [128, 256, 512])])
    assert all(abs(o - 1.0) <= 0.3 for o in rep.observed_orders)


def test_rk2_agrees_with_implicit_upwind():
    # same advection discretization, different time integrators: the two
    # runs must sit much closer to each other than to the exact profile
    ra = march(_cfg(scheme="cn-upwind"), MAIN)
    rb = march(_cfg(scheme="rk2", cfl=0.25), MAIN)
    exact = MAIN.u(2e-3, ra.radii)
    ea = float(np.max(np.abs(ra.final - exact)))
    eb = float(np.max(np.abs(rb.final - exact)))
    gap = float(np.max(np.abs(ra.final - rb.final)))
    assert eb == approx(ea, rel=0.2)
    assert gap <= 0.1 * (ea + eb)


def test_stationary_profile_drifts_slowly():
    cfg = SolverConfig(n=3, mu=0.1, r_max=2.0, nr=256, t0=1.0, t1=2.0,
                       scheme="cn-central", r_min=0.1)
    run = march(cfg, ST)
    exact = ST.u(cfg.t1, run.radii)
    rel = np.max(np.abs(run.final - exact)) / np.max(np.abs(exact))
    assert rel < 0.01


def test_no_new_extrema_on_main_example():
    cfg = _cfg(t1=4e-3, nr=256, scheme="cn-central")
    run = march(cfg, MAIN)
    u0 = MAIN.u(cfg.t0, run.radii)
    assert run.max_history.max() <= float(np.max(u0)) + 1e-12
    assert np.all(np.diff(run.max_history) <= 1e-12)
    assert run.min_history.min() >= -1e-12
    assert run.n_steps == len(run.max_history)


def test_stability_error_on_violent_profile():
    cfg = _cfg(nr=64, r_max=2.0)
    profile = 100.0 * BumpProfile(depth=1.0, center=1.0, width=0.2).evaluate(
        cfg.radii())
    with pytest.raises(StabilityError):
        march(cfg, profile)


def test_march_input_validation():
    cfg = _cfg(nr=64)
    with pytest.raises(DomainError):
        march(cfg, np.zeros(64))            # needs nr+1 nodes
    bad = np.zeros(65)
    bad[10] = math.nan
    with pytest.raises(DomainError):
        march(cfg, bad)
    with pytest.raises(DomainError):
        march(cfg, main_example(Params(4, 0.1, a=1.0)))    # wrong n
    with pytest.raises(DomainError):
        march(cfg, main_example(Params(3, 0.2, a=1.0)))    # wrong mu
    with pytest.raises(DomainError):
        march(cfg, self_similar(Params(3, 0.1, a=1.0)))    # singular at r=0


def test_min_principle_default_bump():
    cfg = SolverConfig(n=3, mu=0.1, r_max=2.0, nr=256, t0=1e-3, t1=5e-3)
    rep = min_principle_experiment(cfg)
    assert rep.passed
    assert rep.initial_min == approx(-1.0, abs=0.05)
    assert rep.max_drop <= rep.eps_h
    assert rep.rhs_positive_fraction == 1.0
    # the minimum relaxes toward zero, never deepens
    assert rep.min_history[-1] > rep.initial_min


def test_min_principle_zero_bump():
    cfg = SolverConfig(n=3, mu=0.1, r_max=2.0, nr=256, t0=1e-3, t1=5e-3)
    rep = min_principle_experiment(cfg, BumpProfile(depth=0.0))
    assert rep.passed and rep.max_drop <= 0.0
    assert rep.rhs_positive_fraction == 1.0


def test_min_principle_stronger_diffusion_relaxes_faster():
    lo = min_principle_experiment(
        SolverConfig(n=3, mu=0.1, r_max=2.0, nr=256, t0=1e-3, t1=5e-3))
    hi = min_principle_experiment(
        SolverConfig(n=3, mu=1.0, r_max=2.0, nr=256, t0=1e-3, t1=5e-3))
    assert lo.passed and hi.passed
    assert hi.min_history[-1] > lo.min_history[-1]


# ---------------------------------------------------------------------------
# the factored Crank-Nicolson solve and the per-step boundary work
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 12, 100, 1000])
def test_tridiagonal_solve_matches_dense(n):
    # large n makes the rows near the origin far from diagonally dominant
    rng = np.random.default_rng(n)
    for cfl, nr, r_min in itertools.product((0.25, 1.0), (16, 512), (0.0, 0.05)):
        cfg = _cfg(n=n, nr=nr, cfl=cfl, scheme="cn-central", r_min=r_min)
        # the step a march of the main example takes on this grid, whose
        # diffusion number mu dt / h^2 reaches 4
        step = cfg.step_size(_amp(cfg, MAIN))
        ends = np.zeros((step[1], 1))
        st = _Stepper(cfg, step, ends, ends)
        half = 0.5 * st.dt
        dense = (np.diag(1.0 - half * st.di) + np.diag(-half * st.up[:-1], 1)
                 + np.diag(-half * st.lo[1:], -1))
        b = rng.standard_normal(nr - 1)
        want = np.linalg.solve(dense, b)
        got = st.matrix.solve(b.copy())
        rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert rel <= 1e-14, (cfl, nr, r_min, rel)


def test_tridiagonal_factor_rejects_breakdown():
    one, zero = np.ones(3), np.zeros(3)
    with pytest.raises(StabilityError):          # zero pivot: rows 0 and 1 equal
        _Tridiagonal(one, one, one)
    with pytest.raises(StabilityError):          # non-finite pivot
        _Tridiagonal(zero, np.array([1.0, math.nan, 1.0]), zero)
    with pytest.raises(StabilityError):          # doubling multiplier overflows
        _Tridiagonal(np.full(3, 1e200), one, zero)


@pytest.mark.parametrize("scheme", ["cn-central", "rk2"])
@pytest.mark.parametrize("r_min", [0.0, 0.05])
def test_one_boundary_evaluation_per_step(scheme, r_min):
    # each step time's boundary value is evaluated once, all of them in one
    # array-t call per Dirichlet end
    calls = []

    def u(t, r):
        calls.append((np.shape(t), np.ndim(r)))
        return MAIN.u(t, r)

    cfg = _cfg(scheme=scheme, r_min=r_min)
    run = march(cfg, dataclasses.replace(MAIN, u=u))
    # the initial profile u(t0, r), then one call over all step times for
    # the right end, and for the left end too unless it is held at 0
    ends = [((run.n_steps,), 0)] * (2 if r_min else 1)
    assert calls == [((), 1)] + ends


def test_boundary_traces_match_scalar_calls():
    cfg = _cfg(scheme="cn-central", r_min=0.05)
    stack = [MAIN, NST]
    _, (dt, n_steps), left, right = _initial_and_boundaries(cfg, stack, cfg.radii())
    # the stack's step comes from its largest amplitude
    assert (dt, n_steps) == cfg.step_size(_amp(cfg, *stack))
    times = [cfg.t0 + (m + 1) * dt for m in range(n_steps)]
    for block, fam in enumerate(stack):
        assert left[:, block].tolist() == [fam.u(t, cfg.r_min) for t in times]
        assert right[:, block].tolist() == [fam.u(t, cfg.r_max) for t in times]


def _c9_config(nr):
    # the criterion-9 convergence configuration
    return _cfg(nr=nr, scheme="cn-central")


def test_doubling_pass_count_at_nr512():
    # multipliers below eps^2 are flushed: 6 + 6 passes, not 9 + 9, at the
    # step of criterion 9's stacked march
    cfg = _c9_config(512)
    run = march(cfg, [MAIN, NST])
    ends = np.zeros((run.n_steps, 1))
    matrix = _Stepper(cfg, (run.dt, run.n_steps), ends, ends).matrix
    assert len(matrix.forward) <= 6 and len(matrix.backward) <= 6


def _doubling_passes_smallest_normal(a):
    """The recursive-doubling passes with the flush at the smallest normal
    double, the reference for the eps^2 flush."""
    passes = []
    prod = np.concatenate(([0.0], a[1:]))
    s = 1
    while s < prod.size:
        m = prod[s:].copy()
        m[np.abs(m) < np.finfo(float).tiny] = 0.0
        if not m.any():
            break
        passes.append((s, m))
        prod[s:] = m * prod[:-s]
        s *= 2
    return passes


@pytest.mark.parametrize("nr", [64, 512])
def test_eps2_flush_matches_smallest_normal_flush(nr, monkeypatch):
    cfg = _c9_config(nr)
    runs = [march(cfg, fam) for fam in (MAIN, NST)]
    monkeypatch.setattr(pdesolver, "_doubling_passes",
                        _doubling_passes_smallest_normal)
    for run, fam in zip(runs, (MAIN, NST)):
        ref = march(cfg, fam).final
        assert np.max(np.abs(run.final - ref)) <= 1e-28 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# stacked marches: k states as the diagonal blocks of one system
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _alone(cfg, member, amp, stack_amp):
    """A march of member alone that takes the step of a stack of amplitude
    stack_amp: cn-central's step follows the amplitude, so its cfl is
    scaled by the member's share; the other schemes' step does not."""
    if cfg.scheme == "cn-central":
        cfg = dataclasses.replace(cfg, cfl=cfg.cfl * amp / stack_amp)
    return march(cfg, member)


@pytest.mark.parametrize("scheme", ["cn-upwind", "cn-central", "rk2"])
@pytest.mark.parametrize("r_min", [0.0, 0.05])
def test_stacked_march_matches_separate_marches(scheme, r_min):
    cfg = _cfg(scheme=scheme, r_min=r_min)
    stacked = march(cfg, [MAIN, NST])
    assert stacked.final.shape == (2, cfg.nr + 1)
    assert stacked.max_history.shape == (2, stacked.n_steps)
    for block, fam in enumerate((MAIN, NST)):
        alone = _alone(cfg, fam, _amp(cfg, fam), _amp(cfg, MAIN, NST))
        assert stacked.n_steps == alone.n_steps and stacked.dt == alone.dt
        assert _same_bits(stacked.final[block], alone.final)
        assert _same_bits(stacked.max_history[block], alone.max_history)
        assert _same_bits(stacked.min_history[block], alone.min_history)


def test_stacked_profiles_match_separate_marches():
    cfg = _cfg(nr=64, r_max=2.0, scheme="cn-central")
    r = cfg.radii()
    # amplitudes 20, 10 and 6: the stack takes 3 steps, two of them AB2
    profiles = [20.0 * BumpProfile().evaluate(r), 10.0 * np.sin(np.pi * r / 2.0),
                BumpProfile(depth=6.0, center=0.7).evaluate(r)]
    stacked = march(cfg, profiles)
    assert stacked.n_steps > 1
    amps = [float(np.max(np.abs(p))) for p in profiles]
    for block, profile in enumerate(profiles):
        alone = _alone(cfg, profile, amps[block], max(amps))
        assert alone.dt == stacked.dt
        assert _same_bits(stacked.final[block], alone.final)
        assert _same_bits(stacked.max_history[block], alone.max_history)
        assert _same_bits(stacked.min_history[block], alone.min_history)


@pytest.mark.parametrize("scheme", ["cn-upwind", "cn-central", "rk2"])
def test_zero_block_beside_main_stays_zero(scheme):
    # nothing leaks across the seam rows, in either order
    cfg = _cfg(scheme=scheme)
    zero = np.zeros(cfg.nr + 1)
    for stack, block in (([zero, MAIN], 0), ([MAIN, zero], 1)):
        run = march(cfg, stack)
        assert np.all(run.final[block] == 0.0)
        assert np.all(run.max_history[block] == 0.0)
        assert np.all(run.min_history[block] == 0.0)
        assert _same_bits(run.final[1 - block], march(cfg, MAIN).final)


@pytest.mark.parametrize("scheme", ["cn-central", "rk2"])
def test_stacked_march_raises_on_one_unstable_block(scheme):
    if scheme == "rk2":
        # dt = cfl h^2 / mu puts the violent bump over the CFL bound at once
        cfg = _cfg(nr=64, r_max=2.0, scheme=scheme)
        violent = 100.0 * BumpProfile().evaluate(cfg.radii())
    else:
        # cn-central steps at Courant number cfl from max|u(t0)|, so only
        # an amplitude that grows trips it: central advection overshoots
        # at a jump, and at cfl = 1 the overshoot crosses the bound
        cfg = _cfg(nr=64, r_max=2.0, scheme=scheme, cfl=1.0)
        violent = np.where(cfg.radii() < 1.0, 100.0, 0.0)
    with pytest.raises(StabilityError):
        march(cfg, violent)
    with pytest.raises(StabilityError):
        march(cfg, [np.zeros(65), violent])


def test_stacked_march_input_validation():
    cfg = _cfg(nr=64)
    with pytest.raises(DomainError):
        march(cfg, [])
    with pytest.raises(DomainError):
        march(cfg, [MAIN, np.zeros(64)])                     # needs nr+1 nodes
    with pytest.raises(DomainError):
        march(cfg, [MAIN, main_example(Params(4, 0.1, a=1.0))])   # wrong n


def test_convergence_study_marches_each_nr_once(monkeypatch):
    # one stacked march of every case per distinct nr, so that all cases
    # share one step; each case reports only the nr it lists
    marched = []

    def spy(cfg, initial):
        marched.append((cfg.nr, len(initial)))
        return march(cfg, initial)

    monkeypatch.setattr(pdesolver, "march", spy)
    cfg = _cfg(scheme="cn-central")
    reports = convergence_study(cfg, [(MAIN, [128, 256]), (NST, [64, 128, 256])])
    assert marched == [(64, 2), (128, 2), (256, 2)]
    monkeypatch.undo()
    for rep, (fam, nrs) in zip(reports, ((MAIN, [128, 256]), (NST, [64, 128, 256]))):
        assert rep.nr_values == tuple(nrs)
        want = []
        for nr in nrs:
            at = dataclasses.replace(cfg, nr=nr)
            run = _alone(at, fam, _amp(at, fam), _amp(at, MAIN, NST))
            want.append(float(np.max(np.abs(run.final - fam.u(cfg.t1, run.radii)))))
        assert rep.errors == tuple(want)
        assert rep.ratios == tuple(a / b for a, b in zip(want[:-1], want[1:]))
