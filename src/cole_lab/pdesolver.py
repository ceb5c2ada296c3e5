"""Radial finite-difference marcher for u_t + u u_r = mu (u_rr + (n-1)(u_r/r
- u/r^2)), used as an independent oracle against the closed forms.

Scope is deliberately narrow: short horizons (t1 <= 5 t0), moderate grids
(nr <= 8192), Dirichlet data on both ends.  The solver confirms the families
by manufactured-solution convergence; it does not (and cannot) probe
non-uniqueness, since its boundary data selects one solution.

Schemes:
- "cn-upwind" (default): Crank-Nicolson diffusion and forward-Euler
  first-order upwind advection; O(h + dt) error.
- "cn-central": Crank-Nicolson diffusion and second-order central
  advection, advanced by Adams-Bashforth 2, 3/2 A(u^m) - 1/2 A(u^(m-1)),
  after a forward-Euler first step: the CNAB IMEX scheme (Ascher, Ruuth
  and Wetton, SIAM J. Numer. Anal. 32, 1995), O(h^2 + dt^2) error.  It
  stores one vector and costs no extra solve.  Used by the convergence
  study.
- "rk2": fully explicit Heun with upwind advection, O(h + dt^2) error; the
  stability-limited cross-check of the implicit solver.

Step rule (SolverConfig.step_size): one rule for every scheme, Courant
number dt a / h <= cfl for a speed a: a = mu / h (dt <= cfl h^2 / mu) for
cn-upwind and rk2, a = max(max|u(t0)|, mu / (r_max - r_min)) for
cn-central.  cn-central's dt ~ h then gives clean ratio-4 behavior under
h-halving (second order in h and dt) while the step count only doubles,
and the floor mu / L keeps a diffusion-dominated march from taking a few
steps of diffusion number in the thousands.  A stack shares one step, from
its largest |u(t0)|.  Past 2^20 steps every scheme raises StabilityError
before it allocates anything.  march checks the advective CFL number
dt max|u| / h <= 1 on every step, with the current amplitude.

Linear algebra: the Crank-Nicolson matrix is constant, so it is LU-factored
once per configuration (no pivoting) and each step runs the two triangular
sweeps as first-order linear recurrences by recursive doubling (Stone 1973),
at most ceil(log2 N) vector passes each with multipliers precomputed at
factor time.  Multipliers below eps^2 = 2^-104 are flushed to 0 and the
passes stop once all are 0: a dropped term |M| |y_(i-2s)| is at most
eps^2 max|y|, far below one rounding of the largest entry, so the solve
stays accurate in max norm while the diffusive decay of the multipliers
(strides >= 64 in criterion 9's march at nr = 512) removes the
longer-stride passes.
numpy is the only dependency.

Boundary data: march evaluates each Dirichlet end of a family once, over
the array of all step times t0 + (m+1) dt, and steps through those traces
by index; a left end at r_min = 0 is held at u = 0, and held
(array-profile) ends are constant sequences.

Stacking: march also takes a list of k initial states under one
configuration and advances them as the diagonal blocks of one system.  The
k node vectors of N = nr + 1 entries lie end to end in one flat array, so
the interior rows of the step form one vector of k N - 2 entries in which
block b owns rows b N .. b N + N - 3.  The two rows between blocks (the
right end of block b and the left end of block b + 1) are identity rows
with no coupling, and a block's first sub-diagonal and last super-diagonal
entries are 0, so the LU factor and every doubling multiplier restart at
each seam: the seam pivots are 1, the multipliers across it are 0, and each
block gets the same bits as a march of its own that takes the stack's step.
The Dirichlet terms go into rows 0::N and N-3::N, and the seam nodes are
written from the boundary data after each step.  The stack stays flat
because numpy's per-call cost dominates at these sizes: a flat multiply or
doubling pass over 2 N entries costs about what one over N does, while a
strided (k, N) layout with broadcast coefficients was measured no faster
than k separate marches.

Origin handling: for origin-regular data the r=0 node carries u = 0 exactly
(the radial component of a continuous vector field vanishes at 0), so the
singular (n-1)(u_r/r - u/r^2) terms are never evaluated there; their
finiteness as r -> 0 is established separately by the origin-limit checks in
the residual module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .solutions import SolutionFamily
from .specfun import require

__all__ = [
    "SCHEMES",
    "StabilityError",
    "SolverConfig",
    "SolverRun",
    "BumpProfile",
    "MinPrincipleReport",
    "ConvergenceReport",
    "march",
    "convergence_study",
    "min_principle_experiment",
]

SCHEMES = ("cn-upwind", "cn-central", "rk2")
_FLUSH = 2.0 ** -104   # eps^2: doubling multipliers below this are dropped
# the step count grows with mu / h^2 or the amplitude, and march holds a few
# arrays of n_steps entries per block
_MAX_STEPS = 2 ** 20


class StabilityError(RuntimeError):
    """Runtime CFL violation or NaN during the march."""


@dataclass(frozen=True)
class SolverConfig:
    n: int
    mu: float
    r_max: float
    nr: int
    t0: float
    t1: float
    cfl: float = 0.25
    scheme: str = "cn-upwind"
    r_min: float = 0.0

    def __post_init__(self):
        require((self.n >= 2, "n must be >= 2"),
                (self.mu > 0.0, "mu must be positive"),
                (0.0 < self.t0 < self.t1, "need t1 > t0 > 0"),
                (self.t1 <= 5.0 * self.t0, "oracle horizon limited to t1 <= 5 t0"),
                (16 <= self.nr <= 8192, "nr must be in [16, 8192]"),
                (0.0 <= self.r_min < self.r_max, "need 0 <= r_min < r_max"),
                (self.scheme in SCHEMES, f"scheme must be one of {SCHEMES}"),
                (0.0 < self.cfl <= 1.0, "cfl must be in (0, 1]"),
                # explicit diffusion number 4 mu dt / h^2 = 4 cfl must stay <= 2
                (self.scheme != "rk2" or self.cfl <= 0.5, "rk2 requires cfl <= 0.5"))

    def radii(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.nr + 1)

    def step_size(self, amp: float) -> tuple:
        """(dt, n_steps) over [t0, t1] for a profile of amplitude amp =
        max|u(t0)|, with Courant number dt a / h <= cfl on the node spacing
        h march checks.  The speed a is mu / h for cn-upwind and rk2 (a
        diffusion number mu dt / h^2) and max(amp, mu / (r_max - r_min))
        for cn-central.  Raises StabilityError past _MAX_STEPS steps."""
        r = self.radii()
        h = r[1] - r[0]
        if self.scheme == "cn-central":
            a = max(amp, self.mu / (self.r_max - self.r_min))
        else:
            a = self.mu / h
        span = self.t1 - self.t0
        steps = span * a / (self.cfl * h)
        if not steps <= _MAX_STEPS:
            raise StabilityError(f"the step bound needs {steps:.3g} steps, "
                                 f"more than {_MAX_STEPS}")
        n_steps = max(1, math.ceil(steps))
        if span / n_steps * a / h > self.cfl:   # dt rounded past the bound
            n_steps += 1
        return span / n_steps, n_steps


@dataclass(frozen=True)
class SolverRun:
    """One march; a stacked march puts the block axis first on final
    (k, nr + 1) and on the histories (k, n_steps)."""

    config: SolverConfig
    radii: np.ndarray
    final: np.ndarray
    n_steps: int
    dt: float
    max_history: np.ndarray   # per-step max over the full grid, length n_steps
    min_history: np.ndarray


@dataclass(frozen=True)
class BumpProfile:
    """Downward Gaussian bump -depth (phi - ell) where phi is a Gaussian at
    (center, width) and ell the straight line through phi's endpoint values,
    so the profile vanishes exactly at r_min and r_max."""

    depth: float = 1.0
    center: float = 1.0
    width: float = 0.2

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        phi = np.exp(-(((r - self.center) / self.width) ** 2))
        lam = (r - r[0]) / (r[-1] - r[0])
        ell = phi[0] * (1.0 - lam) + phi[-1] * lam
        return -self.depth * (phi - ell)


@dataclass(frozen=True)
class MinPrincipleReport:
    min_history: np.ndarray
    initial_min: float
    eps_h: float
    max_drop: float            # worst single-step decrease of the grid minimum
    rhs_positive_fraction: float
    passed: bool


@dataclass(frozen=True)
class ConvergenceReport:
    scheme: str
    nr_values: tuple
    errors: tuple              # max-norm error vs the exact family at t1
    ratios: tuple              # errors[i] / errors[i+1] under h-halving
    observed_orders: tuple     # log2 of the ratios


def _doubling_passes(a: np.ndarray) -> list:
    """Recursive-doubling passes for x_i = c_i + a_i x_{i-1}, x_0 = c_0.

    Pass k (stride s = 2^k) does c[s:] += m_k * c[:-s]; after it, c_i holds
    x_i for i < 2s.  m_0 = a[1:], and m_{k+1} is the product of the
    multipliers of two adjacent blocks.  Multipliers below eps^2 = 2^-104
    in magnitude are flushed to 0, and the passes stop once every
    multiplier is 0.  A flushed product drops a term of size at most
    eps^2 max|x| from x_i, so the result stays within far less than one
    rounding of max|x| of the exact recurrence.
    """
    passes = []
    prod = np.concatenate(([0.0], a[1:]))
    s = 1
    while s < prod.size:
        m = prod[s:].copy()
        if not np.all(np.isfinite(m)):
            raise StabilityError(f"non-finite doubling multiplier at stride {s}")
        m[np.abs(m) < _FLUSH] = 0.0
        if not m.any():
            break
        passes.append((s, m))
        with np.errstate(over="ignore", invalid="ignore"):   # checked next pass
            prod[s:] = m * prod[:-s]
        s *= 2
    return passes


class _Tridiagonal:
    """Solver for one constant tridiagonal matrix, factored once.

    Row i is sub[i] x[i-1] + diag[i] x[i] + sup[i] x[i+1] (sub[0] and sup[-1]
    unused).  LU without pivoting gives pivots d and multipliers l; solve
    runs the forward sweep y_i = b_i - l_i y_{i-1} and the backward sweep
    x_i = y_i/d_i - (sup_i/d_i) x_{i+1}, each by recursive doubling.
    Raises StabilityError when a pivot is zero or a pivot or multiplier is
    not finite, where a solve would return garbage.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
        sub_, diag_, sup_ = sub.tolist(), diag.tolist(), sup.tolist()
        d, ell = [], [0.0]
        for i, pivot in enumerate(diag_):
            if i:
                ell.append(sub_[i] / d[-1])
                pivot -= ell[-1] * sup_[i - 1]
            if pivot == 0.0 or not math.isfinite(pivot):
                raise StabilityError(f"pivot {pivot} in row {i} of the tridiagonal factor")
            d.append(pivot)
        self.d = np.array(d)
        self.forward = _doubling_passes(-np.array(ell))
        back = np.concatenate((-sup[:-1] / self.d[:-1], [0.0]))
        # the backward sweep is a forward one on reversed indices
        self.backward = [(s, m[::-1].copy())
                         for s, m in _doubling_passes(back[::-1])]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b; b is overwritten."""
        for s, m in self.forward:
            b[s:] += m * b[:-s]
        b /= self.d
        for s, m in self.backward:
            b[:-s] += m * b[s:]
        return b


class _Stepper:
    """One configured time step of a stack of k blocks (see the module
    docstring); shared by march and the replay in min_principle_experiment
    so both advance with identical arithmetic.

    step is (dt, n_steps) from cfg.step_size.  left and right hold the
    Dirichlet value of each block's ends at the end of every step: arrays
    of shape (n_steps, k), indexed by the step number (None for one block
    held at 0, when only the operator and the matrix are wanted).  A
    cn-central stepper keeps the last step's advection for AB2, so it
    advances one march, from step 0 on."""

    def __init__(self, cfg: SolverConfig, step: tuple, left, right):
        self.cfg = cfg
        self.dt, self.n_steps = step
        self.last_advection = None
        if left is None:
            left = right = np.zeros((self.n_steps, 1))
        k = left.shape[1]
        n_nodes = cfg.nr + 1
        r = cfg.radii()
        self.h = r[1] - r[0]
        ri = r[1:-1]
        mu, n = cfg.mu, cfg.n
        lo = mu * (1.0 / self.h**2 - (n - 1) / (2.0 * self.h * ri))
        di = mu * (-2.0 / self.h**2 - (n - 1) / ri**2)
        up = mu * (1.0 / self.h**2 + (n - 1) / (2.0 * self.h * ri))

        def stack(rows, seam=0.0):
            # k copies of one block's interior rows, two seam rows between
            return np.tile(np.append(rows, (seam, seam)), k)[:-2]

        def per_end(at_left, at_right):
            # (n_steps, 2k): each block's left and right value, in node order
            return np.stack((at_left, at_right), axis=-1).reshape(len(at_left), 2 * k)

        self.lo, self.di, self.up = stack(lo), stack(di), stack(up)
        offsets = np.arange(k)[:, None] * n_nodes
        self.ends = (offsets + (0, n_nodes - 1)).ravel()
        self.end_values = per_end(left, right)
        if cfg.scheme != "rk2":
            # I - dt/2 L, the implicit half of Crank-Nicolson; a block's
            # first and last rows do not reach across its ends
            sub, sup = -0.5 * self.dt * lo, -0.5 * self.dt * up
            sub[0] = sup[-1] = 0.0
            self.matrix = _Tridiagonal(stack(sub),
                                       stack(1.0 - 0.5 * self.dt * di, 1.0),
                                       stack(sup))
            # the Dirichlet terms of every step, in interior rows 0::N and
            # N-3::N
            self.end_rows = (offsets + (0, n_nodes - 3)).ravel()
            self.end_terms = per_end(0.5 * self.dt * lo[0] * left,
                                     0.5 * self.dt * up[-1] * right)

    def apply_operator(self, u: np.ndarray) -> np.ndarray:
        return self.lo * u[:-2] + self.di * u[1:-1] + self.up * u[2:]

    def advection(self, u: np.ndarray) -> np.ndarray:
        if self.cfg.scheme == "cn-central":
            ur = (u[2:] - u[:-2]) / (2.0 * self.h)
        else:
            back = (u[1:-1] - u[:-2]) / self.h
            fwd = (u[2:] - u[1:-1]) / self.h
            ur = np.where(u[1:-1] >= 0.0, back, fwd)
        return u[1:-1] * ur

    def _ends(self, u: np.ndarray, m: int) -> np.ndarray:
        """u with every block's two ends (the seam nodes too) set to their
        Dirichlet values after step m."""
        u[self.ends] = self.end_values[m]
        return u

    def step(self, u: np.ndarray, m: int) -> np.ndarray:
        """u after step m, i.e. at t0 + (m+1) dt."""
        new = np.empty_like(u)
        interior = new[1:-1]
        if self.cfg.scheme == "rk2":
            k1 = self.apply_operator(u) - self.advection(u)
            mid = np.empty_like(u)
            np.add(u[1:-1], self.dt * k1, out=mid[1:-1])
            self._ends(mid, m)
            k2 = self.apply_operator(mid) - self.advection(mid)
            np.add(u[1:-1], 0.5 * self.dt * (k1 + k2), out=interior)
        else:
            adv = self.advection(u)
            if self.cfg.scheme == "cn-central":
                # AB2, 3/2 A(u^m) - 1/2 A(u^(m-1)), after a forward-Euler step 0
                last, self.last_advection = self.last_advection, adv
                if m:
                    adv = 1.5 * adv - 0.5 * last
            np.subtract(u[1:-1] + 0.5 * self.dt * self.apply_operator(u),
                        self.dt * adv, out=interior)
            interior[self.end_rows] += self.end_terms[m]
            self.matrix.solve(interior)
        return self._ends(new, m)


def _initial_and_boundaries(cfg: SolverConfig, members: list, r: np.ndarray):
    """The stack's u(t0) on r, its step (dt, n_steps) from max|u(t0)| over
    every block, and the per-step left and right Dirichlet values of each
    block as (n_steps, k) arrays."""
    u0 = []
    for initial in members:
        if isinstance(initial, SolutionFamily):
            p = initial.params
            require((p.n == cfg.n and p.mu == cfg.mu,
                     "family (n, mu) disagree with the solver config"),
                    (r[0] > 0.0 or initial.origin_regular, "singular family needs r_min > 0"))
            u0.append(np.asarray(initial.u(cfg.t0, r), dtype=float))
        else:
            u0.append(np.asarray(initial, dtype=float))
            require((u0[-1].shape == r.shape, f"initial profile must have {r.size} nodes"))
    u0 = np.concatenate(u0)
    require((np.all(np.isfinite(u0)), "initial profile contains non-finite values"))
    dt, n_steps = step = cfg.step_size(float(np.max(np.abs(u0))))
    # the step times cfg.t0 + (m + 1) * dt, rounded as in Python floats
    times = cfg.t0 + np.arange(1.0, n_steps + 1.0) * dt
    left, right = [], []
    for initial, block in zip(members, u0.reshape(len(members), r.size)):
        if isinstance(initial, SolutionFamily):
            # a left end at the origin is held at u = 0
            left.append(np.zeros(n_steps) if r[0] == 0.0 else initial.u(times, r[0]))
            right.append(initial.u(times, r[-1]))
        else:
            left.append(np.full(n_steps, block[0]))
            right.append(np.full(n_steps, block[-1]))
    return u0, step, np.column_stack(left), np.column_stack(right)


def march(cfg: SolverConfig,
          initial: Union[SolutionFamily, np.ndarray, Sequence]) -> SolverRun:
    """March the radial equation from t0 to t1 and record extrema history.

    `initial` is either a SolutionFamily (sampled at t0, Dirichlet data taken
    from the family at both ends, or 0 at a left end r_min = 0) or a profile
    array on cfg.radii() (endpoint values held fixed in time).  A list or
    tuple of them is marched as one stack (see the module docstring), and
    the run then puts the block axis first on final and the histories; the
    blocks share one step, and each matches a march of its own with that
    step bit for bit.  Raises StabilityError on NaN or when the advective
    CFL number dt max|u| / h exceeds 1 mid-run.
    """
    stacked = isinstance(initial, (list, tuple))
    members = list(initial) if stacked else [initial]
    require((members, "nothing to march: the stack is empty"))
    r = cfg.radii()
    u0, step, left, right = _initial_and_boundaries(cfg, members, r)
    stepper = _Stepper(cfg, step, left, right)
    dt, n_steps = step

    u = u0
    starts = np.arange(0, u.size, r.size)
    max_hist = np.empty((n_steps, starts.size))
    min_hist = np.empty((n_steps, starts.size))
    hi, lo = float(u.max()), float(u.min())
    # an overflow shows as a non-finite extremum, caught after the step
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(n_steps):
            amp = max(hi, -lo)
            if dt * amp / stepper.h > 1.0:
                raise StabilityError(
                    f"advective CFL {dt * amp / stepper.h:.3g} > 1 at step {m}")
            u = stepper.step(u, m)
            his = np.maximum.reduceat(u, starts, out=max_hist[m]).tolist()
            los = np.minimum.reduceat(u, starts, out=min_hist[m]).tolist()
            # max and min propagate NaN, so they also detect non-finite values
            if not all(map(math.isfinite, his + los)):
                raise StabilityError(f"non-finite value at step {m + 1}")
            hi, lo = max(his), min(los)
    final = u.reshape(starts.size, r.size)
    max_hist, min_hist = max_hist.T.copy(), min_hist.T.copy()
    if not stacked:
        final, max_hist, min_hist = final[0], max_hist[0], min_hist[0]
    return SolverRun(config=cfg, radii=r, final=final, n_steps=n_steps, dt=dt,
                     max_history=max_hist, min_history=min_hist)


def convergence_study(cfg: SolverConfig, cases: Sequence) -> tuple:
    """Manufactured-solution test: for each case (family, nr_values), march
    the family from t0, compare to it at t1 in max norm for each nr, and
    report h-halving error ratios; one ConvergenceReport per case.

    Each distinct nr is marched once, as one stack of every family, so that
    at each nr all families share one step; each case reports only the nr
    it lists.  cn-central shows ratios near 4 (order 2); cn-upwind and rk2
    carry the first-order upwind advection error, ratios near 2."""
    cases = [(s, tuple(int(nr) for nr in nrs)) for s, nrs in cases]
    families = [s for s, _ in cases]
    errors = {}
    for nr in sorted({nr for _, nrs in cases for nr in nrs}):
        run = march(replace(cfg, nr=nr), families)
        for i, ((fam, nrs), final) in enumerate(zip(cases, run.final)):
            if nr in nrs:
                exact = np.asarray(fam.u(cfg.t1, run.radii))
                errors[i, nr] = float(np.max(np.abs(final - exact)))
    reports = []
    for i, (_, nrs) in enumerate(cases):
        errs = tuple(errors[i, nr] for nr in nrs)
        ratios = tuple(a / b for a, b in zip(errs[:-1], errs[1:]))
        reports.append(ConvergenceReport(
            scheme=cfg.scheme, nr_values=nrs, errors=errs, ratios=ratios,
            observed_orders=tuple(math.log2(max(rho, 1e-300)) for rho in ratios)))
    return tuple(reports)


def min_principle_experiment(cfg: SolverConfig,
                             bump: BumpProfile = BumpProfile()) -> MinPrincipleReport:
    """Evolve a negative bump and check the discrete minimum never decreases
    beyond eps_h = h^2 max|D^2 u0|, and that at the discrete minimum (while
    it is genuinely negative) the full right-hand side mu(u_rr +
    (n-1)(u_r/r - u/r^2)) is positive, which is what forbids the decrease.
    """
    r = cfg.radii()
    u0, step, left, right = _initial_and_boundaries(cfg, [bump.evaluate(r)], r)
    stepper = _Stepper(cfg, step, left, right)
    h = stepper.h
    eps_h = h * h * float(np.max(np.abs(u0[:-2] - 2.0 * u0[1:-1] + u0[2:]) / h**2))

    u = u0
    min_hist = np.empty(stepper.n_steps)
    positives = total = 0
    threshold = -10.0 * eps_h
    for m in range(stepper.n_steps):
        i = int(np.argmin(u))
        if 0 < i < len(r) - 1 and u[i] < threshold:
            rhs = (stepper.lo[i - 1] * u[i - 1] + stepper.di[i - 1] * u[i]
                   + stepper.up[i - 1] * u[i + 1]
                   - u[i] * (u[i + 1] - u[i - 1]) / (2.0 * h))
            total += 1
            positives += int(rhs > 0.0)
        u = stepper.step(u, m)
        if not np.all(np.isfinite(u)):
            raise StabilityError(f"non-finite value at step {m + 1}")
        min_hist[m] = u.min()

    max_drop = float(-np.diff(np.concatenate(([u0.min()], min_hist))).min())
    frac = positives / total if total else 1.0
    return MinPrincipleReport(min_history=min_hist,
                              initial_min=float(u0.min()), eps_h=eps_h,
                              max_drop=max_drop, rhs_positive_fraction=frac,
                              passed=bool(max_drop <= eps_h and frac == 1.0))
