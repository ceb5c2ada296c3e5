"""Measure norm decay exponents against their closed-form predictions.

Two families have pure power-law time scaling and give clean log-log fits:
the self-similar family, where ||u(t)||_p scales exactly like
t^((n - p) / (2 p)), and the distance from the erf-based flow to its
stationary limit, which decays like t^((3 - p) / (2 p)) for p < 3.  The
interior-layer example is excluded: its norms carry log t corrections and
the fitter correctly refuses a power-law fit over short t spans.

Usage: python3 scripts/decay_study.py [--t-hi 1e-2] [--t-lo 1e-6] [--k 9]
"""

import argparse
import sys

import numpy as np

from cole_lab import norms as N
from cole_lab.solutions import Params, nonstationary_erf, self_similar


def _fit(family, spec, t_grid):
    rep = N.norm_sweep(family, spec, t_grid)
    return N.decay_fit(rep)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t-hi", type=float, default=1e-2)
    ap.add_argument("--t-lo", type=float, default=1e-6)
    ap.add_argument("--k", type=int, default=9, help="points per fit")
    ap.add_argument("--mu", type=float, default=0.1)
    args = ap.parse_args(argv)
    t_grid = np.geomspace(args.t_hi, args.t_lo, args.k)

    print(f"{'case':<34} {'p':>4} {'slope':>12} {'expected':>12} "
          f"{'|resid|':>10}")
    worst = 0.0
    for n, p in [(3, 1.0), (3, 2.0), (4, 2.0), (5, 2.0), (5, 1.0)]:
        fam = self_similar(Params(n=n, mu=args.mu, a=1.0))
        fit = _fit(fam, N.NormSpec("lp", p=p), t_grid)
        expected = (n - p) / (2.0 * p)
        worst = max(worst, abs(fit.slope - expected))
        print(f"{'self-similar L^p n=' + str(n):<34} {p:>4g} "
              f"{fit.slope:>12.8f} {expected:>12.8f} "
              f"{fit.max_log_residual:>10.2e}")

    fam = nonstationary_erf(args.mu)
    for p in (1.0, 2.0):
        fit = _fit(fam, N.NormSpec("distance", p=p), t_grid)
        expected = (3.0 - p) / (2.0 * p)
        worst = max(worst, abs(fit.slope - expected))
        print(f"{'erf flow vs stationary limit':<34} {p:>4g} "
              f"{fit.slope:>12.8f} {expected:>12.8f} "
              f"{fit.max_log_residual:>10.2e}")

    print(f"worst |slope - expected| = {worst:.3e}")
    return 0 if worst < 1e-6 else 1


if __name__ == "__main__":
    sys.exit(main())
