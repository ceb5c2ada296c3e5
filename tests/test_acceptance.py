"""Acceptance battery: each criterion runs once and must report PASS.

Criteria 2 and 6 currently report FAIL.  The main example family carries
logarithmic corrections to its pure power-law time scaling, so the measured
L^p ratios and Sobolev slopes land outside the stated tolerances.  The
checks are kept at face value rather than loosened; see the report lines
attached to the assertion for the measured numbers.
"""

import pytest

from cole_lab import acceptance, norms
from cole_lab.solutions import Params, main_example


@pytest.mark.parametrize(
    "criterion",
    acceptance.CRITERIA,
    ids=[f"criterion_{i}" for i in range(1, len(acceptance.CRITERIA) + 1)],
)
def test_criterion(criterion):
    res = criterion()
    detail = "\n".join(res.lines)
    assert res.passed, f"criterion {res.index}: {res.title}\n{detail}"


@pytest.mark.parametrize("plan,bound,n,p", [
    (norms._grad_plan, norms.grad_bound_integrals, 5, 2.0),
    (norms._grad_plan, norms.grad_bound_integrals, 3, 2.0),
    (norms._hess_plan, norms.hess_bound_lp, 7, 2.0),
    (norms._hess_plan, norms.hess_bound_lp, 3, 1.0),
])
def test_criterion_6_sweeps_are_the_per_t_calls(plan, bound, n, p, quad_work):
    # each of criterion 6's series is one lockstep sweep over its seven t,
    # each point with the bits of its per-t call, whose integrals run alone
    fam = main_example(Params(n=n, mu=0.1, a=1.0))
    points = norms._each_t(plan, norms._bound_integrand)(fam, p, acceptance._T7)
    assert quad_work.alone == 0
    integrals, panels = quad_work.integrals, quad_work.panels
    want = [bound(fam, p, t) for t in acceptance._T7]
    # the per-t calls run the same integrals alone, panel for panel
    assert quad_work.alone == integrals
    assert (quad_work.integrals, quad_work.panels) == (2 * integrals, 2 * panels)
    assert [(v.hex(), e.hex(), flag) for v, e, flag in points] == [
        (v.hex(), e.hex(), "ok") for v, e in want]


@pytest.mark.parametrize("index,integrals,panels,calls", [(6, 70, 731, 30),
                                                          (8, 74, 731, 25)])
def test_criterion_quadrature_work(index, integrals, panels, calls, quad_work):
    # criteria 6 and 8 run their integrals in lockstep: 369 and 375 integrand
    # calls when each integral ran alone
    assert acceptance.CRITERIA[index - 1]().index == index
    assert (quad_work.integrals, quad_work.panels, quad_work.alone) == (integrals, panels, 0)
    assert quad_work.calls <= calls
