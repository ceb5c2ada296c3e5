"""Shared fixtures."""

import dataclasses

import pytest

from cole_lab import quadrature


@dataclasses.dataclass
class QuadWork:
    """The quadrature's work: integrals and their panels (converged ones
    only, as perfbench counts them), calls of an integrand, and how many of
    the integrals ran alone through integrate_semi_infinite."""

    integrals: int = 0
    panels: int = 0
    calls: int = 0
    alone: int = 0

    def add(self, results):
        done = [r for r in results if isinstance(r, quadrature.QuadResult)]
        self.integrals += len(done)
        self.panels += sum(r.subdivisions for r in done)


@pytest.fixture
def quad_work(monkeypatch):
    """Counts the work of both quadrature entry points: each member of
    integrate_many is one integral with its own panels and each call of its
    batched integrand one integrand call; integrate_semi_infinite is the
    one-member case."""
    work = QuadWork()
    many, alone = quadrature.integrate_many, quadrature.integrate_semi_infinite

    def counted_many(F, members, *args, **kwargs):
        def counted(rows, r):
            work.calls += 1
            return F(rows, r)
        results = many(counted, members, *args, **kwargs)
        work.add(results)
        return results

    def counted_alone(integrand, *args, **kwargs):
        def counted(r):
            work.calls += 1
            return integrand.f(r)
        res = alone(dataclasses.replace(integrand, f=counted), *args, **kwargs)
        work.add([res])
        work.alone += 1
        return res

    monkeypatch.setattr(quadrature, "integrate_many", counted_many)
    monkeypatch.setattr(quadrature, "integrate_semi_infinite", counted_alone)
    return work
