"""The benchmark's layer tracer still finds what it wraps.

perfbench/tracer.py wraps the public functions of each cole_lab module, the
family constructors, acceptance.CRITERIA and cli._emit from outside the
package.  A rename or a refactor that routes work around those names would
leave the benchmark's per-layer table at zero without failing anything, so
this test runs a few small commands under the tracer and requires every
layer it reads to have seen work.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from cole_lab import acceptance, cli

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

_ARGV = [
    ["norms", "--family", "MainExample", "--kind", "lp", "--t-grid", "1e-2:1e-3:2"],
    # the tracer counts the integrals that run alone, as these do
    ["norms", "--family", "SelfSimilar", "--kind", "lp", "--t-grid", "1e-2:1e-3:2"],
    ["norms", "--family", "MainExample", "--kind", "linf", "--t-grid", "1e-2:1e-3:2"],
    ["residual", "--family", "MainExample", "--grid", "1e-3:0.1:16",
     "--t-grid", "1e-2:1e-3:2"],
    ["residual", "--family", "SelfSimilar", "--form", "divergence",
     "--grid", "1e-4:7e-4:16", "--t-grid", "1e-5:5e-5:2"],
    ["solve", "--family", "MainExample", "--nr", "64"],
]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in _ARGV:
                assert cli.main(argv) == 0, argv
        assert acceptance.CRITERIA[2]().passed
    finally:
        tracer.uninstall()
    metrics = tracer_mod.layer_metrics(tracer.take())
    for name in ("norms.points", "quadrature.panels", "quadrature.integrand_calls",
                 "norms.linf_ms", "residual.points", "pdesolver.steps",
                 "solutions.vector_calls", "acceptance.c3_s", "cli.emit_ms"):
        assert metrics[name] > 0, name


def test_criterion_9_stacks_its_marches():
    # criterion 9 marches both families as one stack at nr = 64, 128, 256
    # and 512, each at the advective step of the main example's amplitude:
    # 43 + 87 + 173 + 347 steps, and one boundary trace per family and
    # march (the left end is held at 0)
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert acceptance.CRITERIA[8]().passed
    finally:
        tracer.uninstall()
    metrics = tracer_mod.layer_metrics(tracer.take())
    assert metrics["pdesolver.steps"] == 650
    assert metrics["pdesolver.boundary_calls"] == 8


def test_norm_sweep_work_counts(quad_work):
    # one round of the benchmark's norm-sweep workload: a rescaled or
    # reshaped integrand must not add refinement.  Each linf sweep is one
    # lockstep search over its grid, through the name norms.linf_norm, and
    # runs once per argv whatever its p list: 5 sweeps, not 9, where each
    # point made three one-point calls of u and u_r (195) and 1955 array calls.
    # The lp, grad_lp, hess_bound_lp and distance sweeps run their integrals
    # in lockstep (integrate_many): quad_work counts them as the tracer
    # counts integrate_semi_infinite, each member one integral with its own
    # panels and each call of the batched integrand one call: 83 calls, 1241
    # when each integral ran alone.  The tracer itself sees only the 6
    # integrals that run alone (the self-similar sweeps' references).
    path = _TRACER.parent / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads     # its dataclasses look it up
    spec.loader.exec_module(workloads)
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for op in workloads.NORM_SWEEP:
                assert cli.main(list(op.argv)) == op.rc, op.argv
    finally:
        tracer.uninstall()
        del sys.modules[spec.name]
    metrics = tracer_mod.layer_metrics(tracer.take())
    assert (quad_work.integrals, quad_work.panels) == (227, 2719)
    assert quad_work.calls <= 120
    assert metrics["quadrature.integrals"] == quad_work.alone == 6
    assert metrics["quadrature.panels"] == 41
    assert metrics["norms.points"] == 429
    assert metrics["norms.linf_ms"] > 0
    assert metrics["solutions.scalar_calls"] == 0
    assert metrics["solutions.vector_calls"] == 148
