"""Layer tracer for the cole-lab benchmark.

The tracer records one span (name, start, end, parent, meta) around every
call into a public function of a cole_lab module, from outside the package:
it replaces module attributes while installed and puts the originals back
on uninstall, so nothing under src/ changes.  Because the family evaluators
are closures, the family constructors are wrapped wherever they are
imported, and each family they return gets traced copies of its
evaluators.  Spans stay in memory; `layer_metrics` derives the per-layer
table from them after a pass.

A layer is a module.  Self time of a span is its duration minus the
durations of its direct children (calls nest, one thread, so children never
overlap).
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time

import numpy as np

LAYERS = ("specfun", "quadrature", "solutions", "norms", "residual",
          "pdesolver", "acceptance", "cli")
FAMILY_CONSTRUCTORS = ("main_example", "self_similar", "stationary",
                       "nonstationary_erf", "cole_hopf")
EVALUATORS = ("u", "u_r", "u_rr", "u_t", "g", "g_r", "P", "W", "g0")
MARCH_NR = (128, 512)
_ABSENT = object()

# every per-layer metric and its unit, in the order BENCHMARK.json lists them
UNITS = {
    "pdesolver.steps": "count",
    "pdesolver.us_per_step_nr128": "us",
    "pdesolver.us_per_step_nr512": "us",
    "pdesolver.cell_steps_per_s": "1/s",
    "pdesolver.boundary_calls": "count",
    "pdesolver.self_ms": "ms",
    "quadrature.integrals": "count",
    "quadrature.panels": "count",
    "quadrature.integrand_calls": "count",
    "quadrature.us_per_panel": "us",
    "quadrature.self_ms": "ms",
    "norms.points": "count",
    "norms.ms_per_point": "ms",
    "norms.linf_ms": "ms",
    "norms.self_ms": "ms",
    "solutions.vector_calls": "count",
    "solutions.ns_per_point": "ns",
    "solutions.scalar_calls": "count",
    "solutions.us_per_scalar_call": "us",
    "solutions.self_ms": "ms",
    "specfun.calls": "count",
    "specfun.elements": "count",
    "specfun.ns_per_element": "ns",
    "specfun.us_per_scalar_call": "us",
    "specfun.self_ms": "ms",
    "residual.points": "count",
    "residual.analytic_ns_per_point": "ns",
    "residual.fd_us_per_point": "us",
    "residual.self_ms": "ms",
    **{f"acceptance.c{i}_s": "s" for i in range(1, 11)},
    "cli.emit_ms": "ms",
    "cli.bytes_out": "bytes",
    "cli.self_ms": "ms",
    "setup.scipy_linalg_ms": "ms",
    "setup.cole_lab_ms": "ms",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


# meta of specfun and evaluator spans: (elements, one-point call).  A call on
# one element counts as scalar whether it passes a float or a 1-element
# array: the families hand specfun 1-element arrays for a float r.

def _specfun_meta(args, kwargs, result):
    size = int(np.size(args[-1] if args else next(iter(kwargs.values()))))
    return (size, size == 1)


def _evaluator_meta(args, kwargs, result):
    # evaluators take (t, r); g0 takes t alone
    size = int(np.size(args[1] if len(args) > 1 else kwargs.get("r", 0.0)))
    return (size, size == 1)


def _march_meta(args, kwargs, result):
    return (int(result.config.nr), int(result.n_steps))


def _sweep_meta(args, kwargs, result):
    return len(result.t_grid)


def _residual_meta(args, kwargs, result):
    return (result.derivative_source, int(result.n_points))


_META = {
    "pdesolver.march": _march_meta,
    "norms.norm_sweep": _sweep_meta,
    "residual.radial_residual": _residual_meta,
    "residual.divergence_form_residual": _residual_meta,
}


class Tracer:
    """Installs traced wrappers into the cole_lab modules and collects spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, meta=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = meta(args, kwargs, result) if meta and result is not None else None
                spans[idx] = (name, start, end, parent, info)

        return traced

    def _wrap_integrator(self, fn):
        """integrate_semi_infinite: panels from QuadResult.subdivisions, and
        integrand calls counted through a wrapped Integrand.f."""
        calls = [0]

        def run(integrand, *args, **kwargs):
            calls[0] = 0
            f = integrand.f

            def counted(r):
                calls[0] += 1
                return f(r)
            return fn(dataclasses.replace(integrand, f=counted), *args, **kwargs)

        # integrals never nest, so calls[0] belongs to the call just ended
        return self.wrap("quadrature.integrate_semi_infinite", run,
                         lambda args, kwargs, result: (int(result.subdivisions), calls[0]))

    def _wrap_constructor(self, fn):
        def build(*args, **kwargs):
            fam = fn(*args, **kwargs)
            traced = {e: self.wrap(f"solutions.{e}", getattr(fam, e), _evaluator_meta)
                      for e in EVALUATORS if getattr(fam, e) is not None}
            return dataclasses.replace(fam, **traced)
        return build

    def _set(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr, _ABSENT)))
        setattr(namespace, attr, value)

    def install(self):
        mods = {layer: importlib.import_module(f"cole_lab.{layer}") for layer in LAYERS}
        replace = {}
        for layer, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if not inspect.isfunction(obj):
                    continue
                name = f"{layer}.{attr}"
                if layer == "solutions" and attr in FAMILY_CONSTRUCTORS:
                    wrapped = self._wrap_constructor(obj)
                elif name == "quadrature.integrate_semi_infinite":
                    wrapped = self._wrap_integrator(obj)
                elif layer == "specfun":
                    wrapped = self.wrap(name, obj, _specfun_meta)
                else:
                    wrapped = self.wrap(name, obj, _META.get(name))
                replace[id(obj)] = wrapped
        # rebind every module-level name that refers to a wrapped function,
        # which covers `from .x import f` as well as calls inside a module
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in replace:
                    self._set(mod, attr, replace[id(val)])
        acc, cli = mods["acceptance"], mods["cli"]
        self._set(acc, "CRITERIA", [self.wrap(f"acceptance.c{i}", fn)
                                    for i, fn in enumerate(acc.CRITERIA, start=1)])
        # cli writes output through _emit, and verify-all through print
        self._set(cli, "_emit", self.wrap("cli.emit", cli._emit))
        self._set(cli, "print", self.wrap("cli.emit", print))

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(namespace, attr)
            else:
                setattr(namespace, attr, original)

    def take(self):
        """Return the spans recorded so far and start a new list in place
        (the wrappers hold a reference to it)."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


# ---------------------------------------------------------------------------
# per-layer table
# ---------------------------------------------------------------------------

def layer_of(name):
    return name.split(".", 1)[0]


def _ratio(num, den, scale):
    return num / den * scale if den else 0.0


def layer_metrics(spans):
    """Per-layer counts and times of one traced pass (see README)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    self_s = {layer: 0.0 for layer in LAYERS}
    for s, d, c in zip(spans, dur, child):
        self_s[layer_of(s[0])] += d - c

    def parent_name(s):
        return spans[s[3]][0] if s[3] >= 0 else ""

    m = {}
    # pdesolver
    steps = cells = 0
    march_t = 0.0
    by_nr = {nr: [0.0, 0] for nr in MARCH_NR}
    march_idx = set()
    for i, (s, d) in enumerate(zip(spans, dur)):
        if s[0] == "pdesolver.march" and s[4] is not None:
            nr, k = s[4]
            march_idx.add(i)
            steps += k
            cells += nr * k
            march_t += d
            if nr in by_nr:
                by_nr[nr][0] += d
                by_nr[nr][1] += k
    m["pdesolver.steps"] = steps
    for nr in MARCH_NR:
        m[f"pdesolver.us_per_step_nr{nr}"] = _ratio(by_nr[nr][0], by_nr[nr][1], 1e6)
    m["pdesolver.cell_steps_per_s"] = _ratio(cells, march_t, 1.0)
    m["pdesolver.boundary_calls"] = sum(
        1 for s in spans if s[3] in march_idx and layer_of(s[0]) == "solutions"
        and s[4] is not None and s[4][1])
    m["pdesolver.self_ms"] = self_s["pdesolver"] * 1e3

    # quadrature
    integrals = panels = calls = 0
    quad_t = 0.0
    for s, d in zip(spans, dur):
        if s[0] == "quadrature.integrate_semi_infinite" and s[4] is not None:
            integrals += 1
            panels += s[4][0]
            calls += s[4][1]
            quad_t += d
    m["quadrature.integrals"] = integrals
    m["quadrature.panels"] = panels
    m["quadrature.integrand_calls"] = calls
    m["quadrature.us_per_panel"] = _ratio(quad_t, panels, 1e6)
    m["quadrature.self_ms"] = self_s["quadrature"] * 1e3

    # norms
    points = sum(s[4] for s in spans if s[0] == "norms.norm_sweep" and s[4] is not None)
    sweep_t = sum(d for s, d in zip(spans, dur) if s[0] == "norms.norm_sweep")
    m["norms.points"] = points
    m["norms.ms_per_point"] = _ratio(sweep_t, points, 1e3)
    m["norms.linf_ms"] = sum(d for s, d in zip(spans, dur)
                             if s[0] == "norms.linf_norm") * 1e3
    m["norms.self_ms"] = self_s["norms"] * 1e3

    # solutions: family evaluators only
    vec_calls = vec_pts = sc_calls = 0
    vec_t = sc_t = 0.0
    for s, d in zip(spans, dur):
        if layer_of(s[0]) == "solutions" and s[0].split(".", 1)[1] in EVALUATORS \
                and s[4] is not None:
            if s[4][1]:
                sc_calls += 1
                sc_t += d
            else:
                vec_calls += 1
                vec_pts += s[4][0]
                vec_t += d
    m["solutions.vector_calls"] = vec_calls
    m["solutions.ns_per_point"] = _ratio(vec_t, vec_pts, 1e9)
    m["solutions.scalar_calls"] = sc_calls
    m["solutions.us_per_scalar_call"] = _ratio(sc_t, sc_calls, 1e6)
    m["solutions.self_ms"] = self_s["solutions"] * 1e3

    # specfun: calls that enter the module from another layer
    sf_calls = sf_elems = sf_vec_elems = sf_sc = 0
    sf_vec_t = sf_sc_t = 0.0
    for s, d in zip(spans, dur):
        if layer_of(s[0]) == "specfun" and layer_of(parent_name(s)) != "specfun" \
                and s[4] is not None:
            sf_calls += 1
            sf_elems += s[4][0]
            if s[4][1]:
                sf_sc += 1
                sf_sc_t += d
            else:
                sf_vec_elems += s[4][0]
                sf_vec_t += d
    m["specfun.calls"] = sf_calls
    m["specfun.elements"] = sf_elems
    m["specfun.ns_per_element"] = _ratio(sf_vec_t, sf_vec_elems, 1e9)
    m["specfun.us_per_scalar_call"] = _ratio(sf_sc_t, sf_sc, 1e6)
    m["specfun.self_ms"] = self_s["specfun"] * 1e3

    # residual
    res = {"analytic": [0.0, 0], "finite-difference": [0.0, 0]}
    for s, d in zip(spans, dur):
        if s[0] in ("residual.radial_residual", "residual.divergence_form_residual") \
                and s[4] is not None:
            res[s[4][0]][0] += d
            res[s[4][0]][1] += s[4][1]
    m["residual.points"] = res["analytic"][1] + res["finite-difference"][1]
    m["residual.analytic_ns_per_point"] = _ratio(*res["analytic"], 1e9)
    m["residual.fd_us_per_point"] = _ratio(*res["finite-difference"], 1e6)
    m["residual.self_ms"] = self_s["residual"] * 1e3

    # acceptance criteria
    crit = {f"acceptance.c{i}": 0.0 for i in range(1, 11)}
    for s, d in zip(spans, dur):
        if s[0] in crit:
            crit[s[0]] += d
    for i in range(1, 11):
        m[f"acceptance.c{i}_s"] = crit[f"acceptance.c{i}"]

    # cli
    m["cli.emit_ms"] = sum(d for s, d in zip(spans, dur) if s[0] == "cli.emit") * 1e3
    m["cli.self_ms"] = self_s["cli"] * 1e3
    m["trace.spans"] = n
    return m


def write_spans(path, spans):
    """One CSV line per span: index, name, start, end, parent index (-1 at
    the top) and the span's counts joined by ';' (elements;one-point for
    evaluators and specfun, nr;steps for march, panels;integrand calls for
    integrate_semi_infinite, points for norm_sweep, source;points for the
    residual grids)."""
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent,meta\n")
        for i, (name, start, end, parent, info) in enumerate(spans):
            if isinstance(info, tuple):
                info = ";".join(str(x) for x in info)
            fh.write(f"{i},{name},{start!r},{end!r},{parent},{'' if info is None else info}\n")
