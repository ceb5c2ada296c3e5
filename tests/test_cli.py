"""Command-line interface: output shapes and formats, qualitative figure
content, exit codes, config-file merging, and byte-level determinism."""

import collections
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cole_lab
from cole_lab import acceptance, cli, norms, pdesolver
from cole_lab.cli import _FAMILIES, _FIGURES, build_parser, main
from cole_lab.solutions import Params, SingularityError, main_example
from cole_lab.specfun import DomainError


def _read_csv(path):
    with open(path) as fh:
        meta = fh.readline()
        rows = list(csv.reader(fh))
    return meta, rows[0], rows[1:]


def test_figure_2_grid_and_t_floor(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["figure", "--which", "2", "--out", str(out)]) == 0
    meta, header, rows = _read_csv(out)
    assert meta.startswith("# cole-lab")
    assert header == ["t", "r", "value", "error_estimate", "flags"]
    assert len(rows) == 200 * 200
    # the t=0 edge of the caption range is evaluated at the 1e-9 floor and
    # flagged; all other rows carry no flag
    flagged = [row for row in rows if row[4] == "t-floor"]
    assert len(flagged) == 200
    assert all(float(row[0]) == 0.0 for row in flagged)
    assert all(math.isfinite(float(row[2])) for row in rows)


def test_figure_2_json_mirrors_csv(tmp_path):
    out, csv_out = tmp_path / "fig2.json", tmp_path / "fig2.csv"
    assert main(["figure", "--which", "2", "--format", "json", "--out", str(out)]) == 0
    assert main(["figure", "--which", "2", "--out", str(csv_out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["figure"] == 2 and doc["family"].startswith("SelfSimilar")
    rows = doc["rows"]
    assert len(rows) == 200 * 200
    assert all(set(row) == {"t", "r", "value", "error_estimate", "flags"} for row in rows)
    flagged = [row for row in rows if row["flags"] == "t-floor"]
    assert len(flagged) == 200 and all(row["t"] == 0.0 for row in flagged)
    assert all(row["flags"] == "" for row in rows if row["t"] > 0.0)
    _, _, csv_rows = _read_csv(csv_out)
    assert [[repr(row["t"]), repr(row["r"]), repr(row["value"]),
             repr(row["error_estimate"]), row["flags"]] for row in rows] == csv_rows


@pytest.mark.parametrize("which", [1, 2, 3])
def test_figure_csv_equals_csv_writer_reference(which, tmp_path):
    # the column-wise CSV writer against csv.writer over one row list of
    # repr-formatted cells
    out = tmp_path / "fig.csv"
    assert main(["figure", "--which", str(which), "--out", str(out)]) == 0
    build, (r_lo, r_hi), (t_lo, t_hi) = _FIGURES[which]
    fam = build()
    rs = np.linspace(r_lo, r_hi, 200)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "r", "value", "error_estimate", "flags"])
    for t in np.linspace(t_lo, t_hi, 200):
        t_eval, flag = (1e-9, "t-floor") if t == 0.0 else (float(t), "")
        for r, v in zip(rs, fam.u(t_eval, rs)):
            writer.writerow([repr(float(t)), repr(float(r)), repr(float(v)),
                             repr(0.0), flag])
    meta, body = out.read_text().split("\n", 1)
    assert meta.startswith(f"# cole-lab {cole_lab.__version__} | figure {which} |")
    assert body == buf.getvalue()


class _RecordingStdout(io.StringIO):
    """A stdout that keeps the size of its largest single write."""

    largest = 0

    def write(self, text):
        self.largest = max(self.largest, len(text))
        return super().write(text)


@pytest.mark.parametrize("which", [1, 2, 3])
def test_figure_stdout_equals_out_and_streams_by_row(which, tmp_path):
    # stdout, the path a pipe reads, carries the --out bytes, written one
    # t row (200 points, about 14 KB) at a time rather than as one 2.7 MB text
    out = tmp_path / "fig.csv"
    assert main(["figure", "--which", str(which), "--out", str(out)]) == 0
    stdout = _RecordingStdout()
    with contextlib.redirect_stdout(stdout):
        assert main(["figure", "--which", str(which)]) == 0
    text = out.read_text()
    assert stdout.getvalue() == text and len(text) > 2_000_000
    assert 0 < stdout.largest < 20_000


@pytest.mark.parametrize("which", [1, 2, 3])
def test_figure_work_count(which, monkeypatch, capsys):
    # the 200 x 200 grid from at most four calls of u (a t column against
    # the r row, in blocks of rows), not one call per t row
    sizes = []

    def counting(build):
        def counted_build():
            fam = build()

            def u(t, r):
                out = fam.u(t, r)
                sizes.append(out.size)
                return out
            return dataclasses.replace(fam, u=u)
        return counted_build

    figures = {w: (counting(build), *rest) for w, (build, *rest) in _FIGURES.items()}
    monkeypatch.setattr(cli, "_FIGURES", figures)
    assert main(["figure", "--which", str(which)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + 200 * 200
    assert len(sizes) <= 4 and sum(sizes) == 200 * 200


def test_parser_is_shared_and_keeps_no_state(tmp_path, capsys):
    # main() reuses one parser; a run with --config must leave nothing in it
    # for the next run, whose output equals a run on a fresh parser
    assert build_parser() is build_parser()
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": "linf", "p": "1,2", "n": 5}))
    plain = ["norms", "--family", "MainExample", "--t-grid", "1e-2:1e-3:2"]
    assert main(["norms", "--config", str(path)] + plain[1:]) == 0
    configured = capsys.readouterr().out
    assert main(plain) == 0
    second = capsys.readouterr().out
    build_parser.cache_clear()
    assert main(plain) == 0
    assert second == capsys.readouterr().out != configured


def test_figure_config_supplies_which(tmp_path, capsys):
    # argv was parsed before the file was read, so a required --which
    # stopped the run before the file could supply it
    path = tmp_path / "fig.json"
    path.write_text(json.dumps({"which": 2}))
    assert main(["figure", "--config", str(path)]) == 0
    from_config = capsys.readouterr().out
    assert main(["figure", "--which", "2"]) == 0
    assert capsys.readouterr().out == from_config


def test_figure_without_which_exits_2(capsys):
    assert main(["figure"]) == 2
    assert "config error: no figure given" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["norms", "--family", "MainExample", "--kind", "grad_lp", "--p", "1,2",
     "--t-grid", "1e-2:1e-4:3"],
    ["norms", "--family", "SelfSimilar", "--kind", "linf", "--t-grid", "1e-2:1e-4:3"],
    ["norms", "--family", "NonStationaryErf", "--kind", "distance", "--p", "2,3",
     "--t-grid", "1e-2:1e-4:3"],
    ["decay", "--family", "SelfSimilar", "--mu", "0.005", "--p", "1,2",
     "--t-grid", "1e-2:1e-6:5"],
    ["residual", "--family", "NonStationaryErf", "--grid", "1e-3:0.3:32",
     "--t-grid", "1e-3:0.2:2"],
    ["solve", "--family", "MainExample", "--nr", "64"],
    ["verify-all"],
])
def test_table_csv_equals_csv_writer(argv, tmp_path, monkeypatch, capsys):
    # tables are comma-joined cells; csv.writer over the same cells, which
    # would quote a field that needs it, must give the same bytes
    seen = {}
    real_emit, real_cells = cli._emit, cli._cells

    def emit(args, meta, header, lines, json_obj):
        seen["header"] = header
        return real_emit(args, meta, header, lines, json_obj)

    def cells(rows):
        seen["rows"] = rows
        return real_cells(rows)

    monkeypatch.setattr(cli, "_emit", emit)
    monkeypatch.setattr(cli, "_cells", cells)
    out = tmp_path / "table.csv"
    assert main(argv + ["--out", str(out)]) in (0, 1)
    capsys.readouterr()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(seen["header"])
    writer.writerows([[cli._fmt(x) for x in row] for row in seen["rows"]])
    meta, body = out.read_text().split("\n", 1)
    assert meta.startswith(f"# cole-lab {cole_lab.__version__} | {argv[0]} |")
    assert body == buf.getvalue()


def test_figure_1_peak_moves_out_and_decays(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "--which", "1", "--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    by_t = {}
    for row in rows:
        by_t.setdefault(float(row[0]), []).append((float(row[1]), float(row[2])))
    ts = sorted(by_t)
    assert len(ts) == 200
    first, last = by_t[ts[0]], by_t[ts[-1]]
    peak = lambda slab: max(slab, key=lambda rv: rv[1])
    r_first, v_first = peak(first)
    r_last, v_last = peak(last)
    assert v_first > v_last          # sup grows as t -> 0
    assert r_first < r_last          # peak radius shrinks with t


def test_norms_wide_csv(tmp_path):
    out = tmp_path / "norms.csv"
    rc = main(["norms", "--family", "MainExample", "--kind", "lp", "--p", "1,2,4",
               "--t-grid", "1e-2:1e-6:5", "--out", str(out)])
    assert rc == 0
    _, header, rows = _read_csv(out)
    assert header == ["t", "value[p=1]", "error[p=1]", "flags[p=1]",
                      "value[p=2]", "error[p=2]", "flags[p=2]",
                      "value[p=4]", "error[p=4]", "flags[p=4]"]
    assert len(rows) == 5
    assert all(row[3] == "ok" and row[6] == "ok" and row[9] == "ok"
               for row in rows)
    v1 = [float(row[1]) for row in rows]
    v4 = [float(row[7]) for row in rows]
    # t decreases down the grid: subcritical p=1 vanishes, p=4 > n grows
    assert v1[0] > v1[-1]
    assert v4[0] < v4[-1]


def test_norms_flags_underflow(tmp_path):
    # per-point flag, exit code 0 as for the other flags; the norm at
    # t = 1e-8 (1.8e-461) underflows, the one at 1e-5 (1.2638323619997687e-253,
    # 50-digit mpmath) does not, though its square does; these rows printed
    # 0.0,0.0,ok before either was flagged
    out = tmp_path / "norms.csv"
    rc = main(["norms", "--family", "MainExample", "--kind", "lp", "--n", "300",
               "--t-grid", "1e-2:1e-8:3", "--out", str(out)])
    assert rc == 0
    _, _, rows = _read_csv(out)
    assert [row[3] for row in rows] == ["ok", "ok", "underflow"]
    assert float(rows[1][1]) == pytest.approx(1.2638323619997687e-253, rel=1e-12)
    assert rows[2][1:3] == ["nan", "0.0"]


def test_decay_self_similar_slope_json(tmp_path):
    out = tmp_path / "decay.json"
    rc = main(["decay", "--family", "SelfSimilar", "--mu", "0.005", "--kind", "lp",
               "--p", "1", "--t-grid", "1e-2:1e-6:9", "--format", "json",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    fit = doc["fits"][0]
    assert fit["p"] == 1.0
    assert abs(fit["slope"] - 1.0) < 1e-6
    assert fit["max_log_residual"] < 1e-6


def test_decay_degenerate_fit_exits_1(capsys):
    # the main example L^2 norm spans less than a decade over this grid, a
    # genuine log-correction effect, so the fit refuses
    rc = main(["decay", "--family", "MainExample", "--kind", "lp", "--p", "2",
               "--t-grid", "1e-2:1e-8:13"])
    assert rc == 1
    assert "decay fit failed" in capsys.readouterr().err


def test_residual_csv_two_sources(tmp_path):
    out = tmp_path / "resid.csv"
    rc = main(["residual", "--family", "NonStationaryErf", "--grid", "1e-3:0.3:64",
               "--t-grid", "1e-3:0.2:3", "--form", "radial", "--out", str(out)])
    assert rc == 0
    _, header, rows = _read_csv(out)
    assert header[:2] == ["form", "source"]
    assert [row[1] for row in rows] == ["analytic", "finite-difference"]
    assert float(rows[0][2]) < 1e-12    # analytic residual at rounding level
    assert float(rows[1][2]) < 1e-2


def test_solve_json_summary(tmp_path):
    out = tmp_path / "solve.json"
    rc = main(["solve", "--family", "MainExample", "--scheme", "cn-central",
               "--nr", "256", "--r-max", "0.3", "--t0", "1e-3", "--t1", "2e-3",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["scheme"] == "cn-central" and doc["nr"] == 256
    assert doc["n_steps"] == len(doc["max_history"])
    assert doc["max_error_vs_exact"] < 1.0
    assert doc["final_min"] >= -1e-12


def _mirrored(argv, tmp_path):
    """(header, rows, JSON document) of argv run once as CSV, once as JSON."""
    csv_out, json_out = tmp_path / "table.csv", tmp_path / "table.json"
    assert main(argv + ["--out", str(csv_out)]) == main(
        argv + ["--format", "json", "--out", str(json_out)])
    _, header, rows = _read_csv(csv_out)
    return header, rows, json.loads(json_out.read_text())


def _cell(value):
    """A JSON value as its CSV cell: floats by repr, NaN and inf (strings in
    JSON) and the rest by str."""
    return repr(value) if isinstance(value, float) else str(value)


def test_norms_json_mirror_is_the_csv(tmp_path, capsys):
    # each report's record: NormReport's fields less family and spec, which
    # the top level carries, plus p; its points are the CSV's columns
    header, rows, doc = _mirrored(
        ["norms", "--family", "MainExample", "--kind", "lp", "--p", "1,2,4",
         "--n", "300", "--t-grid", "1e-2:1e-8:3"], tmp_path)
    assert set(doc) == {"family", "kind", "version", "reports"}
    assert [rec["p"] for rec in doc["reports"]] == [1.0, 2.0, 4.0]
    for k, rec in enumerate(doc["reports"]):
        assert set(rec) == {"p", "t_grid", "values", "quad_errors", "flags"}
        assert header[1 + 3 * k:4 + 3 * k] == [f"{c}[p={rec['p']:g}]"
                                              for c in ("value", "error", "flags")]
        cols = zip(rec["t_grid"], rec["values"], rec["quad_errors"], rec["flags"])
        assert [[_cell(x) for x in col] for col in cols] == [
            [row[0], *row[1 + 3 * k:4 + 3 * k]] for row in rows]
    assert rows[2][1:4] == ["nan", "0.0", "underflow"]


@pytest.mark.parametrize("argv,top,key,fields,cells", [
    # DecayFit's fields plus p; t_grid is in the JSON alone
    (["decay", "--family", "SelfSimilar", "--mu", "0.005", "--p", "1,2",
      "--t-grid", "1e-2:1e-6:5"],
     {"family", "kind", "version", "fits"}, "fits",
     {"p", "slope", "intercept", "max_log_residual", "n_points", "t_grid"},
     lambda doc, rec: [rec[c] for c in
                       ("p", "slope", "intercept", "max_log_residual", "n_points")]),
    # ResidualReport's fields less family and form
    (["residual", "--family", "NonStationaryErf", "--grid", "1e-3:0.3:32",
      "--t-grid", "1e-3:0.2:2", "--form", "divergence"],
     {"family", "form", "version", "reports"}, "reports",
     {"derivative_source", "max_abs_scaled", "l2_scaled", "worst_t", "worst_r",
      "n_points"},
     lambda doc, rec: [doc["form"], *(rec[c] for c in (
         "derivative_source", "max_abs_scaled", "l2_scaled", "worst_t", "worst_r",
         "n_points"))]),
    # one record, at the top level; the histories are in the JSON alone
    (["solve", "--family", "MainExample", "--nr", "64"],
     {"family", "version", "scheme", "nr", "n_steps", "dt", "final_max",
      "final_min", "max_error_vs_exact", "max_history", "min_history"}, None,
     None,
     lambda doc, rec: [rec[c] for c in ("scheme", "nr", "n_steps", "dt", "final_max",
                                        "final_min", "max_error_vs_exact")]),
    # CriterionResult as it is
    (["verify-all"], {"version", "all_passed", "criteria"}, "criteria",
     {"index", "title", "passed", "lines"},
     lambda doc, rec: [rec["index"], "PASS" if rec["passed"] else "FAIL", rec["title"]]),
])
def test_json_mirror_records_are_the_csv_rows(argv, top, key, fields, cells,
                                              tmp_path, capsys):
    # the exact key sets, written out: a renamed report field fails here
    # instead of changing the JSON unseen; each value is its CSV cell
    _, rows, doc = _mirrored(argv, tmp_path)
    capsys.readouterr()
    assert set(doc) == top
    records = [doc] if key is None else doc[key]
    assert len(records) == len(rows)
    for rec, row in zip(records, rows):
        assert fields is None or set(rec) == fields
        assert [_cell(x) for x in cells(doc, rec)] == row


def test_solve_singular_family_needs_inner_radius(capsys):
    rc = main(["solve", "--family", "Stationary", "--C", "1",
               "--nr", "64", "--r-max", "2.0", "--t0", "1.0", "--t1", "2.0"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_residual_of_underflowed_terms_exits_3(capsys):
    # u near 1e-449: every term underflows, which printed 0.0 residuals
    # with exit 0
    rc = main(["residual", "--family", "MainExample", "--mu", "1e300"])
    assert rc == 3
    out = capsys.readouterr()
    assert out.out == "" and "numerical failure" in out.err and "underflow" in out.err


@pytest.mark.parametrize("argv,where", [
    # r * r underflows in residual._terms: rows read -1.0,nan,nan,nan
    (["residual", "--family", "MainExample", "--mu", "1e-8", "--grid",
      "1e-300:1e-299:16", "--t-grid", "1e-2:1e-8:3"], "t = 0.01, r = 1e-300"),
    # u u_r and mu u_rr pass the largest double, so R / scale is inf / inf
    (["residual", "--family", "Stationary", "--C", "1", "--mu", "1e300", "--grid",
      "0:1:16", "--t-grid", "1:10:2"], "t = 1.0, r = 0.0625"),
])
def test_residual_that_is_not_a_finite_double_exits_3(argv, where, capsys):
    # without the check both would print NaN rows with exit 0; a
    # RuntimeWarning on the way is printed, not raised, as on the command line
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(argv) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("cole-lab: numerical failure: ")
    assert f"the radial residual is not a finite double at {where}" in out.err


def test_residual_grid_above_the_solver_range_exits_2(monkeypatch, capsys):
    # nr is bounded as the solver's is, so a huge grid is refused before
    # any radius is allocated or any evaluator called
    calls = []
    build = cli._build_family

    def counted_build(args):
        fam = build(args)
        counted = {}
        for name in ("u", "u_r", "u_rr", "u_t", "g", "g_r", "P", "W"):
            def f(*a, _f=getattr(fam, name)):
                calls.append(a)
                return _f(*a)
            counted[name] = f
        return dataclasses.replace(fam, **counted)

    monkeypatch.setattr(cli, "_build_family", counted_build)
    argv = ["residual", "--family", "NonStationaryErf", "--t-grid", "1e-3:0.2:2"]
    assert main(argv + ["--grid", "1e-3:0.3:8193"]) == 2
    assert "config error: Grid1D.nr must be in [16, 8192]" in capsys.readouterr().err
    assert calls == []
    assert main(argv + ["--grid", "1e-3:0.3:8192"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(",16386")
    assert calls


def test_amplitude_overflow_exits_3(capsys):
    # mu = 1e307 is a valid parameter, but the SelfSimilar u passes the
    # largest double inside the norm's range (at r = 0.00427): a numerical
    # failure, which exited 2 as a config error.  At mu = 1e300 u stays
    # below 2e303 on the nodes, and only the norm passes the largest double.
    # The other SingularityError, r = 0 on a singular family, is not
    # reachable from here: residual drops r = 0, and solve rejects
    # r_min = 0 for a singular family as a config error.
    rc = main(["norms", "--family", "SelfSimilar", "--mu", "1e307",
               "--kind", "lp", "--p", "2"])
    assert rc == 3
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert "numerical failure" in out.err and "overflows a double" in out.err


def test_main_example_where_4_mu_t_underflows_exits_3(capsys):
    # 4 mu t = 4e-600 underflows to 0: the core divided r^2 by it (a
    # divide-by-zero warning) and then math.log raised a bare ValueError,
    # so the command ended in a traceback with exit 1
    fam = main_example(Params(3, 1e-300))
    for call in (lambda: fam.u(1e-300, 0.5), lambda: fam.g0(1e-300),
                 lambda: fam.u(np.array([[1e-2], [1e-300]]), np.array([0.5]))):
        with pytest.raises(SingularityError, match="4 mu t is below"):
            call()
    for argv in (["norms", "--kind", "linf", "--t-grid", "1e-300:1e-301:2"],
                 ["solve", "--t0", "1e-300", "--t1", "2e-300"]):
        # solve turned it into exit 2 as a config error
        rc = main(argv + ["--family", "MainExample", "--mu", "1e-300"])
        assert rc == 3
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err
        assert "numerical failure" in out.err and "4 mu t is below" in out.err


def test_solve_stability_failure_exits_3(capsys):
    # small mu lets the diffusion-based dt grow while the layer peak stays
    # steep, so the advective CFL lands far above 1
    rc = main(["solve", "--family", "MainExample", "--mu", "0.01", "--nr", "64",
               "--r-max", "0.3", "--t0", "1e-3", "--t1", "2e-3"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"p": "1", "mu": 0.5}))
    out = tmp_path / "norms.json"
    rc = main(["norms", "--family", "MainExample", "--config", str(cfg),
               "--mu", "0.1", "--kind", "lp", "--t-grid", "1e-2:1e-4:4",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    # explicit flag beats the file; the file fills what flags left unset
    assert "mu=0.1" in doc["family"]
    assert doc["reports"][0]["p"] == 1.0


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"volume": 11}))
    rc = main(["norms", "--family", "MainExample", "--config", str(cfg)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["fn", "subcommand"])
def test_config_file_rejects_parser_names(key, tmp_path, capsys):
    # names the parser sets itself, not flags
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: "decay"}))
    assert main(["norms", "--family", "MainExample", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_solve_past_the_step_cap_exits_3(capsys):
    # mu = 1e300 asks for 3e303 diffusive steps: numpy's np.arange refused
    # them with a ValueError, which solve turned into exit 2
    assert main(["solve", "--family", "MainExample", "--mu", "1e300"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "numerical failure" in out.err
    assert "more than 1048576" in out.err


def test_one_exit_2_clause():
    # every config check raises a DomainError where it is made, and main
    # alone maps it to exit 2
    assert issubclass(cli.ConfigError, DomainError)
    for scheme in pdesolver.SCHEMES:
        assert build_parser().parse_args(["solve", "--scheme", scheme]).scheme == scheme


def _exit_code(argv):
    """main's exit code, counting argparse's SystemExit as its code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("subcommand,config", [
    ("norms", {"n": "abc"}),
    ("norms", {"mu": [1]}),
    ("norms", {"n": 3.7}),        # ran n = 3
    ("residual", {"grid": 3}),
])
def test_bad_config_values_exit_2(subcommand, config, tmp_path, capsys):
    # config values are checked like flags; these ended in tracebacks
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    argv = [subcommand, "--family", "MainExample", "--config", str(path)]
    assert _exit_code(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_config_number_runs_like_flag(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"p": 2}))
    argv = ["norms", "--family", "MainExample", "--t-grid", "1e-2:1e-4:3"]
    assert main(argv + ["--config", str(path)]) == 0
    from_config = capsys.readouterr().out
    assert main(argv + ["--p", "2"]) == 0
    assert capsys.readouterr().out == from_config


@pytest.mark.parametrize("argv,outs", [
    (["norms", "--family", "MainExample", "--t-grid", "1e-2:1e-4:3"],
     ("missing/x.csv", ".")),
    (["verify-all"], ("missing/v.csv",)),
])
def test_unwritable_out_exits_2(argv, outs, tmp_path, capsys):
    # a missing directory or a directory as --out is a config error, not
    # the exit code 1 of a failed verification
    for out in outs:
        assert main(argv + ["--out", str(tmp_path / out)]) == 2
        assert "config error: cannot write output" in capsys.readouterr().err


# every flag of the fuzzed subcommands but --out and --config, with its
# default (MainExample for --family, which has none)
_CONFIG_DEFAULTS = {
    cmd: {dest: "MainExample" if dest == "family" else value
          for dest, value in vars(build_parser().parse_args([cmd])).items()
          if dest not in ("out", "config", "fn", "subcommand")}
    for cmd in ("norms", "residual", "solve")
}
_CONFIG_POOL = ("abc", 3.7, -1, [1], {}, None, True)


@st.composite
def _fuzzed_config(draw):
    # every key is set; up to three take a pool value and the rest their
    # defaults, so that most configs get past argparse, which stops at the
    # first bad value, into the subcommand's own checks
    cmd = draw(st.sampled_from(sorted(_CONFIG_DEFAULTS)))
    defaults = _CONFIG_DEFAULTS[cmd]
    drawn = draw(st.dictionaries(st.sampled_from(sorted(defaults)),
                                 st.sampled_from(_CONFIG_POOL), max_size=3))
    return cmd, {**defaults, **drawn}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_fuzzed_config())
def test_config_fuzz_exits_cleanly(case):
    cmd, config = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = _exit_code([cmd, "--config", path])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# the sweeps below that reach their exit code through a RuntimeWarning, an
# open defect at mu = 1e300: the erf family's distance integrand (amp w)^p
# overflows
_SWEEPS_THAT_WARN = {
    ("NonStationaryErf", "distance", "1e300", "1e-2:1e-8:13"),
    ("NonStationaryErf", "distance", "1e300", "1e-100:1e-300:3"),
    ("NonStationaryErf", "distance", "1e300", "1:1e-2:3"),
}


def test_norm_sweeps_end_in_0_or_2(capsys):
    # every family and kind over small, moderate and huge mu and over
    # ordinary, deep and late t-grids: a sweep flags the points it cannot
    # evaluate or exits 2 for a norm the family does not define, and no
    # typed evaluator error ends one with exit 3
    warned = set()
    for case in itertools.product(
            _FAMILIES, norms.KINDS, ("1e-8", "1e-3", "10", "1e300"),
            ("1e-2:1e-8:13", "1e-100:1e-300:3", "1:1e-2:3")):
        fam, kind, mu, grid = case
        argv = ["norms", "--family", fam, "--kind", kind, "--mu", mu,
                "--t-grid", grid, "--p", "1,2"]
        if fam == "Stationary":
            argv += ["--C", "1"]
        # as on the command line, a RuntimeWarning is printed, not raised
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            assert _exit_code(argv) in (0, 2), argv
        assert "Traceback" not in capsys.readouterr().err, argv
        if caught:
            warned.add(case)
    assert warned == _SWEEPS_THAT_WARN


_FUZZ_MU = ("1e-8", "0.1", "1e300")


def _fuzz_argv():
    """The fixed argv grids of solve, residual and decay: every family over
    small, moderate and huge mu and ordinary and deep times.  Sizes that
    allocate without a bound (a huge --grid nr) are left out."""
    for fam, scheme, mu, t0, r_min, nr in itertools.product(
            _FAMILIES, pdesolver.SCHEMES, _FUZZ_MU, (1e-3, 1e-306), ("0", "0.01"),
            ("16", "64")):
        yield fam, ["solve", "--scheme", scheme, "--mu", mu, "--t0", repr(t0),
                    "--t1", repr(2.0 * t0), "--r-min", r_min, "--nr", nr]
    for fam, form, mu, grid, t_grid in itertools.product(
            _FAMILIES, ("radial", "divergence"), _FUZZ_MU,
            ("1e-4:0.1:16", "0:1:16", "1e-300:1e-299:16", "0.5:0.1:16",
             "1e-3:1e3:16"),
            ("1e-2:1e-8:3", "1e-300:1e-306:2", "1:10:2")):
        yield fam, ["residual", "--form", form, "--mu", mu, "--grid", grid,
                    "--t-grid", t_grid]
    for fam, kind, mu, t_grid in itertools.product(
            _FAMILIES, norms.KINDS, _FUZZ_MU, ("1e-2:1e-8:5", "1e-300:1e-306:4")):
        yield fam, ["decay", "--kind", kind, "--mu", mu, "--t-grid", t_grid,
                    "--p", "1,2"]


# (subcommand, family) -> how many argv of the fuzz grid print a
# RuntimeWarning on the way to their exit code, an open defect (the erf
# family's distance integrand (amp w)^p overflows at mu = 1e300 and at
# t = 1e-306); a new warning fails here
_FUZZ_ARGV_THAT_WARN = {
    ("decay", "NonStationaryErf"): 3,
}


def test_argv_fuzz_ends_in_a_documented_exit_code():
    # every run ends in 0/1/2/3 from main, never in an exception; a march
    # too long to allocate and a family value past a double's range are
    # numerical failures (3), not config errors (2) as they were: numpy's
    # "Maximum allowed size exceeded" and a SingularityError came out of
    # solve as exit 2, and the erf family's u_rr raised OverflowError
    solve_codes = collections.Counter()
    warned = collections.Counter()
    for fam, argv in _fuzz_argv():
        argv[1:1] = ["--family", fam] + (["--C", "1"] if fam == "Stationary" else [])
        out, err = io.StringIO(), io.StringIO()
        # as on the command line, a RuntimeWarning is printed, not raised
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            rc = main(argv)
        assert rc in (0, 1, 2, 3), argv
        if caught:
            warned[argv[0], fam] += 1
        if rc == 2:
            assert not any(text in err.getvalue() for text in (
                "Maximum allowed size", "4 mu t", "overflows a double")), argv
        if argv[0] == "solve":
            solve_codes[rc] += 1
        if argv[0] == "residual" and rc == 0:
            # a report is finite, with 0 <= l2 <= max, or it is an error
            # (-1.0,nan rows came out with exit 0)
            for row in csv.reader(out.getvalue().splitlines()[2:]):
                worst, l2 = float(row[2]), float(row[3])
                assert math.isfinite(worst) and 0.0 <= l2 <= worst, (argv, row)
    # the 72 exits 2 are singular families asked for r_min = 0
    assert solve_codes == {0: 122, 2: 72, 3: 94}
    assert warned == _FUZZ_ARGV_THAT_WARN


def test_bad_values_exit_2(capsys):
    assert main(["norms", "--family", "MainExample", "--p", "0.5"]) == 2
    assert main(["norms", "--family", "MainExample", "--t-grid", "abc"]) == 2
    assert main(["norms", "--family", "Stationary", "--kind", "distance"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["norms", "--family", "SelfSimilar", "--kind", "hess_bound_lp"],
    ["norms", "--family", "Stationary", "--kind", "hess_bound_lp"],
    ["decay", "--family", "NonStationaryErf", "--kind", "hess_bound_lp"],
    ["norms", "--family", "MainExample", "--a", "0", "--kind", "hess_bound_lp"],
    ["decay", "--family", "MainExample", "--kind", "distance", "--n", "2"],
    ["decay", "--family", "SelfSimilar", "--kind", "distance"],
    ["decay", "--family", "NonStationaryErf", "--kind", "distance", "--n", "4"],
    ["norms", "--family", "MainExample", "--kind", "lp", "--p", "nan"],
    ["norms", "--family", "MainExample", "--kind", "lp", "--n", "400"],
    ["norms", "--family", "MainExample", "--kind", "lp", "--p", "inf"],
])
def test_undefined_norm_for_family_exits_2(argv, capsys):
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["norms", "--family", "MainExample", "--mu", "inf"],
    ["norms", "--family", "MainExample", "--a", "inf"],
    ["norms", "--family", "Stationary", "--C", "nan"],
    ["residual", "--family", "Stationary", "--mu", "inf"],
    ["solve", "--family", "MainExample", "--mu", "inf"],
    ["norms", "--family", "MainExample", "--kind", "hess_bound_lp", "--a", "nan"],
    ["norms", "--family", "MainExample", "--kind", "hess_bound_lp", "--mu", "1e-308"],
    ["norms", "--family", "MainExample", "--kind", "hess_bound_lp", "--mu", "1e300"],
])
def test_nonfinite_constants_exit_2(argv, capsys):
    # these printed NaN rows with exit 0 or ended in tracebacks
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--which", "4"])
    assert exc.value.code == 2


def test_unbounded_norm_json_is_parseable(tmp_path):
    out = tmp_path / "linf.json"
    rc = main(["norms", "--family", "SelfSimilar", "--mu", "0.005", "--kind", "linf",
               "--t-grid", "1e-2:1e-4:3", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    rep = doc["reports"][0]
    assert rep["values"] == ["inf", "inf", "inf"]
    assert rep["flags"] == ["unbounded"] * 3


def test_byte_identical_reruns(tmp_path):
    args = ["norms", "--family", "MainExample", "--kind", "lp", "--p", "2",
            "--t-grid", "1e-2:1e-6:5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--format", "json", "--out", str(ja)]) == 0
    assert main(args + ["--format", "json", "--out", str(jb)]) == 0
    assert ja.read_bytes() == jb.read_bytes()


def test_verify_all_exit_matches_report(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = main(["verify-all", "--format", "json", "--out", str(out)])
    report = acceptance.run_all()
    assert rc == (0 if report.all_passed else 1)
    printed = capsys.readouterr().out
    assert printed.count("criterion") >= 10
    assert ("verify-all: PASS" in printed) == report.all_passed
    doc = json.loads(out.read_text())
    assert doc["all_passed"] == report.all_passed
    assert len(doc["criteria"]) == 10
    statuses = {c["index"]: c["passed"] for c in doc["criteria"]}
    assert statuses == {r.index: r.passed for r in report.results}


def test_cli_import_does_not_load_scipy():
    # the runtime depends on numpy alone; scipy.linalg would add ~0.3 s to
    # every invocation's start-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cole_lab.__file__))
    code = ("import cole_lab.cli, sys\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_figure_to_a_closed_pipe_exits_0():
    # the reader takes one line and closes the pipe, so the child meets
    # EPIPE partway through the 2.7 MB stream
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cole_lab.__file__))
    child = subprocess.Popen([sys.executable, "-m", "cole_lab.cli", "figure", "--which", "1"],
                             env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline().startswith(b"# cole-lab")
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 0
    assert err == ""           # no traceback, no message
