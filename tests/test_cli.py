"""Command-line interface: output shapes and formats, qualitative figure
content, exit codes, config-file merging, and byte-level determinism."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cole_lab
from cole_lab import acceptance, cli
from cole_lab.cli import _FIGURES, build_parser, main


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


def test_amplitude_overflow_exits_3(capsys):
    # mu = 1e300 is a valid parameter, but the SelfSimilar u passes the
    # largest double inside the norm's range: a numerical failure, which
    # exited 2 as a config error.  The other SingularityError, r = 0 on a
    # singular family, is not reachable from here: residual drops r = 0, and
    # solve rejects r_min = 0 for a singular family as a config error.
    rc = main(["norms", "--family", "SelfSimilar", "--mu", "1e300",
               "--kind", "lp", "--p", "2"])
    assert rc == 3
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert "numerical failure" in out.err and "overflows a double" in out.err


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
