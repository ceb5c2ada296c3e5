"""cole-lab benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload {verify-all,norm-sweep,pointwise} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is the pure-Python package
under src/, imported from there; nothing is installed.  Every child process
runs single-threaded BLAS.

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh interpreters of the time until
               `import cole_lab.cli; build_parser()` returns
  wall_s       median wall time of one round of the workload, warm process
  cmd_p50_ms   median wall time of one CLI invocation over the timed rounds
  peak_rss_mb  peak resident memory of the workload process
--trace 1 reports the per-layer table of a traced run (see README.md).

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

import tracer as T

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9             # fresh interpreters per run, after one discarded
IMPORTTIME_SAMPLES = 5
WORKER_TIMEOUT_S = 150
FIGURE_REL_TOL = 1e-13
EPS = 2.0 ** -52
TINY = 1e-300                 # below this, u is compared in absolute terms

SETUP_CODE = ("import time\n"
              "import cole_lab.cli\n"
              "cole_lab.cli.build_parser()\n"
              "print(repr(time.perf_counter()))\n")


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env):
    """Seconds from spawning a fresh interpreter to build_parser() returning.

    perf_counter is the system-wide monotonic clock on Linux, so the child's
    reading and the parent's start time are comparable."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:                                  # the first one warms caches
            samples.append(float(done.stdout.strip()) - start)
    return statistics.median(samples)


def measure_importtime(env):
    """Cumulative import times (ms) of scipy.linalg and cole_lab.cli from
    `python -X importtime`, medians over a few interpreters."""
    linalg, cole = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cole_lab.cli"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        cum = {}
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m:
                cum[m.group(2)] = int(m.group(1)) / 1e3
        linalg.append(cum.get("scipy.linalg", 0.0))
        cole.append(cum["cole_lab.cli"])
    return statistics.median(linalg), statistics.median(cole)


def check_samples(samples):
    """Figure rows against the mpmath closed form.

    Tolerance: FIGURE_REL_TOL, widened by 8 eps times the condition number
    |dlog u/dlog r| + |dlog u/dlog t| where that is larger; deep in a
    Gaussian tail (log u ~ -600) rounding r^2/4mu t alone costs more than
    1e-13 in any double-precision evaluation."""
    import mpmath as mp
    import oracle

    problems = []
    for family, params, t, r, value, where in samples:
        exact = oracle.u_value(family, params, t, r)
        if abs(exact) < TINY:
            if abs(value - float(exact)) > TINY:
                problems.append(f"{where}: {value!r} vs oracle {mp.nstr(exact, 17)}")
            continue
        log_u = lambda lt, lr: mp.log(abs(oracle.u_value(family, params, mp.exp(lt), mp.exp(lr))))
        lt, lr = mp.log(t), mp.log(r)
        cond = abs(mp.diff(lambda x: log_u(lt, x), lr)) + abs(mp.diff(lambda x: log_u(x, lr), lt))
        tol = max(FIGURE_REL_TOL, 8 * EPS * float(cond))
        rel = abs((value - exact) / exact)
        if rel > tol:
            problems.append(f"{where}: {value!r} vs oracle {mp.nstr(exact, 17)} "
                            f"(rel {float(rel):.2e} > {tol:.2e})")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["verify-all", "norm-sweep", "pointwise"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cole_lab", "cli.py")):
        print("run.py: no src/cole_lab in the current directory; run from the "
              "root of a cole-lab checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(out_dir, exist_ok=True)

    metrics = {}
    if args.trace:
        linalg_ms, cole_ms = measure_importtime(env)
    else:
        metrics["setup_s"] = {"value": measure_setup(env), "unit": "s"}

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--spans-out", os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.csv")]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"run.py: workload process exited with {done.returncode}", file=sys.stderr)
        return 1
    res = json.loads(done.stdout.strip().splitlines()[-1])
    if not res["cole_lab"].startswith(os.path.join(root, "src") + os.sep):
        print(f"run.py: imported cole_lab from {res['cole_lab']}", file=sys.stderr)
        return 1

    problems = res["problems"] + check_samples(res["samples"])
    for line in res["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    for line in problems:
        print(f"incorrect: {line}", file=sys.stderr)

    if args.trace:
        layers = dict(res["layers"])
        layers["setup.scipy_linalg_ms"] = linalg_ms
        layers["setup.cole_lab_ms"] = cole_ms
        for key in res["count_drift"]:
            print(f"note: work count {key} differs between traced rounds", file=sys.stderr)
        for key, value in sorted(layers.items()):
            metrics[key] = {"value": value, "unit": T.UNITS[key]}
    else:
        metrics["wall_s"] = {"value": statistics.median(res["walls"]), "unit": "s"}
        metrics["cmd_p50_ms"] = {"value": statistics.median(res["cmd_times"]) * 1e3,
                                 "unit": "ms"}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
        print(f"rounds: {len(res['walls'])}, invocations: {len(res['cmd_times'])}",
              file=sys.stderr)

    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
