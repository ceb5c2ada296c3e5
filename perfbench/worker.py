"""Workload process of the cole-lab benchmark; started by run.py.

Imports cole_lab from the checkout's src/ (run.py puts it on PYTHONPATH),
then runs whole rounds of one workload through `cole_lab.cli.main(argv)`:

1. a warm-up round, whose outputs are checked and hashed, and after which
   the peak resident memory is read;
2. timed rounds with tracing off until --seconds have passed (half of them
   when --trace 1);
3. with --trace 1, traced rounds for the other half, which give the
   per-layer table.

Every invocation's stdout, stderr and exit code are hashed; a repeat of the
same argv in the same run that emits other bytes fails that operation.
Prints one JSON line for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import tracer as T
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))


class Runner:
    """Invokes the CLI for each operation and keeps the run's counts."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.hashes = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def invoke(self, argv):
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as e:          # argparse rejects the argv
                rc = e.code
            except Exception as e:           # a fault of the program under test
                rc, exc = None, f"{type(e).__name__}: {e}"
            elapsed = time.perf_counter() - start
        return rc, out.getvalue(), err.getvalue(), exc, elapsed

    def round(self):
        """One round; returns (outputs, per-invocation seconds, bytes out)."""
        outputs, times, nbytes = [], [], 0
        for i, op in enumerate(self.ops):
            rc, out, err, exc, elapsed = self.invoke(op.argv)
            times.append(elapsed)
            nbytes += len(out.encode())
            self.attempted += 1
            why = None
            if exc is not None:
                why = f"raised {exc}"
            elif rc != op.rc or (op.rc == 2 and "config error" not in err):
                why = f"exit code {rc}, want {op.rc}: {err.strip()[:200]}"
            digest = hashlib.sha256(f"{rc}\0{exc}\0{out}\0{err}".encode()).hexdigest()
            if self.hashes[i] is None:
                self.hashes[i] = digest
            elif why is None and digest != self.hashes[i]:
                why = "output bytes differ from an earlier run of the same argv"
            if why is not None:
                self.failed += 1
                self.failures.append(f"{' '.join(op.argv)}: {why}")
            outputs.append((op, why, out))
        return outputs, times, nbytes


def timed_rounds(runner, seconds):
    """Whole rounds until `seconds` have passed; at least one."""
    walls, cmd_times = [], []
    start = time.perf_counter()
    while True:
        _, times, _ = runner.round()
        walls.append(sum(times))
        cmd_times.extend(times)
        if time.perf_counter() - start >= seconds:
            return walls, cmd_times


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    import cole_lab.cli as cli

    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    runner = Runner(cli, W.WORKLOADS[args.workload])
    rng = np.random.default_rng(args.seed)

    problems, samples = [], []
    outputs, _, _ = runner.round()
    # a cole-lab user runs each invocation in a fresh process, so the peak of
    # import plus one round is the footprint that matters; later rounds only
    # add allocator drift (89 or 92 MB on pointwise, at random)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op, why, out in outputs:
        if why is None and op.check is not None:
            try:
                problems += op.check(op.argv, out, ref, rng, samples)
            except (ValueError, IndexError, KeyError) as e:
                problems.append(f"{' '.join(op.argv)}: unparseable output ({e})")
    del outputs

    result = {"problems": problems, "samples": samples,
              "cole_lab": os.path.abspath(cli.__file__)}
    untraced = args.seconds / 2.0 if args.trace else args.seconds
    walls, cmd_times = timed_rounds(runner, untraced)
    result["walls"] = walls
    result["cmd_times"] = cmd_times
    result["peak_rss_mb"] = peak_rss_mb

    if args.trace:
        tracer = T.Tracer()
        tracer.install()
        tables, traced_walls, first_spans, bytes_out = [], [], None, 0
        start = time.perf_counter()
        try:
            while True:
                _, times, nbytes = runner.round()
                spans = tracer.take()
                traced_walls.append(sum(times))
                tables.append(T.layer_metrics(spans))
                if first_spans is None:
                    first_spans, bytes_out = spans, nbytes
                if time.perf_counter() - start >= args.seconds - untraced:
                    break
        finally:
            tracer.uninstall()
        layers = {}
        for key, value in tables[0].items():
            if isinstance(value, int):      # work counts: the first traced round
                layers[key] = value
            else:                           # times and rates: median over rounds
                layers[key] = statistics.median(t[key] for t in tables)
        layers["cli.bytes_out"] = bytes_out
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["layers"] = layers
        result["count_drift"] = [k for k, v in tables[0].items() if isinstance(v, int)
                                 and any(t[k] != v for t in tables[1:])]
        if args.spans_out:
            T.write_spans(args.spans_out, first_spans)

    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["failures"] = sorted(set(runner.failures))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
