"""hodgecalc benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload orbit-scaled --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout; the library is imported from
``src/``.  The run builds the inputs once and runs passes over the
workload's job list, one job at a time in this process (closed loop, one
client), until ``--seconds`` is used up (at least three passes).  After each
pass, set-up (interpreter start, import, fixture parse, input generators) is
timed in a fresh child process, ``--setup-only``.  Every answer is checked.
Every time is taken against calibrations run in the same pass and reported
at a fixed reference speed (see ``REFERENCE_SECONDS``); the median over the
samples of a run is reported.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics.  With ``--trace 1`` it carries the per-layer metrics instead: one
counting pass gathers the counters, then plain and traced passes alternate
(their ratio is the tracing overhead); the spans of the last traced pass are
written to ``.perfbench/``.  The line before the result describes the
environment and the per-job times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing                      # noqa: E402  (the directory is on sys.path now)
from workloads import WORKLOADS, build   # noqa: E402

MIN_PASSES = 3
MIN_SETUPS = 5

# The host shares each core with other tenants: a single thread runs up to
# 2x slower for a minute or more at a time, and processor time slows with
# wall time, so neither more passes nor the fastest pass of a run hides it.
# Each job and set-up is therefore timed together with the elimination of
# CALIBRATION, a fixed exact computation in the standard library alone, run
# next to it on the same CPU, and its time is reported at the speed at
# which the calibration takes REFERENCE_SECONDS (about its time on an
# uncontended vCPU of a 2.1 GHz Xeon with Python 3.11.7).  The library never
# runs inside the calibration, so a change to the library moves the reported
# times and never the scale.
REFERENCE_SECONDS = 0.0054
_calibration_rng = random.Random(0)
CALIBRATION = [[Fraction(_calibration_rng.randint(-9, 9), _calibration_rng.randint(1, 9))
                for _ in range(12)] for _ in range(12)]


def calibrate():
    """Seconds taken by Gauss-Jordan elimination of CALIBRATION."""
    t0 = time.perf_counter()
    a = [row[:] for row in CALIBRATION]
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            continue
        a[c], a[pivot] = a[pivot], a[c]
        inverse = 1 / a[c][c]
        a[c] = [x * inverse for x in a[c]]
        for r, row in enumerate(a):
            if r != c and row[c]:
                f = row[c]
                a[r] = [x - f * y for x, y in zip(row, a[c])]
    return time.perf_counter() - t0


def scaled(sample):
    """A (seconds, calibration seconds) sample, in seconds at the reference speed."""
    seconds, calibration = sample
    return seconds / calibration * REFERENCE_SECONDS


def source_identity():
    """Commit (when the checkout is a git repository) and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_pass(workload, reference, tracer=None, counter=None):
    """One pass over the job list; returns (seconds, per-job samples, failures).

    A sample is the job's (seconds, calibration seconds), where the second is
    the median of calibrations run before each job of the pass: one before a
    long job would miss a change of host speed during it."""
    state, job_times, calibrations, failures = {}, {}, [], []
    if tracer:
        tracer.open(tracing.PASS_SPAN)
    start = time.perf_counter()
    for job in workload.jobs:
        if counter:
            counter.start_job()
        calibrations.append(calibrate())
        if tracer:
            tracer.open(f"job:{job.name}")
        t0 = time.perf_counter()
        try:
            out = job.run(state)
            if reference.setdefault(job.name, out) != out:
                failures.append(f"{job.name}: answer differs from the first pass")
        except Exception:   # a failed job is counted, and the run goes on
            failures.append(f"{job.name}: {traceback.format_exc(limit=-3)}")
        job_times[job.name] = time.perf_counter() - t0
        if tracer:
            tracer.close()
    total = time.perf_counter() - start
    if tracer:
        tracer.close()
    calibration = statistics.median(calibrations)
    return total, {name: (t, calibration) for name, t in job_times.items()}, failures


def job_seconds(passes, name):
    return statistics.median(scaled(p[1][name]) for p in passes)


def pass_seconds(workload, passes, jobs=None):
    """One pass, summed from the median time of each job over the passes."""
    return sum(job_seconds(passes, j.name) for j in jobs or workload.jobs)


def setup_sample(args):
    """A fresh process that only sets up, timed from spawn to exit."""
    calibration = statistics.median(calibrate() for _ in range(3))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                    args.workload, "--seed", str(args.seed), "--seconds", "0",
                    "--setup-only"], check=True)
    return time.perf_counter() - t0, calibration


def end_to_end(workload, passes, setups):
    largest = pass_seconds(workload, passes, [j for j in workload.jobs if j.largest])
    run_s = pass_seconds(workload, passes)
    return {
        "setup_s": (statistics.median(scaled(s) for s in setups), "s"),
        "run_s": (run_s, "s"),
        "largest_s": (largest, "s"),
        "small_s": (run_s - largest, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(self_times, counter, overhead):
    """Per-layer metrics: medians of traced self times, counts, counters."""
    def calls(name):
        return self_times[name][0] if name in self_times else 0

    def secs(*names):
        return sum(self_times[n][1] for n in names if n in self_times)

    c = counter
    return {
        "rationals.ops": (c.ops, "count"),
        "rationals.max_bits": (c.max_bits, "bits"),
        "matrices.elim_calls": (calls("matrices.elim"), "count"),
        "matrices.elim_s": (secs("matrices.elim"), "s"),
        "matrices.elim_cells": (c.elim_cells, "count"),
        "matrices.elim_complex_frac": (_ratio(c.elim_complex, c.elim_calls), "ratio"),
        "matrices.matmul_calls": (calls("matrices.matmul"), "count"),
        "matrices.matmul_s": (secs("matrices.matmul"), "s"),
        "matrices.subspace_calls": (calls("matrices.subspace"), "count"),
        "matrices.subspace_s": (secs("matrices.subspace"), "s"),
        "matrices.smith_s": (secs("matrices.smith"), "s"),
        "polynomials.det_s": (secs("polynomials.det"), "s"),
        "polynomials.eval_calls": (calls("polynomials.eval"), "count"),
        "polynomials.eval_s": (secs("polynomials.eval"), "s"),
        "polynomials.max_terms": (c.max_terms, "count"),
        "weightfilt.calls": (calls("weightfilt"), "count"),
        "weightfilt.s": (secs("weightfilt"), "s"),
        "weightfilt.repeat_ratio": (_ratio(c.repeats["weightfilt"], c.calls["weightfilt"]),
                                    "ratio"),
        "weightfilt.eigen_probe_yield": (_ratio(c.eigen_hits, c.eigen_probes), "ratio"),
        "lmhs.bigrading_calls": (calls("lmhs.bigrading"), "count"),
        "lmhs.bigrading_s": (secs("lmhs.bigrading"), "s"),
        "lmhs.bigrading_repeat_ratio": (_ratio(c.repeats["lmhs.bigrading"],
                                               c.calls["lmhs.bigrading"]), "ratio"),
        "lmhs.verify_s": (secs("lmhs.verify"), "s"),
        "lmhs.assoc_graded_s": (secs("lmhs.assoc_graded"), "s"),
        "orbit.metric_s": (secs("orbit.metric"), "s"),
        "orbit.chern_calls": (calls("orbit.chern"), "count"),
        "orbit.chern_s": (secs("orbit.chern"), "s"),
        "orbit.limit_s": (secs("orbit.limit"), "s"),
        "orbit.factor_s": (secs("orbit.factor"), "s"),
        "cones.dd_calls": (calls("cones.dd"), "count"),
        "cones.dd_s": (secs("cones.dd"), "s"),
        "monomial.s": (secs("monomial", "monomial.w_end"), "s"),
        "monomial.w_end_calls": (calls("monomial.w_end"), "count"),
        "monomial.w_end_repeat_ratio": (_ratio(c.repeats["monomial.w_end"],
                                               c.calls["monomial.w_end"]), "ratio"),
        "horizontal.graded_end_s": (secs("horizontal.graded_end"), "s"),
        "horizontal.kernel_dim_s": (secs("horizontal.kernel_dim"), "s"),
        "horizontal.curvature_s": (secs("horizontal.curvature"), "s"),
        "horizontal.top_block_calls": (calls("horizontal.top_block"), "count"),
        "normpos.s": (secs("normpos"), "s"),
        "chern.s": (secs("chern"), "s"),
        "multiplier.s": (secs("multiplier"), "s"),
        "schemas.parse_s": (secs("schemas.parse"), "s"),
        "report.render_s": (secs("report.render"), "s"),
        "cli.self_s": (secs("cli"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def median_self_times(all_self_times):
    """Per span name: calls of the last pass, median self time over passes."""
    out = {}
    for name, (calls, _) in all_self_times[-1].items():
        out[name] = (calls, statistics.median(st.get(name, (0, 0.0))[1]
                                              for st in all_self_times))
    return out


def measure(workload, args):
    """Passes until the run's time is used up, each followed by one set-up
    in a fresh process, so that both are sampled across the whole run."""
    reference, passes, setups, step = {}, [], [], 0.0
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() + step <= deadline:
        start = time.perf_counter()
        passes.append(run_pass(workload, reference))
        setups.append(setup_sample(args))
        step = time.perf_counter() - start
    while len(setups) < MIN_SETUPS:
        setups.append(setup_sample(args))
    return passes, setups


def traced_pass(workload, reference):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run_pass(workload, reference, tracer=tracer)
    finally:
        tracer.uninstall()
    return result, tracer


def measure_traced(workload, seconds, trace_file):
    """One counting pass, then plain and traced passes in turn."""
    reference, plain, traced, self_times = {}, [], [], []
    deadline = time.perf_counter() + seconds
    counter = tracing.Counter()
    counter.install()
    try:
        counted = run_pass(workload, reference, counter=counter)
    finally:
        counter.uninstall()
    while not traced or (time.perf_counter() + statistics.median(p[0] for p in plain)
                         + statistics.median(p[0] for p in traced) <= deadline):
        plain.append(run_pass(workload, reference))
        result, tracer = traced_pass(workload, reference)
        traced.append(result)
        self_times.append(tracer.self_times())
    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                      "spans": tracer.spans}))
    overhead = pass_seconds(workload, traced) / pass_seconds(workload, plain)
    metrics = per_layer(median_self_times(self_times), counter, overhead)
    return plain, [counted] + plain + traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("HODGECALC_SEED", None)   # reports must not depend on the caller
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the run and its set-up processes, the one calibrated
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    _, workload = build(args.workload, args.seed, ROOT / "src")
    if args.setup_only:
        return 0

    if args.trace:
        trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
        timed, passes, metrics = measure_traced(workload, args.seconds, trace_file)
    else:
        passes, setups = measure(workload, args)
        timed = passes
        metrics = end_to_end(workload, passes, setups)

    failures = [f for p in passes for f in p[2]]
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    attempted = len(passes) * len(workload.jobs)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        **source_identity(),
        "job_s": {j.name: job_seconds(timed, j.name) for j in workload.jobs},
        "job_measured_median_s": {j.name: statistics.median(p[1][j.name][0] for p in timed)
                                  for j in workload.jobs},
        "calibration_median_s": statistics.median(p[1][j.name][1] for p in timed
                                                  for j in workload.jobs),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
