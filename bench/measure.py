"""Passes over a workload inside the measuring process (see run.py).

A run is a warm-up pass at the reference seed, checked against
reference.json, then timed passes at the run's seed until the time window
is used, each checked for the seed-independent invariants of checks.py.
With tracing, traced and untraced passes alternate (traced, untraced,
traced, ...); the tracer is installed only around traced passes.

Small shared hosts switch between a fast and a slow state (about 1.5x
apart on a 2-vCPU VM) many times a second, and the share of slow time
drifts over minutes, so raw pass times of two runs of the same code can
differ by half.  Each run therefore also times a fixed calibration kernel just before
every step, and reports its mean pass time scaled by CALIBRATION_REF_S /
(the kernel's mean time in the same run): seconds on a host where the
kernel takes CALIBRATION_REF_S.  Means, not medians or minima, because a
long step's time grows with the share of slow time it spans, as the mean of
many short kernel runs does.  The kernel is the benchmark's own code, so a
change to the package does not move it.
"""

import io
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy
import scipy.linalg

import checks
import wigner_fluct
from wigner_fluct import cli
from workloads import REFERENCE_SEED

MIN_PASSES = 2
MIN_TRACED_PASSES = 2
# calibrate() on a 2-vCPU x86-64 VM in its fast state, OpenBLAS on one thread.
CALIBRATION_REF_S = 0.0075
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "WIGNER_FLUCT_THREADS",
)


def run_step(step, seed):
    """Run one step; returns its exit code and captured output (or error)."""
    outcome = {"exit": None, "stdout": None, "summary": None, "counts": None, "error": None}
    try:
        if step.is_api:
            outcome["counts"] = wigner_fluct.counting_experiment(
                int(step.option("--n")),
                int(step.option("--beta")),
                float(step.option("--cut")),
                step.trials,
                seed,
            )
            outcome["exit"] = 0
        else:
            out, err = io.StringIO(), io.StringIO()
            argv = [*step.argv, "--seed", str(seed), "--no-timestamp"]
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    outcome["exit"] = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a usage error this way
                outcome["exit"] = exc.code if isinstance(exc.code, int) else 2
            outcome["stdout"] = out.getvalue()
    except Exception as exc:  # a failed step is counted, the run goes on
        outcome["error"] = f"{type(exc).__name__}: {exc}"
    return outcome


def run_pass(workload, seed, calibrations):
    """(per-step seconds, outcomes) of one pass; appends to ``calibrations``
    the time of calibrate() run before each step."""
    times, outcomes = [], []
    for step in workload.steps:
        calibrations.append(calibrate())
        t = time.perf_counter()
        outcomes.append(run_step(step, seed))
        times.append(time.perf_counter() - t)
    for outcome in outcomes:
        counts = outcome.pop("counts")
        if counts is not None:
            outcome["summary"] = {
                "trials": int(counts.size),
                "mean": float(counts.mean()),
                "var": float(counts.var(ddof=1)) if counts.size > 1 else 0.0,
                "min": int(counts.min()),
                "max": int(counts.max()),
            }
    return times, outcomes


_MEDIUM = numpy.random.default_rng(0).standard_normal((200, 200))
_MEDIUM = _MEDIUM + _MEDIUM.T


def calibrate():
    """Seconds of one run of a fixed kernel with the mix of work the
    workloads spend their time in: a small Monte Carlo loop (random draws,
    order-8 dense and order-40 selected tridiagonal eigensolves), dict work
    in the interpreter, and one dense eigensolve of order 200."""
    rng = numpy.random.default_rng(7)
    start = time.perf_counter()
    picked = []
    for _ in range(60):
        a = rng.standard_normal((8, 8))
        small = numpy.linalg.eigvalsh((a + a.T) / 2)
        diag, offdiag = rng.standard_normal(40), numpy.abs(rng.standard_normal(39))
        middle = scipy.linalg.eigvalsh_tridiagonal(diag, offdiag, select="i", select_range=(20, 20))
        picked.append(float(small[3]) + float(middle[0]))
    numpy.searchsorted(numpy.sort(numpy.array(picked)), 0.0)
    sums = {}
    for i in range(6000):
        sums[i % 17] = sums.get(i % 17, 0) + i
    numpy.linalg.eigvalsh(_MEDIUM)
    return time.perf_counter() - start


def speed_scale(calibrations):
    """Factor that turns seconds measured alongside these kernel times into
    reference-host seconds."""
    return CALIBRATION_REF_S / statistics.fmean(calibrations)


def environment():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    names = sorted(set(THREAD_VARS) | {k for k in os.environ if "THREAD" in k})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "bound_cpus": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in names},
    }


class Tally:
    """Attempted and failed checks of one run, with the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            line = f"{label}: {'; '.join(problems)}"
            if len(self.problems) < 20:
                self.problems.append(line)
            print(f"benchmark check failed: {line}", file=sys.stderr)

    def steps(self, workload, outcomes, reference=None):
        for step, outcome in zip(workload.steps, outcomes):
            ref = reference[step.text] if reference is not None else None
            self.add(step.text, checks.check(step, outcome, ref))


def _mean_pass(passes):
    return statistics.fmean(sum(p) for p in passes)


def measure(workload, seed, seconds, trace):
    """Run the workload; returns the tally of checks, the metrics and the
    run's details."""
    if trace:
        import spans  # untraced runs never load the tracer
    tally = Tally()
    _, outcomes = run_pass(workload, REFERENCE_SEED, [])
    tally.steps(workload, outcomes, checks.load_reference()[workload.name])

    plain, traced = [], []  # per-step times of each untraced and traced pass
    calibrations = []
    tracers, exact = [], []
    window = time.perf_counter()
    while True:
        enough = len(plain) >= MIN_PASSES if not trace else (
            len(traced) >= MIN_TRACED_PASSES and len(plain) >= 1
        )
        if enough:
            estimate = statistics.median([sum(p) for p in plain + traced])
            if time.perf_counter() - window + estimate > seconds:
                break
        if trace and (len(plain) + len(traced)) % 2 == 0:
            tracer = spans.Tracer()
            with tracer:
                times, outcomes = run_pass(workload, seed, calibrations)
            tracers.append(tracer)
            traced.append(times)
            out_bytes = sum(len(o["stdout"].encode()) for o in outcomes if o["stdout"])
            exact.append({**spans.exact_counts(tracer), "out_bytes": out_bytes})
        else:
            times, outcomes = run_pass(workload, seed, calibrations)
            plain.append(times)
        tally.steps(workload, outcomes)

    scale = speed_scale(calibrations)
    detail = {
        "speed_scale": scale,
        "calibration_s": calibrations,
        "passes": len(plain),
        "pass_s": [sum(p) for p in plain],
        "step_s": {step.text: [p[i] for p in plain] for i, step in enumerate(workload.steps)},
    }
    if trace:
        tally.add("exact counts repeat across traced passes", [
            f"traced pass {i} differs" for i, e in enumerate(exact) if e != exact[0]
        ])
        eig_read = sum(step.reads * step.trials for step in workload.steps)
        metrics = spans.layer_metrics(tracers, eig_read, exact[0]["out_bytes"])
        metrics["trace.overhead_s"] = scale * (_mean_pass(traced) - _mean_pass(plain))
        detail.update(traced_passes=len(traced), traced_pass_s=[sum(p) for p in traced])
    else:
        metrics = {
            "wall_s": scale * _mean_pass(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    detail["problems"] = tally.problems
    return tally, metrics, detail
