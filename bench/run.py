"""Benchmark of wigner_fluct: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  The run pins
OPENBLAS_NUM_THREADS/OMP_NUM_THREADS to 1, unsets WIGNER_FLUCT_THREADS and
binds itself to one CPU before numpy loads, then measures the workload in
this interpreter:

* with ``--trace 0`` it first times set-up, ``import wigner_fluct`` plus
  building the CLI parser, in fresh interpreters; it reports ``setup_s``
  (median of those), ``wall_s`` (mean pass time), ``peak_rss_mb`` and
  ``ok_ratio`` (1 - failed/attempted checks).  ``setup_s`` and ``wall_s``
  are scaled to a reference host speed by the calibration kernel of
  measure.py: each set-up time by the kernel's runs just before it, the
  pass time by the kernel's runs before each step of the run;
* with ``--trace 1`` it also runs traced passes and reports the per-layer
  metrics of spans.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (environment, pass and step times, set-up samples,
the first failed checks).  Exit code 2 means the checkout has no
``src/wigner_fluct`` or the arguments are wrong.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7  # fresh interpreters that time set-up, per untraced run
CALIBRATIONS_PER_PROBE = 3
PINNED_THREADS = "1"
SETUP_PROBE = (
    "import time; start = time.perf_counter(); "
    "import wigner_fluct; from wigner_fluct import cli; cli.build_parser(); "
    "print(time.perf_counter() - start)"
)

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_ratio": "1"}


def pin_environment():
    """Thread, CPU and import settings for this process and the set-up
    probes.  One CPU for all, so that the calibration kernel runs on the CPU
    whose speed it stands for."""
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = PINNED_THREADS
    os.environ.pop("WIGNER_FLUCT_THREADS", None)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))


def setup_seconds():
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=60
    )
    return float(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description="wigner_fluct benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "wigner_fluct" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'wigner_fluct'}", file=sys.stderr)
        return 2

    pin_environment()
    import wigner_fluct

    origin = Path(wigner_fluct.__file__).resolve()
    if SRC not in origin.parents:
        print(f"wigner_fluct was imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2
    import measure

    setups, scales = [], []  # raw seconds and speed scale of each set-up probe
    if not args.trace:
        for _ in range(SETUP_PROBES):
            scales.append(measure.speed_scale([measure.calibrate() for _ in range(CALIBRATIONS_PER_PROBE)]))
            setups.append(setup_seconds())
    tally, metrics, detail = measure.measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    if args.trace:
        import spans

        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in spans.PER_LAYER}
    else:
        metrics["setup_s"] = statistics.median(k * t for k, t in zip(scales, setups))
        metrics["ok_ratio"] = 1.0 - tally.failed / tally.attempted
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        detail.update(setup_samples_s=setups, setup_scales=scales)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail,
              "env": measure.environment()}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
