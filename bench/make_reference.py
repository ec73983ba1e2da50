"""Regenerate reference.json: every workload's step outputs at the
reference seed, which each run's warm-up pass is checked against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 bench/make_reference.py

Only regenerate when a change is meant to alter results; a change that
claims a speed-up must leave this file alone.
"""

import json
import sys

import checks
import measure
from workloads import REFERENCE_SEED, WORKLOADS


def main():
    reference = {}
    for workload in WORKLOADS.values():
        _, outcomes = measure.run_pass(workload, REFERENCE_SEED, [])
        entries = {}
        for step, outcome in zip(workload.steps, outcomes):
            if outcome["error"] is not None:
                sys.exit(f"{step.text}: {outcome['error']}")
            summary = outcome["summary"] or json.loads(outcome["stdout"])["summary"]
            entries[step.text] = {"exit": outcome["exit"], "summary": summary}
        reference[workload.name] = entries
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
