"""Print, for every workload, the end-to-end metrics of one untraced run and
the per-layer table of a traced run, checking that the exact counts repeat
in a second traced run.  Every run uses seed 1 and BENCHMARK.json's
run_seconds.

    python3 bench/report.py

Exit code 1 if any run failed, failed a check, or a count did not repeat.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload, trace):
    """Result of one run.py run, or None if it exited with an error."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        print(f"  run with --trace {trace} exited with code {proc.returncode}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ok = True
    for name in WORKLOADS:
        print(f"== {name} (seed {SEED}, {SECONDS} s per run)")
        plain = run(name, 0)
        traced = [run(name, 1) for _ in range(2)]
        if plain is None or None in traced:
            print("  fail_ratio: a run failed, no metrics")
            ok = False
            continue
        for metric, entry in plain["metrics"].items():
            if metric != "ok_ratio":
                print(f"  {metric:<28}{entry['value']:>16.6g} {entry['unit']}")
        fail_ratio = plain["failed"] / plain["attempted"]
        print(f"  {'fail_ratio':<28}{fail_ratio:>16.6g} 1   ({plain['failed']} of {plain['attempted']} checks)")
        print("  per layer (traced run 1; exact counts compared with traced run 2):")
        first, second = (t["metrics"] for t in traced)
        for metric, unit in spans.PER_LAYER:
            value = first[metric]["value"]
            mark = ""
            if metric in spans.EXACT:
                same = value == second[metric]["value"]
                ok &= same
                mark = "  same" if same else f"  DIFFERS: {second[metric]['value']}"
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {metric:<28}{shown:>16} {unit:<6}{mark}")
        ok &= plain["correct"] and all(t["correct"] for t in traced)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
