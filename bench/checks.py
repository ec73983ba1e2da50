"""Correctness gate of the benchmark.

Every step outcome is checked for seed-independent invariants: an exit code
the command may legitimately return, output that parses as JSON with every
summary number finite, the summary fields each command promises, and
E#(R) = n for the kernel expectation over the whole line.  Outcomes of the
reference seed are additionally compared with the values stored in
reference.json, with a numeric tolerance (a LAPACK driver change may move
the last bits) and exact exit codes.

An fr-check or semicircle-check exit 1 is a statistical verdict, not a
failure.  Exceptions, exit codes 2-4 and malformed output are failures.
"""

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-6
ABS_TOL = 1e-9
_VERDICT_COMMANDS = ("fr-check", "semicircle-check")


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _numbers(tree):
    if isinstance(tree, dict):
        for value in tree.values():
            yield from _numbers(value)
    elif isinstance(tree, list):
        for value in tree:
            yield from _numbers(value)
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield tree


def _in_unit(x):
    return 0.0 <= x <= 1.0


def _summary_problems(step, exit_code, summary):
    """Field-level invariants of one command's summary."""
    command = step.argv[0]
    n = int(step.option("--n", 0))
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    if command == "counting-experiment":
        need(summary["trials"] == step.trials, "wrong number of counts")
        need(0 <= summary["min"] <= summary["max"] <= n, "count outside [0, n]")
    elif command in ("bulk-fluct", "edge-fluct", "joint-fluct"):
        m = len(step.option("--k").split(","))
        need(all(len(summary[key]) == m for key in ("mean", "var", "ks")), "wrong coordinate count")
        need(all(v > 0 for v in summary["var"]), "non-positive variance")
        need(all(_in_unit(v) for v in summary["ks"]), "KS distance outside [0, 1]")
    elif command == "fr-check":
        k = step.option("--k")
        indices = k.split(",") if k else [str(i) for i in range(1, n + 1)]
        ks = summary["ks_p"]
        need(sorted(ks) == sorted(indices), "wrong index set")
        need(all(_in_unit(r["ks_p"]) and _in_unit(r["d"]) for r in ks.values()), "KS outside [0, 1]")
        need(summary["passed"] == (exit_code == 0), "verdict disagrees with exit code")
    elif command == "semicircle-check":
        need(0.0 < summary["sup_distance"] < 1.0, "sup distance outside (0, 1)")
        need(summary["passed"] == (exit_code == 0), "verdict disagrees with exit code")
    elif command == "kernel":
        expected = summary["expected_count"]
        need(-1e-9 <= expected <= n + 1e-9, "expected count outside [0, n]")
        if "--variance" in step.argv:
            need(summary["variance_count"] > 0.0, "non-positive count variance")
        if "--interval=-inf,inf" in step.argv:
            need(abs(expected - n) <= 1e-6, f"E#(R) = {expected!r} != n = {n}")
    elif command == "cumulants":
        need(summary["c2"] > 0.0 and summary["nodes"] > 0, "empty cumulant report")
    return problems


def _close(got, want, path="summary"):
    """Paths where two summaries differ beyond the tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path}: keys differ"]
        return [p for key in want for p in _close(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in _close(g, w, f"{path}[{i}]")]
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{path}: {got!r} is not a number"]
    if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
        return []
    return [f"{path}: {got!r} != {want!r}"]


def check(step, outcome, reference=None):
    """Problems found in one step's outcome; an empty list means it passed.

    ``outcome`` is the dict ``measure.run_step`` returns; ``reference`` is the
    stored ``{"exit": ..., "summary": ...}`` of the same step at the
    reference seed, or None for other seeds.
    """
    if outcome["error"] is not None:
        return [f"raised {outcome['error']}"]
    exit_code = outcome["exit"]
    allowed = (0, 1) if step.argv[0] in _VERDICT_COMMANDS else (0,)
    if exit_code not in allowed:
        return [f"exit code {exit_code}"]
    summary = outcome["summary"]
    if summary is None:
        try:
            summary = json.loads(outcome["stdout"])["summary"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed output: {exc!r}"]
    if not all(math.isfinite(x) for x in _numbers(summary)):
        return ["non-finite number in summary"]
    try:
        problems = _summary_problems(step, exit_code, summary)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"summary lacks a field: {exc!r}"]
    if reference is not None:
        if exit_code != reference["exit"]:
            problems.append(f"exit code {exit_code} != reference {reference['exit']}")
        problems += _close(summary, reference["summary"])
    return problems
