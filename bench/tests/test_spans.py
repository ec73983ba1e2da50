"""Tests of the benchmark's tracer, checks and metadata.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import inspect
import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Step  # noqa: E402


def leftover_wrappers():
    """(namespace, attribute) pairs of the package that still hold a span wrapper."""
    found = []
    for module in spans.package_modules():
        for attr, obj in vars(module).items():
            if hasattr(obj, "__span__"):
                found.append((module.__name__, attr))
            if inspect.isfunction(obj):
                held = (obj.__defaults__ or ()) + tuple((obj.__kwdefaults__ or {}).values())
                if any(hasattr(d, "__span__") for d in held):
                    found.append((module.__name__, f"{attr} defaults"))
    return found


def test_self_time_is_duration_minus_child_spans():
    tracer = spans.Tracer()
    child = tracer.wrap("t.child", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        child()
        child()

    tracer.wrap("t.parent", body)()
    assert tracer.calls == {"t.child": 2, "t.parent": 1}
    assert tracer.self_time["t.child"] == tracer.total["t.child"]
    # the parent's covered time also holds the tracer's bookkeeping for its
    # children, a few microseconds
    expected = tracer.total["t.parent"] - tracer.total["t.child"]
    assert tracer.self_time["t.parent"] == pytest.approx(expected, abs=1e-3)
    assert 0.01 <= tracer.self_time["t.parent"] < 0.02


def test_wrappers_reach_every_reference_and_are_gone_afterwards():
    import wigner_fluct
    from wigner_fluct import cli, ensembles, semicircle, stats

    mix, ks_one = ensembles.mix_trial_seed, stats.ks_one_sample
    tracer = spans.Tracer()
    with tracer:
        # imported by name into other modules and the package namespace
        for holder in (ensembles, stats, cli, wigner_fluct):
            assert holder.mix_trial_seed.__span__ == "ensembles.mix_trial_seed"
        assert stats.bulk_center_scale.__span__ == "semicircle.bulk_center_scale"
        # held as a default argument
        assert ks_one.__defaults__[0].__span__ == "stats.standard_normal_cdf"
        with redirect_stdout(io.StringIO()):
            code = cli.main("bulk-fluct --n 20 --k 10 --beta 1 --trials 5 --no-timestamp".split())
    assert code == 0
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["stats.run_mc"] == 1
    assert tracer.calls["ensembles.sample_tridiag_beta"] == 5
    assert tracer.calls["ensembles.mix_trial_seed"] == 5
    assert tracer.calls["stats.standard_normal_cdf"] == 5
    assert tracer.counters["mc_trials"] == 5
    assert leftover_wrappers() == []
    assert cli.mix_trial_seed is stats.mix_trial_seed is wigner_fluct.mix_trial_seed is mix
    assert ks_one.__defaults__[0] is stats.standard_normal_cdf
    assert semicircle.bulk_center_scale is stats.bulk_center_scale


def test_layer_metrics_cover_the_declared_names():
    from wigner_fluct import cli

    tracer = spans.Tracer()
    with tracer, redirect_stdout(io.StringIO()):
        cli.main("fr-check --which gue --n 3 --trials 4 --no-timestamp".split())
    metrics = spans.layer_metrics([tracer], eig_read=4 * (3 + 4 + 3), out_bytes=1)
    names = {name for name, _ in spans.PER_LAYER} - {"trace.overhead_s"}
    assert set(metrics) == names
    # GOE_3 and GOE_4 solved as is, GUE_3 through its real 6x6 embedding
    assert metrics["spectra.solve_dim_ratio"] == (3 + 4 + 6) / (3 + 4 + 3)
    assert metrics["spectra.eig_used_ratio"] == (3 + 4 + 3) / (3 + 4 + 6)
    assert metrics["ensembles.sample_calls"] == 12


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])


def _outcome(exit_code, summary):
    return {"exit": exit_code, "stdout": json.dumps({"summary": summary}), "summary": None, "error": None}


def test_checks_accept_a_verdict_but_not_an_error_exit():
    step = Step("fr-check --which gse --n 1 --trials 10")
    rejected = {"ks_p": {"1": {"d": 0.5, "ks_p": 0.001, "passed": False}}, "passed": False}
    assert checks.check(step, _outcome(1, rejected)) == []
    assert checks.check(step, _outcome(2, rejected)) == ["exit code 2"]
    assert checks.check(step, {**_outcome(0, {}), "error": "ValueError: x"}) == ["raised ValueError: x"]
    assert checks.check(step, {**_outcome(0, {}), "stdout": "not json"})[0].startswith("malformed")


def test_checks_compare_with_reference_by_tolerance():
    step = Step("kernel --n 4 --interval=-inf,inf")
    reference = {"exit": 0, "summary": {"expected_count": 4.0}}
    assert checks.check(step, _outcome(0, {"expected_count": 4.0 + 1e-12}), reference) == []
    assert checks.check(step, _outcome(0, {"expected_count": 3.9}), reference)
    assert checks.check(step, _outcome(0, {"expected_count": float("nan")})) == [
        "non-finite number in summary"
    ]
