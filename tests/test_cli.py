import argparse
import json
import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy

from wigner_fluct import cli, kernel, spectra, stats
from wigner_fluct.ensembles import EnsembleKind, mix_trial_seed
from wigner_fluct.errors import (
    InvalidSizeError, NumericalFailureError, UnsupportedError,
)


def run(argv):
    return cli.main(list(argv))


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of each thread pool stats starts, in order."""
    started = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(stats, "ThreadPoolExecutor", RecordingPool)
    return started


class TestParsing:
    def test_sample_config_valid(self):
        args = cli.build_parser().parse_args(
            ["sample", "--ensemble", "goe", "--n", "100", "--seed", "7"]
        )
        assert args.command == "sample"
        assert args.n == 100 and args.seed == 7

    def test_bulk_config_valid(self):
        args = cli.build_parser().parse_args(
            ["bulk-fluct", "--n", "500", "--k", "250", "--beta", "1", "--trials", "2000"]
        )
        assert (args.n, args.k, args.beta, args.trials) == (500, 250, 1, 2000)

    def test_bad_beta_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["bulk-fluct", "--n", "10", "--k", "5", "--beta", "3"])
        assert exc.value.code == 2
        assert "{1,2,4}" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(
                ["sample", "--ensemble", "goe", "--n", "4", "--frobnicate"]
            )
        assert exc.value.code == 2

    def test_invalid_trials_names_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["bulk-fluct", "--n", "10", "--k", "5", "--trials", "0"])
        assert "--trials" in capsys.readouterr().err

    def test_one_skeleton_and_one_number_parser(self):
        # every command gets --n, --seed and the output flags from one helper,
        # and every scalar number flag is read by _number_arg
        actions = cli.build_parser()._actions
        (sub,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
        factory = cli._number_arg("--x", int, cli._positive).__qualname__
        assert set(sub.choices) == {
            "sample", "bulk-fluct", "edge-fluct", "joint-fluct", "fr-check", "kernel",
            "cumulants", "semicircle-check",
        }
        for name, p in sub.choices.items():
            flags = {flag for a in p._actions for flag in a.option_strings}
            assert {"--n", "--seed", "--out", "--no-timestamp"} <= flags, name
            for a in p._actions:
                if a.dest == "interval":
                    assert a.type is cli._interval_arg
                elif a.dest == "k" and name in ("joint-fluct", "fr-check"):
                    assert a.type.__qualname__ == "_index_list.<locals>.parse"
                elif a.type is not None:
                    assert a.type.__qualname__ == factory, (name, a.dest)
        checks = {p._option_string_actions["--check"].help for n, p in sub.choices.items()
                  if n.endswith("-fluct")}
        assert checks == {"exit 1 unless thresholds hold"}

    def test_ensemble_choices_are_the_kinds(self):
        # one name per ensemble: --ensemble offers EnsembleKind's values, no second table
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        takers = {name: p._option_string_actions["--ensemble"].choices
                  for name, p in sub.choices.items() if "--ensemble" in p._option_string_actions}
        assert sorted(takers) == ["bulk-fluct", "edge-fluct", "joint-fluct", "sample"]
        for choices in takers.values():
            assert choices == sorted(k.value for k in EnsembleKind)

    def test_numbers_are_plain_python_numbers(self):
        args = cli.build_parser().parse_args(
            ["bulk-fluct", "--n", "10", "--k", "5", "--ks-max", "0.5", "--seed", "3"]
        )
        assert type(args.n) is int and type(args.seed) is int and type(args.k) is int
        assert type(args.ks_max) is float and type(args.var_lo) is float
        assert json.dumps([args.n, args.seed, args.k, args.ks_max]) == "[10, 3, 5, 0.5]"


FLUCT_KEYS = {"ensemble", "n", "beta", "regime", "indices", "thetas", "gamma", "trials"}

# (argv, plan keys, meta.thresholds) of one run per subcommand; the
# bulk-fluct run names an ensemble that implies its beta, so that any
# --ensemble value can follow it
SCHEMA_CASES = {
    "sample": (["--ensemble", "goe", "--n", "3"], {"ensemble", "n", "beta"}, {}),
    "bulk-fluct": (
        ["--n", "20", "--k", "10", "--ensemble", "goe", "--trials", "3"],
        FLUCT_KEYS,
        {"ks_max": 0.08, "var_lo": 0.8, "var_hi": 1.25},
    ),
    "edge-fluct": (
        ["--n", "40", "--k", "12", "--beta", "2", "--trials", "3"],
        FLUCT_KEYS,
        {"ks_max": 0.1, "var_lo": 0.75, "var_hi": 1.3},
    ),
    "joint-fluct": (
        ["--n", "40", "--k", "10,20", "--beta", "1", "--trials", "3"],
        FLUCT_KEYS,
        {"corr_tol": 0.12},
    ),
    "fr-check": (
        ["--which", "gse", "--n", "2", "--trials", "3"],
        {"which", "n", "indices", "trials"},
        {"p_min": 0.01},
    ),
    "kernel": (["--n", "3", "--interval=0,inf"], {"n", "interval"}, {}),
    "cumulants": (["--n", "4", "--interval=0,2", "--order", "16"], {"n", "interval", "order"}, {}),
    "semicircle-check": (["--n", "20"], {"n", "path"}, {"sup_max": 0.05}),
}


# the file outputs of each command; every other command refuses these flags
FILE_FLAGS = {
    "bulk-fluct": ("--csv", "--svg", "--per-trial"),
    "edge-fluct": ("--csv", "--svg", "--per-trial"),
    "joint-fluct": ("--csv", "--svg", "--per-trial"),
    "semicircle-check": ("--svg",),
}


class TestSchema:
    @pytest.mark.parametrize("command", sorted(SCHEMA_CASES))
    def test_payload_blocks(self, command, tmp_path):
        argv, plan_keys, thresholds = SCHEMA_CASES[command]
        out = tmp_path / "schema.json"
        assert run([command, *argv, "--out", str(out), "--no-timestamp"]) in (0, 1)
        payload = json.loads(out.read_text())
        assert set(payload) == {"meta", "plan", "summary"}
        meta = payload["meta"]
        # meta is the provenance and plan the run: no key is in both
        assert set(meta) == {"schema_version", "command", "version", "seed", "thresholds", "env"}
        assert meta["schema_version"] == 2
        assert meta["command"] == command and meta["seed"] == 0
        assert set(payload["plan"]) == plan_keys
        assert not set(payload["plan"]) & set(meta)
        assert meta["thresholds"] == thresholds
        # one name per ensemble: the plan echoes every --ensemble value as given
        if command in ("sample", "bulk-fluct"):
            for kind in EnsembleKind:
                beta = ["--beta", "4"] if kind is EnsembleKind.TRIDIAG_BETA else []
                flags = ["--ensemble", kind.value, *beta, "--out", str(out)]
                assert run([command, *argv, *flags]) == 0
                assert json.loads(out.read_text())["plan"]["ensemble"] == kind.value

    @pytest.mark.parametrize("command", ["sample", "bulk-fluct"])
    def test_seed_range(self, command, tmp_path):
        # 2**64 would alias seed 0 if it were masked to 64 bits
        argv = [command, *SCHEMA_CASES[command][0], "--no-timestamp"]
        for seed in (-1, 2**64, 2**64 + 1):
            with pytest.raises(SystemExit) as exc:
                run([*argv, "--seed", str(seed)])
            assert exc.value.code == 2
        out = tmp_path / "top.json"
        assert run([*argv, "--seed", str(2**64 - 1), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["seed"] == 2**64 - 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "argument --seed: --seed must be >= 0, got -1"),
            (
                "--seed",
                str(2**64),
                f"argument --seed: --seed must be < 2**64, got {2**64}",
            ),
            ("--beta", "3", "argument --beta: --beta must be one of {1,2,4}, got 3"),
            ("--n", "x", "argument --n: --n expects an integer, got 'x'"),
            ("--ks-max", "x", "argument --ks-max: --ks-max expects a finite number, got 'x'"),
            # the quadrature order discretize_operator accepts
            ("--order", "8", "argument --order: --order must be >= 16, got 8"),
            (
                "--interval",
                "a,1",
                "argument --interval: --interval endpoints must be numbers, got 'a,1'",
            ),
        ],
    )
    def test_parse_error_messages(self, flag, value, message, capsys):
        command = {"--order": "cumulants", "--interval": "kernel"}.get(flag, "bulk-fluct")
        argv = [command, *SCHEMA_CASES[command][0], flag, value]
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"wigner-fluct {command}: error: {message}"

    THRESHOLD_FLAGS = [
        ("bulk-fluct", "--ks-max"),
        ("bulk-fluct", "--var-lo"),
        ("bulk-fluct", "--var-hi"),
        ("joint-fluct", "--corr-tol"),
        ("fr-check", "--p-min"),
        ("semicircle-check", "--threshold"),
    ]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command, flag", THRESHOLD_FLAGS)
    def test_non_finite_threshold_exits_2(self, command, flag, value, capsys):
        # a nan bound never passes and inf is not JSON; errors.finite decides
        argv = [command, *SCHEMA_CASES[command][0], flag, value]
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: wigner-fluct {command}")
        assert err[-1] == f"wigner-fluct {command}: error: argument {flag}: {flag} must be finite"

    def test_every_payload_is_strict_json(self, tmp_path):
        # RFC 8259 has no NaN or Infinity token: an infinite --interval
        # endpoint is echoed as a string
        def reject(token):
            raise ValueError(f"non-JSON token {token}")

        out = tmp_path / "strict.json"
        for command, (argv, *_) in sorted(SCHEMA_CASES.items()):
            assert run([command, *argv, "--out", str(out)]) in (0, 1)
            payload = json.loads(out.read_text(), parse_constant=reject)
            if command == "kernel":
                assert payload["plan"]["interval"] == [0.0, "inf"]
        # on the whole line the count variance is 0 and neither ratio is finite
        assert run(["cumulants", "--n", "5", "--interval=-inf,inf", "--out", str(out)]) == 0
        summary = json.loads(out.read_text(), parse_constant=reject)["summary"]
        assert summary["c2"] == 0.0
        assert summary["c3_normalized"] is None and summary["c4_normalized"] is None

    @pytest.mark.parametrize("flag", ["--csv", "--svg", "--per-trial"])
    @pytest.mark.parametrize("command", sorted(SCHEMA_CASES))
    def test_output_flag_writes_or_is_refused(self, command, flag, tmp_path, capsys):
        out, target = tmp_path / "run.json", tmp_path / "target"
        value = [] if flag == "--per-trial" else [str(target)]
        argv = [command, *SCHEMA_CASES[command][0], "--out", str(out), flag, *value]
        if flag in FILE_FLAGS.get(command, ()):
            assert run(argv) in (0, 1)
            if flag == "--per-trial":
                assert "per_trial" in json.loads(out.read_text())
            else:
                assert target.stat().st_size > 0
        else:
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            assert not out.exists() and not target.exists()


class TestSampleCommand:
    def test_writes_sorted_spectrum(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(
            ["sample", "--ensemble", "gue", "--n", "12", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        eigs = payload["summary"]["eigenvalues"]
        assert len(eigs) == 12
        assert eigs == sorted(eigs)
        assert payload["meta"]["schema_version"] == 2

    def test_meta_records_library_versions(self, tmp_path):
        out = tmp_path / "env.json"
        assert run(["sample", "--ensemble", "goe", "--n", "3", "--out", str(out)]) == 0
        env = json.loads(out.read_text())["meta"]["env"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "threads"}
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert set(env["blas"]) == {"numpy", "scipy"}
        assert all(isinstance(v, str) and v for v in env["blas"].values())

    def test_meta_records_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "env.json"
        assert run(["sample", "--ensemble", "goe", "--n", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["env"]["threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None
        }

    def test_meta_blas_without_dict_config(self, tmp_path, monkeypatch):
        monkeypatch.setattr(np, "show_config", lambda: None)
        out = tmp_path / "env.json"
        assert run(["sample", "--ensemble", "goe", "--n", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["env"]["blas"]["numpy"] == "unknown"

    def test_tridiag_needs_beta(self, capsys):
        code = run(["sample", "--ensemble", "tridiag", "--n", "5"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["invalid configuration: beta is required for the tridiag ensemble"]


class TestKernelCommand:
    def test_whole_line_count(self, tmp_path):
        out = tmp_path / "k.json"
        code = run(["kernel", "--n", "7", "--interval=-inf,inf", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["summary"]["expected_count"] - 7.0) <= 1e-8

    def test_variance_flag(self, tmp_path):
        out = tmp_path / "kv.json"
        code = run(
            ["kernel", "--n", "1", "--interval=0,inf", "--variance", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["summary"]["variance_count"] - 0.25) <= 1e-6

    def test_variance_runs_one_gram_factorization(self, tmp_path, monkeypatch):
        calls = []
        half_line_gram = kernel._half_line_gram

        def counting_gram(n, x):
            calls.append(n)
            return half_line_gram(n, x)

        monkeypatch.setattr(kernel, "_half_line_gram", counting_gram)
        out = tmp_path / "kv.json"
        code = run(["kernel", "--n", "50", "--interval=-1,2", "--variance", "--out", str(out)])
        assert code == 0
        assert calls == [50]
        # the shared factorization gives what the public functions give alone
        summary = json.loads(out.read_text())["summary"]
        assert summary == {
            "expected_count": kernel.expected_count(50, (-1.0, 2.0)),
            "variance_count": kernel.variance_count(50, (-1.0, 2.0)),
        }
        assert calls == [50, 50, 50]


    @pytest.mark.parametrize("command", ["kernel", "cumulants"])
    @pytest.mark.parametrize("interval", ["2,1", "1,1", "nan,1"])
    def test_unordered_interval_is_kernels_shape_error(self, command, interval, tmp_path, capsys):
        # the CLI leaves the pair to kernel._clip_interval, whose strictly_increasing
        # refuses NaN as data; nothing is written
        out = tmp_path / "k.json"
        assert run([command, "--n", "5", f"--interval={interval}", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        wording = "must not be NaN" if "nan" in interval else "must be strictly increasing"
        assert err[0] == f"invalid configuration: interval {wording}"
        assert not out.exists()


class TestFluctCommands:
    def test_bulk_artifacts_and_determinism(self, tmp_path):
        base = [
            "bulk-fluct", "--n", "80", "--k", "40", "--beta", "1",
            "--trials", "30", "--seed", "9", "--no-timestamp",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        csv = tmp_path / "a.csv"
        svg = tmp_path / "a.svg"
        assert run(base + ["--out", str(out1), "--csv", str(csv), "--svg", str(svg)]) == 0
        assert run(base + ["--out", str(out2), "--threads", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        lines = csv.read_text().splitlines()
        assert lines[0] == "X_1"
        assert len(lines) == 31

        svg_text = svg.read_text()
        assert svg_text.startswith("<svg")
        assert "<rect" in svg_text and "<polyline" in svg_text

    def test_per_trial_embedding(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(
            [
                "bulk-fluct", "--n", "60", "--k", "30", "--beta", "2", "--trials", "5",
                "--seed", "1", "--per-trial", "--out", str(out), "--no-timestamp",
            ]
        ) == 0
        payload = json.loads(out.read_text())
        assert len(payload["per_trial"]) == 5
        assert payload["summary"]["lambda_pred"] == [[1.0]]

    def test_joint_schema_fields(self, tmp_path):
        out = tmp_path / "j.json"
        csv = tmp_path / "j.csv"
        assert run(
            [
                "joint-fluct", "--n", "100", "--k", "40,60", "--beta", "1",
                "--trials", "25", "--seed", "2", "--out", str(out),
                "--csv", str(csv), "--no-timestamp",
            ]
        ) == 0
        payload = json.loads(out.read_text())
        summary = payload["summary"]
        for field in ("mean", "var", "corr", "lambda_pred", "ks", "pass"):
            assert field in summary
        assert np.shape(summary["corr"]) == (2, 2)
        assert payload["plan"]["thetas"]
        lines = csv.read_text().splitlines()
        assert lines[0] == "X_1,X_2"
        assert len(lines) == 26

    def test_reruns_differ_only_in_timestamp(self, tmp_path):
        base = [
            "bulk-fluct", "--n", "60", "--k", "30", "--beta", "1",
            "--trials", "10", "--seed", "8",
        ]
        out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
        assert run(base + ["--out", str(out1)]) == 0
        assert run(base + ["--out", str(out2)]) == 0
        p1 = json.loads(out1.read_text())
        p2 = json.loads(out2.read_text())
        p1["meta"].pop("timestamp")
        p2["meta"].pop("timestamp")
        assert p1 == p2

    def test_svg_title_reads_the_plan_beta(self, tmp_path):
        # --beta is not given: the ensemble implies beta = 2
        svg = tmp_path / "gue.svg"
        argv = ["bulk-fluct", "--ensemble", "gue", "--n", "40", "--k", "20", "--trials", "5"]
        assert run(argv + ["--out", str(tmp_path / "gue.json"), "--svg", str(svg)]) == 0
        assert "bulk fluctuation, n=40, k=20, beta=2</text>" in svg.read_text()

    def test_threads_start_a_pool_and_keep_bytes(self, tmp_path, monkeypatch, pools):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        base = [
            "bulk-fluct", "--n", "50", "--k", "25", "--beta", "1",
            "--trials", "60", "--seed", "4", "--no-timestamp",
        ]
        out1, out4 = tmp_path / "t1.json", tmp_path / "t4.json"
        assert run(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert pools == []
        assert run(base + ["--threads", "4", "--out", str(out4)]) == 0
        assert pools == [4]
        assert out1.read_bytes() == out4.read_bytes()

    @pytest.mark.parametrize("cpus, started", [(3, [3]), (64, [5]), (None, [])])
    def test_pool_never_exceeds_trials_or_cpus(self, cpus, started, monkeypatch, pools):
        # os.cpu_count() may be None; a pool of one runs serially
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        argv = ["bulk-fluct", "--n", "20", "--k", "10", "--beta", "1", "--trials", "5",
                "--threads", "100000", "--no-timestamp"]
        assert run(argv) == 0
        assert pools == started


    # per command: the --k flag, bounds that fail for any data (a KS distance
    # or correlation error of 0) and bounds that hold for any data
    LOOSE = ["--ks-max", "1", "--var-lo", "0", "--var-hi", "1e9"]
    CHECK_CASES = {
        "bulk-fluct": ("40", ["--ks-max", "0"], LOOSE),
        "edge-fluct": ("10", ["--ks-max", "0"], LOOSE),
        "joint-fluct": ("40,60", ["--corr-tol", "0"], ["--corr-tol", "2"]),
    }

    @pytest.mark.parametrize("command", sorted(CHECK_CASES))
    def test_check_exit_code_follows_the_verdict(self, tmp_path, command):
        k, failing, holding = self.CHECK_CASES[command]
        out = tmp_path / "c.json"
        base = [
            command, "--n", "100", "--k", k, "--beta", "1", "--trials", "20",
            "--seed", "3", "--out", str(out), "--no-timestamp",
        ]
        assert run(base + failing + ["--check"]) == 1
        assert not all(rec["passed"] for rec in json.loads(out.read_text())["summary"]["pass"])
        # without --check a failed bound is only recorded
        assert run(base + failing) == 0
        assert run(base + holding + ["--check"]) == 0
        assert all(rec["passed"] for rec in json.loads(out.read_text())["summary"]["pass"])


class TestFrCheckCommand:
    def test_gue_identity_smoke(self, tmp_path):
        out = tmp_path / "fr.json"
        code = run(
            [
                "fr-check", "--which", "gue", "--n", "4", "--trials", "400",
                "--seed", "12", "--k", "2,4", "--out", str(out), "--no-timestamp",
            ]
        )
        payload = json.loads(out.read_text())
        assert set(payload["summary"]["ks_p"]) == {"2", "4"}
        for rec in payload["summary"]["ks_p"].values():
            assert 0.0 <= rec["ks_p"] <= 1.0
        assert code in (0, 1)

    def test_k_above_n_rejected(self, capsys):
        argv = ["fr-check", "--which", "gue", "--n", "4", "--trials", "10", "--k", "9"]
        assert run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["invalid configuration: --k must be <= 4, got 9"]
        # an index out of range is the integer rule's InvalidSizeError, as in coordinates
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(InvalidSizeError, match="^--k must be <= 4, got 9$"):
            args.run(args)

    @pytest.mark.parametrize(
        "text, message",
        [("2,0", "--k must be >= 1, got 0"), ("2,x", "--k expects an integer, got 'x'")],
    )
    def test_each_k_index_parsed_like_an_integer_flag(self, text, message, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fr-check", "--which", "gue", "--n", "4", "--k", text])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument --k: {message}")

    def test_repeated_k_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fr-check", "--which", "gue", "--n", "4", "--trials", "10", "--k", "3,3"])
        assert exc.value.code == 2
        assert "--k indices must be distinct, got '3,3'" in capsys.readouterr().err

    def test_samples_refuse_an_unknown_side_or_no_trials(self):
        # "GUE" ran the GSE decimation branch; 0 trials failed later with an IndexError
        with pytest.raises(UnsupportedError, match="which must be one of {gue,gse}, got GUE"):
            cli.fr_check_samples("GUE", 4, 3, 0)
        with pytest.raises(InvalidSizeError, match="trials must be >= 1, got 0"):
            cli.fr_check_samples("gue", 4, 0, 0)
        left, right = cli.fr_check_samples("gse", 2, np.int64(3), 0)
        assert left.shape == right.shape == (3, 2)

    def test_threads_flag_refused(self, capsys):
        # only the fluctuation commands run their trials on a pool
        with pytest.raises(SystemExit) as exc:
            run(["fr-check", "--which", "gse", "--n", "2", "--trials", "3", "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_failure_names_the_trial(self, monkeypatch, capsys):
        seed = 12
        failing_seed = mix_trial_seed(mix_trial_seed(seed, 3), 2)  # direct side, trial 2
        reduce = spectra._reduce

        def failing_reduce(sample):
            if sample.spec.kind is EnsembleKind.GUE and sample.seed == failing_seed:
                raise NumericalFailureError("injected")
            return reduce(sample)

        monkeypatch.setattr(spectra, "_reduce", failing_reduce)
        with pytest.raises(NumericalFailureError) as exc:
            cli.fr_check_samples("gue", 4, 5, seed)
        assert exc.value.context["trial"] == 2
        assert exc.value.context["trial_seed"] == failing_seed
        argv = ["fr-check", "--which", "gue", "--n", "4", "--trials", "5", "--seed", str(seed)]
        assert run(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'trial': 2" in err[0]


class TestSemicircleCommand:
    @pytest.mark.parametrize("path", ["tridiag", "dense"])
    def test_passes_at_moderate_n(self, tmp_path, path):
        out = tmp_path / "sc.json"
        code = run(
            ["semicircle-check", "--n", "500", "--seed", "3", "--path", path,
             "--out", str(out), "--no-timestamp"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["sup_distance"] <= 0.05


class TestCumulantsCommand:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(
            ["cumulants", "--n", "10", "--interval=0,2", "--out", str(out), "--no-timestamp"]
        ) == 0
        payload = json.loads(out.read_text())
        for field in ("c2", "c3", "c4", "c3_normalized", "c4_normalized"):
            assert field in payload["summary"]
        assert payload["summary"]["c2"] >= 0.0

    def test_tiny_variance_exits_0(self, tmp_path):
        # c2 ~ 4e-177 beyond the edge: c2**2 underflows to 0, the ratios stay finite
        out = tmp_path / "c.json"
        assert run(
            ["cumulants", "--n", "2000", "--interval=72,73", "--out", str(out), "--no-timestamp"]
        ) == 0
        summary = json.loads(out.read_text())["summary"]
        assert 0.0 < summary["c2"] < 1e-170
        assert 0.0 < summary["c3_normalized"] < summary["c4_normalized"] < np.inf


class TestReadmeCommands:
    def test_every_readme_command_parses(self):
        # each `wigner-fluct ...` line of the README, with its \ continuations
        # joined, must parse: a renamed or removed flag fails here
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text().replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in text.splitlines()
                    if line.startswith("wigner-fluct ")]
        assert len(commands) >= 9
        parser = cli.build_parser()
        for argv in commands:
            assert parser.parse_args(argv).command == argv[0]


def fresh_process_run(argv):
    """(exit code, stdout, stderr) of argv in a new interpreter, through the
    console-script entry cli.main()."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", "from wigner_fluct import cli; cli.main()", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    # one process runs these in turn on its one parser: payloads, the usage
    # error and the help texts must be those of a fresh process per argv
    ARGVS = (
        ["kernel", "--n", "50", "--interval=-1,2", "--variance", "--no-timestamp"],
        ["bulk-fluct", "--n", "20", "--k", "10", "--beta", "1", "--trials", "5", "--no-timestamp"],
        ["kernel", "--n", "50", "--interval=2,1", "--no-timestamp"],
        ["kernel", "--n", "50", "--interval=-1,2", "--variance", "--no-timestamp"],
        ["--help"],
        ["kernel", "--help"],
    )

    def test_one_process_matches_fresh_processes(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # the help text's width
        codes = []
        for argv in self.ARGVS:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # usage errors and --help
                code = exc.code
            codes.append(code)
            assert (code, *capsys.readouterr()) == fresh_process_run(argv)
        assert codes == [0, 0, 2, 0, 0, 0]


class TestExitCodes:
    def test_failed_verdict_is_1(self, tmp_path):
        out = tmp_path / "sc.json"
        # the sup distance of n points from a continuous CDF is at least 1/(2n)
        code = run(["semicircle-check", "--n", "50", "--threshold", "0", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["summary"]["passed"] is False

    def test_unwritable_output_is_4(self):
        code = run(
            [
                "kernel", "--n", "1", "--interval=0,1",
                "--out", "/nonexistent-dir/deep/x.json",
            ]
        )
        assert code == 4

    @pytest.mark.parametrize("command", [["edge-fluct"], ["joint-fluct", "--regime", "edge"]])
    def test_edge_at_one_level_is_2(self, command, capsys):
        assert run([*command, "--n", "1", "--k", "1", "--beta", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "n must be >= 2" in err[0]

    def test_index_beyond_numpy_integers_is_2(self, capsys):
        # an index of 2**64 or more is an integer: out of range, not data that is not real
        k = "99999999999999999999999"
        assert run(["bulk-fluct", "--n", "10", "--k", k, "--beta", "1", "--trials", "5"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"invalid configuration: k must be <= 10, got {k}"]

    @pytest.mark.parametrize("command", [["edge-fluct"], ["joint-fluct", "--regime", "edge"]])
    def test_edge_offset_past_the_edge_is_2(self, command, capsys):
        # the integer rule's message, not "edge regime needs gamma in (0, 1), got 1.0"
        assert run([*command, "--n", "20", "--k", "20", "--beta", "1", "--trials", "2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["invalid configuration: k must be <= 19, got 20"]

    def test_inverted_variance_bounds_are_2(self, capsys):
        argv = ["bulk-fluct", "--n", "20", "--k", "10", "--beta", "1", "--trials", "5"]
        assert run([*argv, "--var-lo", "1.3", "--var-hi", "0.8"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["invalid configuration: var_lo 1.3 exceeds var_hi 0.8"]

    def test_kernel_order_beyond_hermite_range_is_3(self, capsys):
        assert run(["kernel", "--n", "20000", "--interval=0,inf"]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
