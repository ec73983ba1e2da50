import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy

from wigner_fluct import cli, kernel, spectra, stats
from wigner_fluct.ensembles import EnsembleKind, mix_trial_seed
from wigner_fluct.errors import NumericalFailureError


def run(argv):
    return cli.main(list(argv))


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


FLUCT_KEYS = {"ensemble", "n", "beta", "regime", "indices", "trials"}
FLUCT_PLAN_KEYS = FLUCT_KEYS | {"thetas", "gamma", "seed"}

# (argv, meta.config keys, plan keys, meta.thresholds) of one run per subcommand
SCHEMA_CASES = {
    "sample": (
        ["--ensemble", "goe", "--n", "3"],
        {"ensemble", "n", "beta"},
        {"ensemble", "n", "beta", "seed"},
        {},
    ),
    "bulk-fluct": (
        ["--n", "20", "--k", "10", "--beta", "1", "--trials", "3"],
        FLUCT_KEYS,
        FLUCT_PLAN_KEYS,
        {"ks_max": 0.08, "var_lo": 0.8, "var_hi": 1.25},
    ),
    "edge-fluct": (
        ["--n", "40", "--k", "12", "--beta", "2", "--trials", "3"],
        FLUCT_KEYS,
        FLUCT_PLAN_KEYS,
        {"ks_max": 0.1, "var_lo": 0.75, "var_hi": 1.3},
    ),
    "joint-fluct": (
        ["--n", "40", "--k", "10,20", "--beta", "1", "--trials", "3"],
        FLUCT_KEYS,
        FLUCT_PLAN_KEYS,
        {"corr_tol": 0.12},
    ),
    "fr-check": (
        ["--which", "gse", "--n", "2", "--trials", "3"],
        {"which", "n", "indices", "trials"},
        {"which", "n", "trials", "seed"},
        {"p_min": 0.01},
    ),
    "kernel": (["--n", "3", "--interval=0,inf"], {"n", "interval"}, {"n", "interval"}, {}),
    "cumulants": (
        ["--n", "4", "--interval=0,2", "--order", "16"],
        {"n", "interval", "order"},
        {"n", "interval", "order"},
        {},
    ),
    "semicircle-check": (
        ["--n", "20"],
        {"n", "path"},
        {"n", "path", "seed"},
        {"sup_max": 0.05},
    ),
}


class TestSchema:
    @pytest.mark.parametrize("command", sorted(SCHEMA_CASES))
    def test_payload_blocks(self, command, tmp_path):
        argv, config_keys, plan_keys, thresholds = SCHEMA_CASES[command]
        out = tmp_path / "schema.json"
        assert run([command, *argv, "--out", str(out), "--no-timestamp"]) in (0, 1)
        payload = json.loads(out.read_text())
        assert set(payload) == {"meta", "plan", "summary"}
        meta = payload["meta"]
        assert set(meta) == {
            "schema_version", "command", "version", "seed", "config", "thresholds", "env",
        }
        assert meta["command"] == command and meta["seed"] == 0
        assert set(meta["config"]) == config_keys
        assert set(payload["plan"]) == plan_keys
        assert meta["thresholds"] == thresholds

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "argument --seed: --seed must be >= 0, got -1"),
            ("--beta", "3", "argument --beta: --beta must be one of {1,2,4}, got 3"),
            ("--n", "x", "argument --n: --n expects an integer, got 'x'"),
        ],
    )
    def test_parse_error_messages(self, flag, value, message, capsys):
        argv = ["bulk-fluct", "--n", "10", "--k", "5", "--beta", "1", flag, value]
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"wigner-fluct bulk-fluct: error: {message}"


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
        assert payload["meta"]["schema_version"] == 1

    def test_meta_records_library_versions(self, tmp_path):
        out = tmp_path / "env.json"
        assert run(["sample", "--ensemble", "goe", "--n", "3", "--out", str(out)]) == 0
        env = json.loads(out.read_text())["meta"]["env"]
        assert set(env) == {"python", "numpy", "scipy", "blas"}
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert set(env["blas"]) == {"numpy", "scipy"}
        assert all(isinstance(v, str) and v for v in env["blas"].values())

    def test_meta_blas_without_dict_config(self, tmp_path, monkeypatch):
        monkeypatch.setattr(np, "show_config", lambda: None)
        out = tmp_path / "env.json"
        assert run(["sample", "--ensemble", "goe", "--n", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["env"]["blas"]["numpy"] == "unknown"

    def test_tridiag_needs_beta(self, capsys):
        code = run(["sample", "--ensemble", "tridiag", "--n", "5"])
        assert code == 2


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

    def test_env_thread_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "e1.json", tmp_path / "e2.json"
        base = [
            "bulk-fluct", "--n", "50", "--k", "25", "--beta", "1",
            "--trials", "12", "--seed", "4", "--no-timestamp",
        ]
        assert run(base + ["--out", str(out1)]) == 0
        monkeypatch.setenv("WIGNER_FLUCT_THREADS", "3")
        assert run(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


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

    def test_k_above_n_rejected(self):
        assert run(["fr-check", "--which", "gue", "--n", "4", "--trials", "10", "--k", "9"]) == 2

    def test_threads_start_a_pool_and_keep_bytes(self, tmp_path, monkeypatch):
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(stats, "ThreadPoolExecutor", RecordingPool)
        base = ["fr-check", "--which", "gue", "--n", "5", "--trials", "60", "--seed", "4",
                "--no-timestamp"]
        out1, out4 = tmp_path / "t1.json", tmp_path / "t4.json"
        assert run(base + ["--threads", "1", "--out", str(out1)]) in (0, 1)
        assert pools == []
        assert run(base + ["--threads", "4", "--out", str(out4)]) in (0, 1)
        # one pool per trial stream: two GOE sides and the direct GUE side
        assert pools == [4, 4, 4]
        assert out1.read_bytes() == out4.read_bytes()

    def test_failure_names_the_trial(self, monkeypatch, capsys):
        seed = 12
        failing_seed = mix_trial_seed(mix_trial_seed(seed, 3), 2)  # direct side, trial 2
        reduce = spectra._reduce

        def failing_reduce(sample):
            if sample.spec.kind is EnsembleKind.GUE and sample.spec.seed == failing_seed:
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
    def test_passes_at_moderate_n(self, tmp_path):
        out = tmp_path / "sc.json"
        code = run(
            ["semicircle-check", "--n", "500", "--seed", "3", "--out", str(out), "--no-timestamp"]
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

    THREAD_ENV_CASES = [(c, v) for c in ("bulk-fluct", "fr-check") for v in ("abc", "0", "-2")]
    THREAD_ENV_ARGV = {
        "bulk-fluct": ["bulk-fluct", "--n", "20", "--k", "10", "--beta", "1", "--trials", "3"],
        "fr-check": ["fr-check", "--which", "gse", "--n", "2", "--trials", "3"],
    }

    # bulk-fluct cases keep their ids of the form [abc]
    @pytest.mark.parametrize(
        "command, value",
        THREAD_ENV_CASES,
        ids=[v if c == "bulk-fluct" else f"{c}-{v}" for c, v in THREAD_ENV_CASES],
    )
    def test_bad_thread_env_is_2(self, command, value, monkeypatch, capsys):
        # the environment value follows the --threads rule: an integer >= 1
        monkeypatch.setenv("WIGNER_FLUCT_THREADS", value)
        assert run(self.THREAD_ENV_ARGV[command]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "WIGNER_FLUCT_THREADS" in err[0]

    def test_kernel_order_beyond_hermite_range_is_3(self, capsys):
        assert run(["kernel", "--n", "20000", "--interval=0,inf"]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
