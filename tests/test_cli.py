import json

import numpy as np
import pytest
import scipy

from wigner_fluct import cli


def run(argv):
    return cli.main(list(argv))


class TestParsing:
    def test_sample_config_valid(self):
        args = cli.parse_args(["sample", "--ensemble", "goe", "--n", "100", "--seed", "7"])
        assert args.command == "sample"
        assert args.n == 100 and args.seed == 7

    def test_bulk_config_valid(self):
        args = cli.parse_args(
            ["bulk-fluct", "--n", "500", "--k", "250", "--beta", "1", "--trials", "2000"]
        )
        assert (args.n, args.k, args.beta, args.trials) == (500, 250, 1, 2000)

    def test_bad_beta_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["bulk-fluct", "--n", "10", "--k", "5", "--beta", "3"])
        assert exc.value.code == 2
        assert "{1,2,4}" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["sample", "--ensemble", "goe", "--n", "4", "--frobnicate"])
        assert exc.value.code == 2

    def test_invalid_trials_names_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli.parse_args(["bulk-fluct", "--n", "10", "--k", "5", "--trials", "0"])
        assert "--trials" in capsys.readouterr().err


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

    def test_kernel_order_beyond_hermite_range_is_3(self, capsys):
        assert run(["kernel", "--n", "20000", "--interval=0,inf"]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
