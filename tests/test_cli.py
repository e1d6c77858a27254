"""Command-line interface: exit codes, report envelopes, and formats."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffgap
from ffgap import _blas, cli, operators, spectra
from ffgap.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    main,
    parse_sizes,
    resolve_model,
)
from ffgap.coefficients import threshold_1d
from ffgap.models import random_cell_2d, save


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestParseSizes:
    def test_forms(self):
        assert parse_sizes("6") == (6,)
        assert parse_sizes("4..7") == (4, 5, 6, 7)
        assert parse_sizes("4,6,8") == (4, 6, 8)

    def test_empty_range_refused(self, capsys):
        with pytest.raises(ValueError, match=r"empty size range '5\.\.3'"):
            parse_sizes("5..3")
        assert main(["gap", "--model", "aklt", "--sizes", "5..3"]) == EXIT_ERROR
        assert "empty size range '5..3'" in capsys.readouterr().err


class TestResolveModel:
    def test_builtin_names(self):
        assert resolve_model("aklt").name == "aklt"
        assert resolve_model("singlet").name == "singlet_chain"
        assert resolve_model("commuting2d").kind == "cell_2d"

    def test_random_recipe(self):
        spec = resolve_model("random:d=2,rank_bulk=1,rank_boundary=0,seed=9")
        assert spec.kind == "chain"
        assert spec.payload.d == 2

    @pytest.mark.parametrize(
        "recipe, problem",
        [("random:d=2,rank_bulks=2,seed=3", "unknown key 'rank_bulks'"),
         ("random:rank_bulk=1", "missing key 'd'")],
    )
    def test_random_recipe_bad_key(self, capsys, recipe, problem):
        with pytest.raises(ValueError, match=problem):
            resolve_model(recipe)
        assert main(["gap", "--model", recipe, "--sizes", "3"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert problem in err
        assert "the keys are d, rank_bulk, rank_boundary, seed" in err

    def test_model_file(self, tmp_path, random_chain_d2):
        path = tmp_path / "model.json"
        save(random_chain_d2, path)
        spec = resolve_model(str(path))
        assert spec.kind == "chain"


class TestGapCommand:
    def test_singlet_cosine_gaps(self, capsys):
        code, doc = run_json(
            capsys, "--no-timestamp", "gap", "--model", "singlet", "--sizes", "2..4"
        )
        assert code == EXIT_OK
        gaps = {entry["m"]: entry["gap"] for entry in doc["result"]["gaps"]}
        for m in (2, 3, 4):
            assert gaps[m] == pytest.approx(1.0 - math.cos(math.pi / m), abs=1e-10)

    def test_envelope_fields(self, capsys):
        code, doc = run_json(
            capsys, "--no-timestamp", "gap", "--model", "singlet", "--sizes", "2,3"
        )
        assert doc["schema_version"] == 1
        assert doc["tool"]["name"] == "ffgap"
        assert doc["config"]["command"] == "gap"
        assert doc["config"]["sizes"] == [2, 3]
        assert "timestamp" not in doc

    def test_timestamp_present_by_default(self, capsys):
        code, doc = run_json(capsys, "gap", "--model", "singlet", "--sizes", "2")
        assert "timestamp" in doc

    def test_oversized_window_fails(self, capsys):
        code, out = run(
            capsys, "gap", "--model", "aklt", "--sizes", "12"
        )  # 3^12 > 2^16 cap
        assert code == EXIT_ERROR

    def test_oversized_window_refused_before_assembly(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Hamiltonian was assembled")

        monkeypatch.setattr(operators, "chain_hamiltonian", refuse)
        monkeypatch.setattr(spectra, "chain_hamiltonian", refuse)
        for argv in (
            ("gap", "--model", "aklt", "--sizes", "4,12"),
            ("certify", "gm", "--model", "aklt", "--n", "12", "--m", "24"),
        ):
            code, doc = run_json(capsys, "--error-json", *argv)
            assert code == EXIT_ERROR
            assert "exceeds the diagonalization cap" in doc["error"]

    def test_singlet_degenerate_kernel(self, capsys):
        # the kernel of the m-site singlet chain is the spin-m/2 multiplet
        code, doc = run_json(
            capsys, "--no-timestamp", "gap", "--model", "singlet", "--sizes", "12"
        )
        assert code == EXIT_OK
        (entry,) = doc["result"]["gaps"]
        assert entry["kernel_dim"] == 13
        assert entry["method"] == "deflated"
        assert entry["gap"] == pytest.approx(1.0 - math.cos(math.pi / 12), abs=1e-10)

    def test_periodic_kernel(self, capsys):
        code, doc = run_json(
            capsys, "--no-timestamp", "gap", "--model", "aklt", "--sizes", "4..7", "--bc", "periodic"
        )
        assert code == EXIT_OK
        assert [entry["kernel_dim"] for entry in doc["result"]["gaps"]] == [1, 1, 1, 1]


class TestCertifyCommand:
    def test_aklt_certified_exit_zero(self, capsys):
        code, doc = run_json(
            capsys,
            "--no-timestamp",
            "certify",
            "thm1",
            "--model",
            "aklt",
            "--n",
            "5",
        )
        assert code == EXIT_OK
        cert = doc["result"]
        assert cert["verdict"] == "certified_gapped"
        assert cert["bound"] > 0
        assert cert["model"] == "aklt"
        assert cert["threshold"] == pytest.approx(threshold_1d(5, "exact"))

    def test_singlet_inconclusive_exit_two(self, capsys):
        code, doc = run_json(
            capsys,
            "--no-timestamp",
            "certify",
            "thm1",
            "--model",
            "singlet",
            "--n",
            "6",
        )
        assert code == EXIT_INCONCLUSIVE
        assert doc["result"]["verdict"] == "inconclusive"

    def test_gm_periodic(self, capsys):
        code, doc = run_json(
            capsys,
            "--no-timestamp",
            "certify",
            "gm",
            "--model",
            "aklt",
            "--n",
            "5",
            "--m",
            "12",
        )
        assert code == EXIT_OK
        cert = doc["result"]
        assert cert["criterion"] == "gm_periodic"
        assert cert["threshold"] == pytest.approx(0.2)

    def test_quasi1d_commuting_cell(self, capsys):
        code, doc = run_json(
            capsys,
            "--no-timestamp",
            "certify",
            "quasi1d",
            "--model",
            "commuting2d",
            "--n",
            "4",
            "--m2",
            "1",
            "--R",
            "1",
        )
        assert code == EXIT_INCONCLUSIVE
        cert = doc["result"]
        assert cert["local_gap"] == pytest.approx(1.0)
        assert cert["constants"]["C1_1d"] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("2d", "--model", "commuting2d", "--n", "3", "--R", "1"), "even integer >= 2, got 3"),
            (("gm", "--model", "aklt", "--n", "10", "--m", "16"), "need n <= m/2 - 1, got n=10"),
            (("quasi1d", "--model", "commuting2d", "--n", "3", "--m2", "1", "--R", "1"),
             "need n >= 4, got 3"),
        ],
        ids=["2d_odd_n", "gm_n_above_m", "quasi1d_small_n"],
    )
    def test_inputs_checked_before_window_gaps(self, capsys, monkeypatch, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a window was computed before the criterion's n was checked")

        for name in ("region_gap", "chain_gap", "effective_1d", "effective_2d"):
            monkeypatch.setattr(cli, name, refuse)
        code, doc = run_json(capsys, "--error-json", "certify", *argv)
        assert code == EXIT_ERROR
        assert message in doc["error"]


class TestThresholdsCommand:
    def test_csv_columns_and_values(self, capsys):
        code, out = run(capsys, "thresholds", "--n", "4..9")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "n",
            "G_exact_1d",
            "G_asymptotic_1d",
            "F_lower",
            "G_2d",
            "G_2d_times_n32",
        ]
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert len(rows) == 6
        g8 = float(rows["8"][1])
        assert math.ceil(g8 * 1e4) / 1e4 == pytest.approx(0.1238)
        assert rows["5"][4] == ""  # no 2D threshold at odd n

    def test_json_format(self, capsys):
        code, doc = run_json(
            capsys, "--no-timestamp", "thresholds", "--n", "4,6", "--format", "json"
        )
        assert code == EXIT_OK
        rows = doc["result"]["rows"]
        assert [r["n"] for r in rows] == [4, 6]
        assert rows[0]["G_exact_1d"] == pytest.approx(threshold_1d(4, "exact"))


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        code, doc = run_json(
            capsys, "--no-timestamp", "verify", "--suite", "1d", "--seed", "7", "--trials", "2"
        )
        assert code == EXIT_OK
        assert doc["result"]["pass"] is True
        assert len(doc["result"]["instances"]) == 2


class TestCoarseGrainCommand:
    def test_two_d_summary(self, capsys):
        code, doc = run_json(
            capsys,
            "--no-timestamp",
            "coarse-grain",
            "--model",
            "commuting2d",
            "--R",
            "1",
            "--two-d",
        )
        assert code == EXIT_OK
        result = doc["result"]
        assert result["geometry"] == "2d"
        assert result["C1"] == pytest.approx(0.25)
        assert result["C2"] == pytest.approx(4.0)

    def test_config_records_two_d(self, capsys):
        argv = ("--no-timestamp", "coarse-grain", "--model", "commuting2d", "--R", "1")
        _, two_d = run_json(capsys, *argv, "--two-d")
        _, quasi1d = run_json(capsys, *argv, "--m2", "1")
        assert two_d["config"] == {
            "command": "coarse-grain", "model": "commuting2d", "R": 1, "two_d": True,
            "format": "json", "no_timestamp": True,
        }
        assert quasi1d["config"]["two_d"] is False

    def test_quasi1d_needs_m2(self, capsys):
        code, out = run(
            capsys, "coarse-grain", "--model", "commuting2d", "--R", "1"
        )
        assert code == EXIT_ERROR


class TestReproducibility:
    def test_no_timestamp_byte_identical(self, capsys):
        _, first = run(
            capsys, "--no-timestamp", "profile", "--model", "aklt", "--n", "4"
        )
        _, second = run(
            capsys, "--no-timestamp", "profile", "--model", "aklt", "--n", "4"
        )
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run(
            capsys,
            "--no-timestamp",
            "--output",
            str(path),
            "profile",
            "--model",
            "singlet",
            "--n",
            "3",
        )
        assert code == EXIT_OK
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["result"]["n"] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "gm", "--model", "singlet", "--n", "12", "--m", "26"),  # deflated at 2^12
            ("certify", "thm1", "--model", "aklt", "--n", "8"),  # real deflated Lanczos at 3^8
            ("verify", "--seed", "0", "--trials", "1"),  # rewrite-margin Lanczos
            # complex coarse-graining block: kernel, gap and Lanczos lambda_max
            ("coarse-grain", "--model", "{cell_file}", "--R", "1", "--two-d"),
        ],
        ids=["deflated_gap", "real_deflated_gap", "rewrite_margin", "complex_coarse_grain"],
    )
    def test_byte_identical_across_processes(self, argv, tmp_path):
        if "{cell_file}" in argv:
            cell_file = tmp_path / "cell.json"
            save(random_cell_2d(2, 2, 0), cell_file)
            argv = [str(cell_file) if arg == "{cell_file}" else arg for arg in argv]
        src = str(Path(ffgap.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-m", "ffgap.cli", "--no-timestamp", *argv],
                env=env,
                capture_output=True,
                timeout=600,
            )
            assert proc.returncode in (EXIT_OK, EXIT_INCONCLUSIVE), proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestThreads:
    def test_flag_sets_blas_threads(self, capsys, pools):
        assert [getter() for _, getter in pools] == [2] * len(pools)
        code, _ = run(capsys, "--threads", "1", "thresholds", "--n", "4")
        assert code == EXIT_OK
        assert [getter() for _, getter in pools] == [1] * len(pools)

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_fewer_than_one_thread_refused(self, capsys, pools, threads):
        assert main(["--threads", threads, "thresholds", "--n", "4"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"need at least 1 BLAS thread, got {threads}" in captured.err
        assert [getter() for _, getter in pools] == [2] * len(pools)

    def test_single_thread_restores(self, pools):
        with _blas.single_thread():
            assert [getter() for _, getter in pools] == [1] * len(pools)
        assert [getter() for _, getter in pools] == [2] * len(pools)


class TestErrors:
    def test_missing_model_file(self, capsys):
        code, out = run(capsys, "profile", "--model", "/nonexistent.json", "--n", "4")
        assert code == EXIT_ERROR

    def test_error_json_flag(self, capsys):
        code, out = run(
            capsys,
            "--error-json",
            "profile",
            "--model",
            "/nonexistent.json",
            "--n",
            "4",
        )
        assert code == EXIT_ERROR
        doc = json.loads(out)
        assert "error" in doc

    def test_kind_mismatch(self, capsys):
        code, out = run(capsys, "profile", "--model", "commuting2d", "--n", "4")
        assert code == EXIT_ERROR
