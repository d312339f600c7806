import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spir_mds
from spir_mds import jsonio, protocol
from spir_mds.cli import main
from spir_mds.errors import DecodeFailure
from spir_mds.storage import Database, StorageParams


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_round_trip_with_files(self, tmp_path):
        out = tmp_path / "transcript.json"
        rate = tmp_path / "rates.json"
        code = run_cli(
            "run", "--q", "5", "--n", "4", "--m", "2", "--k", "3", "--theta", "2",
            "--seed-user", "1", "--seed-node", "2", "--seed-db", "3",
            "--out", str(out), "--rate-out", str(rate),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["kind"] == "transcript"
        assert doc["download_count"] == 8
        assert doc["randomness_count"] == 4
        rdoc = json.loads(rate.read_text())
        assert rdoc["achieved_rate"] == {"num": 1, "den": 2}
        assert rdoc["at_capacity"] is True
        # decoded file matches the seeded database
        params = StorageParams(q=5, n=4, m=2, k=3)
        db = Database.random(params, protocol.db_rng(3))
        assert np.array_equal(np.array(doc["decoded_file"]), db.file(2))

    def test_byte_identical_replays(self, tmp_path):
        args = [
            "run", "--q", "5", "--n", "4", "--m", "2", "--k", "2", "--theta", "1",
            "--seed-user", "9", "--seed-node", "8", "--seed-db", "7",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--out", str(a), "--rate-out", str(tmp_path / "ra.json")) == 0
        assert run_cli(*args, "--out", str(b), "--rate-out", str(tmp_path / "rb.json")) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_k1_is_config_error(self, capsys):
        code = run_cli("run", "--q", "2", "--n", "2", "--m", "1", "--k", "1")
        assert code == 2
        assert "k >= 2" in capsys.readouterr().err

    def test_small_field_is_config_error(self, capsys):
        code = run_cli("run", "--q", "2", "--n", "3", "--m", "2", "--k", "2")
        assert code == 2
        assert "q=2" in capsys.readouterr().err

    def test_search_generator_allows_small_field(self, tmp_path):
        out = tmp_path / "t.json"
        code = run_cli(
            "run", "--q", "2", "--n", "3", "--m", "2", "--k", "2",
            "--generator", "search", "--out", str(out),
            "--rate-out", str(tmp_path / "r.json"),
        )
        assert code == 0

    def test_decode_failure_exits_3(self, monkeypatch, tmp_path):
        from spir_mds import cli as cli_mod

        def boom(self, theta, user_seed=0):
            raise DecodeFailure("synthetic")

        monkeypatch.setattr(cli_mod.SimNetwork, "run", boom)
        code = run_cli(
            "run", "--q", "5", "--n", "4", "--m", "2", "--k", "2",
            "--out", str(tmp_path / "t.json"),
        )
        assert code == 3

    def test_config_document_drives_run(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            jsonio.canonical_dumps(
                {
                    "schema_version": 1, "kind": "run_config", "q": 5, "n": 4, "m": 2, "k": 3,
                    "theta": 2, "seed_user": 1, "seed_node": 2, "seed_db": 3,
                    "randomness": "full", "generator": "cauchy",
                }
            )
        )
        via_config = tmp_path / "via_config.json"
        via_flags = tmp_path / "via_flags.json"
        assert run_cli(
            "run", "--config", str(cfg_path),
            "--out", str(via_config), "--rate-out", str(tmp_path / "rc.json"),
        ) == 0
        assert run_cli(
            "run", "--q", "5", "--n", "4", "--m", "2", "--k", "3", "--theta", "2",
            "--seed-user", "1", "--seed-node", "2", "--seed-db", "3",
            "--out", str(via_flags), "--rate-out", str(tmp_path / "rf.json"),
        ) == 0
        assert via_config.read_bytes() == via_flags.read_bytes()
        # flags override document fields
        override = tmp_path / "override.json"
        assert run_cli(
            "run", "--config", str(cfg_path), "--theta", "1",
            "--out", str(override), "--rate-out", str(tmp_path / "ro.json"),
        ) == 0
        assert json.loads(override.read_text())["theta"] == 1

    def test_missing_params_without_config(self, capsys):
        code = run_cli("run", "--q", "5", "--n", "4")
        assert code == 2
        assert "missing required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "count,refusal", [("99", "must be <= 4, got 99"), ("-1", "must be >= 0, got -1")], ids=["99", "-1"]
    )
    def test_partial_count_out_of_range_is_config_error(self, count, refusal, tmp_path, capsys):
        code = run_cli(
            "run", "--q", "5", "--n", "4", "--m", "2", "--k", "2",
            "--randomness", f"partial={count}", "--out", str(tmp_path / "t.json"),
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: partial randomness count {refusal}\n"
        assert not (tmp_path / "t.json").exists()


CONFIG_INSTANCE = {"q": 2, "n": 2, "m": 1, "k": 2}


def _write_config(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return str(path)


BAD_CONFIGS = {
    "missing_file": lambda tmp_path: str(tmp_path / "absent.json"),
    "not_json": lambda tmp_path: _write_config(tmp_path, "{q: 5"),
    "not_an_object": lambda tmp_path: _write_config(tmp_path, "[2, 2, 1, 2]"),
    "string_q": lambda tmp_path: _write_config(tmp_path, json.dumps({**CONFIG_INSTANCE, "q": "5"})),
    "float_stripes": lambda tmp_path: _write_config(
        tmp_path, json.dumps({**CONFIG_INSTANCE, "stripes": 1.5})
    ),
    "string_theta": lambda tmp_path: _write_config(
        tmp_path, json.dumps({**CONFIG_INSTANCE, "theta": "1"})
    ),
    "negative_seed": lambda tmp_path: _write_config(
        tmp_path, json.dumps({**CONFIG_INSTANCE, "seed_db": -1})
    ),
}


class TestInvalidInputs:
    """Every malformed config and negative seed exits 2 with a typed error."""

    @pytest.mark.parametrize("command", ["run", "audit"])
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_is_config_error(self, command, case, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = run_cli(command, "--config", BAD_CONFIGS[case](tmp_path), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--seed-user", "-1"],
            ["run", "--seed-node", "-1"],
            ["run", "--seed-db", "-1"],
            ["audit", "--seed", "-1"],
            ["encode", "--seed-db", "-1"],
        ],
        ids=lambda argv: "_".join(argv[:2]),
    )
    def test_negative_seed_is_config_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = run_cli(
            *argv, "--q", "2", "--n", "2", "--m", "1", "--k", "2", "--out", str(out)
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be >= 0" in err
        assert not out.exists()


class TestRefusedAfterParsing:
    """Inputs that parse but do not fit are refused with exit 2 and no output."""

    @pytest.mark.parametrize("theta", ["0", "3"])
    def test_theta_outside_the_files_is_config_error(self, theta, tmp_path, capsys):
        out, rate = tmp_path / "t.json", tmp_path / "r.json"
        code = run_cli(
            "run", "--q", "5", "--n", "4", "--m", "2", "--k", "2", "--theta", theta,
            "--out", str(out), "--rate-out", str(rate),
        )
        assert code == 2
        assert capsys.readouterr() == ("", f"error: theta={theta} not in [1, 2]\n")
        assert not out.exists() and not rate.exists()

    @pytest.mark.parametrize("command", ["run", "audit"])
    def test_unknown_generator_in_a_config_is_config_error(self, command, tmp_path, capsys):
        # the --generator flag's choices refuse it in argparse; a document reaches generator_for
        config = _write_config(tmp_path, json.dumps({**CONFIG_INSTANCE, "generator": "vandermonde"}))
        out = tmp_path / "out.json"
        code = run_cli(command, "--config", config, "--out", str(out))
        assert code == 2
        assert capsys.readouterr() == ("", "error: unknown generator mode 'vandermonde'\n")
        assert not out.exists()


# sha256 of the `run` transcript and rate report at (5, 4, 2, 2), theta 1,
# seeds user 3, node 4 and db 5, under full randomness, fixed before the
# rate report counted the drawn symbols; partial=4 draws the same S
FULL_RUN_TRANSCRIPT_SHA256 = "fa2d018c6715e438f0b2938d8fa8e6d593ba0d15e16b5cfb97caf8c406bd8618"
FULL_RUN_RATES_SHA256 = "9e3c75c82ef0841e6909732f8ddb0b7ca1179bd4f87a0413a9e4991887ab8cbd"


class TestRandomnessBudget:
    """The transcript counts the shared symbols the nodes drew, so the rate
    report meets the converse: capacity 0 below the secrecy floor.  And a
    bad budget, by flag or config, gets the one message that
    ``protocol.free_randomness`` gives a library call (test_network.py)."""

    INSTANCE = ("--q", "5", "--n", "4", "--m", "2", "--k", "2")

    def run_instance(self, tmp_path, *argv):
        out, rate = tmp_path / "t.json", tmp_path / "r.json"
        code = run_cli(
            "run", *self.INSTANCE, "--seed-user", "3", "--seed-node", "4", "--seed-db", "5", *argv,
            "--out", str(out), "--rate-out", str(rate),
        )
        return code, out, rate

    @pytest.mark.parametrize(
        "randomness,count,secrecy,capacity,at_capacity",
        [
            ("zeroed", 0, (0, 1), (0, 1), False),
            ("partial=3", 3, (3, 4), (0, 1), False),
            ("partial=4", 4, (1, 1), (1, 2), True),
            ("full", 4, (1, 1), (1, 2), True),
        ],
    )
    def test_rate_report_reads_the_drawn_count(self, tmp_path, randomness, count, secrecy, capacity, at_capacity):
        code, out, rate = self.run_instance(tmp_path, "--randomness", randomness)
        assert code == 0
        assert json.loads(out.read_text())["randomness_count"] == count
        report = json.loads(rate.read_text())
        assert (report["achieved_secrecy"]["num"], report["achieved_secrecy"]["den"]) == secrecy
        assert (report["capacity"]["num"], report["capacity"]["den"]) == capacity
        assert report["at_capacity"] is at_capacity
        if at_capacity:
            assert hashlib.sha256(out.read_bytes()).hexdigest() == FULL_RUN_TRANSCRIPT_SHA256
            assert hashlib.sha256(rate.read_bytes()).hexdigest() == FULL_RUN_RATES_SHA256

    @pytest.mark.parametrize("command", ["run", "audit"])
    @pytest.mark.parametrize(
        "flag,refusal",
        [
            ("partial=2.5", "partial randomness count must be an integer, got 2.5"),
            ("partial=x", "partial randomness count must be an integer, got 'x'"),
            ("partial=", "partial randomness count must be an integer, got ''"),
            ("none", "unknown randomness mode 'none'"),
            ("full=3", "unknown randomness mode 'full=3'"),
        ],
    )
    def test_bad_flag_gets_the_library_message(self, command, flag, refusal, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert run_cli(command, *self.INSTANCE, "--randomness", flag, "--out", str(out)) == 2
        assert capsys.readouterr() == ("", f"error: {refusal}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "audit"])
    @pytest.mark.parametrize(
        "fields,refusal",
        [
            ({"randomness": "partial", "partial_count": 2.5}, "partial randomness count must be an integer, got 2.5"),
            ({"randomness": "full", "partial_count": 2.5}, "partial randomness count must be an integer, got 2.5"),
            ({"partial_count": "1"}, "partial randomness count must be an integer, got '1'"),
            ({"randomness": "partial", "partial_count": 5}, "partial randomness count must be <= 4, got 5"),
            ({"randomness": "none"}, "unknown randomness mode 'none'"),
        ],
        ids=["partial_2.5", "full_2.5", "string", "too_many", "bad_mode"],
    )
    def test_bad_config_gets_the_library_message(self, command, fields, refusal, tmp_path, capsys):
        config = _write_config(tmp_path, json.dumps({"q": 5, "n": 4, "m": 2, "k": 2, **fields}))
        out = tmp_path / "out.json"
        assert run_cli(command, "--config", config, "--out", str(out)) == 2
        assert capsys.readouterr() == ("", f"error: {refusal}\n")
        assert not out.exists()


class TestAudit:
    def test_all_checks_pass(self, tmp_path):
        out = tmp_path / "audit.json"
        code = run_cli(
            "audit", "--q", "2", "--n", "2", "--m", "1", "--k", "2", "--out", str(out)
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert "correctness" in names
        assert "db_privacy" in names
        assert any(name.startswith("user_privacy_node_") for name in names)
        assert all(c["mode"] == "exact" for c in doc["checks"])

    def test_zeroed_randomness_exits_4_with_witness(self, tmp_path, capsys):
        out = tmp_path / "audit.json"
        code = run_cli(
            "audit", "--q", "2", "--n", "2", "--m", "1", "--k", "2",
            "--randomness", "zeroed", "--checks", "db-privacy", "--out", str(out),
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "db_privacy" in err
        assert "witness" in err
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is False
        assert "witness" in doc["checks"][0]

    def test_oversized_without_samples_is_config_error(self, capsys):
        code = run_cli("audit", "--q", "5", "--n", "4", "--m", "2", "--k", "2")
        assert code == 2
        assert "ceiling" in capsys.readouterr().err

    def test_oversized_with_monte_carlo_runs(self, tmp_path):
        out = tmp_path / "audit.json"
        code = run_cli(
            "audit", "--q", "5", "--n", "4", "--m", "2", "--k", "2",
            "--monte-carlo", "300", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(c["mode"] == "statistical" for c in doc["checks"])
        assert {"correctness", "db_privacy"} <= {c["name"] for c in doc["checks"]}

    def test_partial_count_out_of_range_is_config_error(self, capsys):
        code = run_cli(
            "audit", "--q", "2", "--n", "2", "--m", "1", "--k", "2",
            "--randomness", "partial=99", "--checks", "db-privacy",
        )
        assert code == 2
        assert capsys.readouterr().err == "error: partial randomness count must be <= 1, got 99\n"

    def test_universe_above_a_huge_ceiling_is_one_short_error_line(self, capsys):
        # 101**160 points against a 2**1000 ceiling: neither is printed in full
        code = run_cli(
            "audit", "--q", "101", "--n", "10", "--m", "4", "--k", "3", "--ceiling", str(2**1000),
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: universe has 101**160 points") and len(line) < 200

    def test_refusal_steers_to_a_larger_ceiling_not_the_screen(self, capsys):
        # with --monte-carlo 5 the screen passes this leaky control, and with
        # --ceiling 2**200 it fails exactly (TestRankGapDecidesAtOnce)
        code = run_cli(
            "audit", "--q", "1000003", "--n", "3", "--m", "2", "--k", "2", "--randomness", "zeroed",
            "--checks", "db-privacy",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "a larger ceiling decides it exactly" in err
        assert "a Monte Carlo sample budget only screens and can miss a leak" in err

    def test_k1_is_config_error(self, capsys):
        code = run_cli("audit", "--q", "2", "--n", "2", "--m", "1", "--k", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "k >= 2" in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_no_monte_carlo_samples_is_config_error(self, samples, tmp_path, capsys):
        out = tmp_path / "audit.json"
        code = run_cli(
            "audit", "--q", "5", "--n", "4", "--m", "2", "--k", "2", "--ceiling", "1",
            "--monte-carlo", samples, "--checks", "user-privacy", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: a Monte Carlo audit needs at least one sample")
        assert not out.exists()

    def test_search_generator_for_sub_threshold_instance(self, tmp_path):
        out = tmp_path / "audit.json"
        code = run_cli(
            "audit", "--q", "2", "--n", "4", "--m", "2", "--k", "2",
            "--generator", "search", "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["all_passed"] is True

    def test_partial_randomness_mode(self, tmp_path):
        out = tmp_path / "audit.json"
        code = run_cli(
            "audit", "--q", "2", "--n", "2", "--m", "1", "--k", "2",
            "--randomness", "partial=0", "--checks", "db-privacy", "--out", str(out),
        )
        assert code == 4  # zero random symbols leaks like the zeroed mode
        code = run_cli(
            "audit", "--q", "2", "--n", "2", "--m", "1", "--k", "2",
            "--randomness", "partial=1", "--checks", "db-privacy", "--out", str(out),
        )
        assert code == 0

    @pytest.mark.parametrize("checks", [",", "", "user_privacy"], ids=["comma", "empty", "unknown"])
    def test_empty_or_unknown_checks_are_config_errors(self, checks, tmp_path, capsys):
        # an empty selection would pass vacuously, with no check run
        out = tmp_path / "audit.json"
        code = run_cli(
            "audit", "--q", "2", "--n", "2", "--m", "1", "--k", "2",
            "--checks", checks, "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: checks must be a non-empty subset")
        assert not out.exists()

    # sha256 over exit code, report and stderr of every audit in the grid
    # below; moves only if some exact report, witness or exit code changes
    EXACT_AUDITS_SHA256 = "33f7eeeca8206637e121356f6b5d3cfe93ebbe628ab8d878ef5ebd160746e87d"

    def test_exact_reports_match_pinned_hash(self, capsys):
        instances = [
            ("2", "2", "1", "2"),
            ("3", "3", "2", "2"),
            ("2", "4", "1", "2"),
            ("2", "3", "2", "2", "--generator", "search"),
        ]
        digest = hashlib.sha256()
        for q, n, m, k, *generator in instances:
            for randomness in ("full", "zeroed", "partial=0", "partial=1"):
                for checks in ((), ("--checks", "db-privacy"),
                               ("--checks", "user-privacy,correctness")):
                    code = run_cli(
                        "audit", "--q", q, "--n", n, "--m", m, "--k", k, *generator,
                        "--randomness", randomness, *checks,
                    )
                    out, err = capsys.readouterr()
                    digest.update(f"{code}\n{len(out)}\n{out}{len(err)}\n{err}".encode())
        assert digest.hexdigest() == self.EXACT_AUDITS_SHA256


class TestRankGapDecidesAtOnce:
    """Below the secrecy floor, database privacy is decided by the rank gap
    of the first leaking (mask, index) pair: there is no packed view key
    to refuse and no sweep of the universe, however large the ceiling."""

    @pytest.mark.parametrize("q,ceiling,left", [("11", 2**62, 121), ("5", 2**60, 25)], ids=["q11", "q5"])
    def test_zeroed_control_exits_4_with_a_witness(self, q, ceiling, left):
        proc = run_module(
            "audit", "--q", q, "--n", "4", "--m", "2", "--k", "2", "--randomness", "zeroed",
            "--checks", "db-privacy", "--ceiling", str(ceiling), timeout=30,
        )
        assert proc.returncode == 4, proc.stderr
        headline, document = proc.stderr.split("\n", 1)
        assert headline == "audit failed: db_privacy"
        witness = json.loads(document)["witness"]
        assert witness["masks"] == [0] * 7 + [1]
        assert witness["counts"]["joint"] == 1 and witness["counts"]["left"] == left

    def test_axes_past_int64_get_an_exact_witness(self):
        # the database axis has 1000003**4 rows, past int64; the chi-square
        # screen passes this leaky control
        proc = run_module(
            "audit", "--q", "1000003", "--n", "3", "--m", "2", "--k", "2", "--randomness", "zeroed",
            "--checks", "db-privacy", "--ceiling", str(2**200), timeout=30,
        )
        assert proc.returncode == 4, proc.stderr
        headline, document = proc.stderr.split("\n", 1)
        assert headline == "audit failed: db_privacy"
        assert json.loads(document)["witness"]["masks"] == [0, 0, 0, 1]


class TestRates:
    def test_table_rows(self, capsys):
        assert run_cli("rates", "--n", "4", "--m", "2", "--k", "2") == 0
        out = capsys.readouterr().out
        assert "1/2" in out and "2/3" in out

    def test_csv_and_convergence(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = run_cli(
            "rates", "--n", "4", "--m", "2", "--k", "1:10",
            "--csv", "--convergence", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,m,k,spir_capacity,secrecy_floor,pir_capacity,gap"
        assert len(lines) == 11
        assert lines[2].startswith("4,2,2,1/2,1,2/3,1/6")

    def test_replicated_row(self, capsys):
        assert run_cli("rates", "--n", "2", "--m", "1", "--k", "2") == 0
        out = capsys.readouterr().out
        assert "1/2" in out and "2/3" in out

    def test_skips_infeasible_shapes(self, capsys):
        assert run_cli("rates", "--n", "2", "--m", "1,2,3", "--k", "2") == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 2  # header and the (2, 1) row

    @pytest.mark.parametrize(
        "n,m,k,message",
        [
            ("3", "5", "2", "error: no (n, m) pair has 1 <= m < n among 1 n value in [3, 3] and 1 m value in [5, 5]\n"),
            ("", "2", "2", "error: no (n, m) pair has 1 <= m < n among no n value and 1 m value in [2, 2]\n"),
            ("2", "2,3", "2", "error: no (n, m) pair has 1 <= m < n among 1 n value in [2, 2] and 2 m values in [2, 3]\n"),
            ("4", "2", "", "error: no file count k given\n"),
        ],
        ids=["m_above_n", "empty_n", "m_not_below_n", "empty_k"],
    )
    def test_no_admissible_row_is_config_error(self, n, m, k, message, tmp_path, capsys):
        out = tmp_path / "rates.txt"
        assert run_cli("rates", "--n", n, "--m", m, "--k", k, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""
        assert not out.exists()

    def test_refusal_summarises_long_lists(self, capsys):
        # 100,000 n values and one m: the refusal names their counts and
        # ranges, so its one line stays short whatever the lists hold
        assert run_cli("rates", "--n", "2:100001", "--m", "100001", "--k", "1") == 2
        err = capsys.readouterr().err
        assert err == (
            "error: no (n, m) pair has 1 <= m < n among 100000 n values in [2, 100001]"
            " and 1 m value in [100001, 100001]\n"
        )
        assert len(err) == 108

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_bad_k_is_config_error(self, k, capsys):
        assert run_cli("rates", "--n", "4", "--m", "2", "--k", k) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "k >= 1" in err


class TestOutputPaths:
    """An output path in a missing directory is refused before any work:
    exit 2, one ``error:`` line and no file written."""

    INSTANCE = ("--q", "5", "--n", "3", "--m", "2", "--k", "2")

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("run", *INSTANCE), "--out"),
            (("run", *INSTANCE, "--out", "<tmp>/transcript.json"), "--rate-out"),
            (("audit", "--q", "2", "--n", "2", "--m", "1", "--k", "2"), "--out"),
            (("rates", "--n", "4", "--m", "2", "--k", "2"), "--out"),
            (("encode", *INSTANCE), "--out"),
            (("reconstruct", "--shares", "<tmp>/shares.json", "--nodes", "1,2"), "--out"),
        ],
        ids=["run", "run-rate-out", "audit", "rates", "encode", "reconstruct"],
    )
    def test_missing_directory_is_refused(self, argv, flag, tmp_path, capsys):
        shares = tmp_path / "shares.json"
        assert run_cli("encode", *self.INSTANCE, "--out", str(shares)) == 0
        argv = [word.replace("<tmp>", str(tmp_path)) for word in argv]
        missing = tmp_path / "missing"
        assert run_cli(*argv, flag, str(missing / "out.json")) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: output directory {missing} does not exist\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["shares.json"]

    def test_directory_as_output_is_refused(self, tmp_path, capsys):
        assert run_cli("rates", "--n", "4", "--m", "2", "--k", "2", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: output path {tmp_path} is a directory\n"


class TestEncodeReconstruct:
    def test_round_trip(self, tmp_path):
        shares = tmp_path / "shares.json"
        db_out = tmp_path / "db.json"
        assert run_cli(
            "encode", "--q", "3", "--n", "3", "--m", "2", "--k", "2",
            "--seed-db", "11", "--out", str(shares),
        ) == 0
        assert run_cli(
            "reconstruct", "--shares", str(shares), "--nodes", "2,3", "--out", str(db_out)
        ) == 0
        params = StorageParams(q=3, n=3, m=2, k=2)
        want = Database.random(params, protocol.db_rng(11))
        got = jsonio.database_from_json(json.loads(db_out.read_text()))
        assert got == want

    def test_encode_accepts_database_document(self, tmp_path):
        params = StorageParams(q=3, n=3, m=2, k=2)
        db = Database.random(params, protocol.db_rng(0))
        db_doc = tmp_path / "db.json"
        db_doc.write_text(jsonio.canonical_dumps(jsonio.database_to_json(db)))
        shares = tmp_path / "shares.json"
        assert run_cli(
            "encode", "--q", "3", "--n", "3", "--m", "2", "--k", "2",
            "--db", str(db_doc), "--out", str(shares),
        ) == 0
        doc = json.loads(shares.read_text())
        assert len(doc["nodes"]) == 3

    def test_reconstruct_wrong_node_count(self, tmp_path, capsys):
        shares = tmp_path / "shares.json"
        run_cli(
            "encode", "--q", "3", "--n", "3", "--m", "2", "--k", "2",
            "--seed-db", "1", "--out", str(shares),
        )
        code = run_cli("reconstruct", "--shares", str(shares), "--nodes", "1")
        assert code == 2

    def test_missing_file_is_config_error(self, tmp_path):
        code = run_cli("reconstruct", "--shares", str(tmp_path / "nope.json"), "--nodes", "1,2")
        assert code == 2


def _shares_doc(tmp_path) -> dict:
    path = tmp_path / "shares.json"
    assert run_cli(
        "encode", "--q", "3", "--n", "3", "--m", "2", "--k", "2",
        "--seed-db", "11", "--out", str(path),
    ) == 0
    return json.loads(path.read_text())


def _set_share(doc, value):
    doc["nodes"][0]["values"][0] = value


def _lift_shares(doc):
    # the same values mod 3, but near the top of int64
    top = 2**63 - 1
    for node in doc["nodes"]:
        node["values"] = [v + 3 * ((top - v) // 3) for v in node["values"]]


def _set_generator_entry(doc, value):
    doc["generator"]["rows"][0][2] = value


def _set_generator_q(doc, value):
    doc["generator"]["q"] = value


BAD_SHARES = {
    "share_beyond_int64": lambda doc: _set_share(doc, 2**70),
    "share_negative": lambda doc: _set_share(doc, -1),
    "share_float": lambda doc: _set_share(doc, 1.0),
    "share_ragged": lambda doc: _set_share(doc, [1, 2]),
    "generator_entry_beyond_int64": lambda doc: _set_generator_entry(doc, 2**70),
    "generator_entry_unreduced": lambda doc: _set_generator_entry(doc, 4),
    "generator_huge_prime_q": lambda doc: _set_generator_q(doc, 2**61 - 1),
    "generator_other_q": lambda doc: _set_generator_q(doc, 5),
    "params_string_q": lambda doc: doc["params"].update(q="3"),
    "node_index_float": lambda doc: doc["nodes"][0].update(node_index=1.0),
    # wrong JSON type or missing key at each level of the document
    "node_not_object": lambda doc: doc.update(nodes=[1]),
    "nodes_not_array": lambda doc: doc.update(nodes="x"),
    "node_values_missing": lambda doc: doc["nodes"][0].pop("values"),
    "params_not_object": lambda doc: doc.update(params="x"),
    "params_key_missing": lambda doc: doc["params"].pop("k"),
    "generator_not_object": lambda doc: doc.update(generator=[[1, 2], [3]]),
    "generator_missing": lambda doc: doc.pop("generator"),
    "generator_rows_missing": lambda doc: doc["generator"].pop("rows"),
    "generator_rows_flat": lambda doc: doc["generator"].update(rows=[1, 2, 0]),
    "generator_wrong_shape": lambda doc: doc["generator"].update(rows=[[1, 0, 1, 1], [0, 1, 1, 2]]),
}

BAD_DATABASES = {
    "files_missing": lambda doc: doc.pop("files"),
    "files_wrong_shape": lambda doc: doc.update(files=[[1, 2], [0, 1]]),
    "params_not_object": lambda doc: doc.update(params="x"),
    "params_missing": lambda doc: doc.pop("params"),
    "params_key_missing": lambda doc: doc["params"].pop("q"),
}


class TestMalformedDocuments:
    """Field symbols in documents must be integers in [0, q); anything else,
    a generator over another field, a missing key or a value of the wrong
    JSON type exits 2 before any arithmetic."""

    @pytest.mark.parametrize("case", sorted(BAD_SHARES))
    def test_bad_shares_document_is_config_error(self, case, tmp_path, capsys):
        doc = _shares_doc(tmp_path)
        BAD_SHARES[case](doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "db.json"
        code = run_cli("reconstruct", "--shares", str(path), "--nodes", "1,3", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_missing_key_is_named(self, tmp_path, capsys):
        doc = _shares_doc(tmp_path)
        del doc["generator"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("reconstruct", "--shares", str(path), "--nodes", "1,3") == 2
        assert capsys.readouterr().err == "error: missing key 'generator' in shares document\n"

    def test_rank_deficient_generator_is_refused(self, tmp_path, capsys):
        doc = _shares_doc(tmp_path)
        doc["generator"]["rows"] = [[1, 2, 0], [2, 1, 0]]  # second row = 2 * first
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("reconstruct", "--shares", str(path), "--nodes", "1,3") == 2
        assert capsys.readouterr().err == "error: generator of 2 rows has row rank 1\n"

    def test_lifted_shares_are_refused_not_misread(self, tmp_path):
        # the documented failure: congruent shares near 2**63 wrapped int64
        # in the solve and printed a wrong database with exit 0
        doc = _shares_doc(tmp_path)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(doc))
        assert run_cli("reconstruct", "--shares", str(good), "--nodes", "1,3",
                       "--out", str(tmp_path / "db.json")) == 0
        want = Database.random(StorageParams(q=3, n=3, m=2, k=2), protocol.db_rng(11))
        got = jsonio.database_from_json(json.loads((tmp_path / "db.json").read_text()))
        assert got == want
        _lift_shares(doc)
        good.write_text(json.dumps(doc))
        assert run_cli("reconstruct", "--shares", str(good), "--nodes", "1,3") == 2

    @pytest.mark.parametrize("value", [2**70, -1, 3, 0.5])
    def test_bad_database_entry_is_config_error(self, value, tmp_path, capsys):
        params = StorageParams(q=3, n=3, m=2, k=2)
        doc = jsonio.database_to_json(Database.random(params, protocol.db_rng(0)))
        doc["files"][0][0][0] = value
        db_doc = tmp_path / "db.json"
        db_doc.write_text(json.dumps(doc))
        out = tmp_path / "shares.json"
        code = run_cli(
            "encode", "--q", "3", "--n", "3", "--m", "2", "--k", "2",
            "--db", str(db_doc), "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: files must be integers in [0, 3)")
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(BAD_DATABASES))
    def test_bad_database_document_is_config_error(self, case, tmp_path, capsys):
        params = StorageParams(q=3, n=3, m=2, k=2)
        doc = jsonio.database_to_json(Database.random(params, protocol.db_rng(0)))
        BAD_DATABASES[case](doc)
        db_doc = tmp_path / "db.json"
        db_doc.write_text(json.dumps(doc))
        out = tmp_path / "shares.json"
        code = run_cli(
            "encode", "--q", "3", "--n", "3", "--m", "2", "--k", "2",
            "--db", str(db_doc), "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


def _batched_database(tmp_path):
    params = StorageParams(q=3, n=3, m=2, k=2)
    doc = jsonio.database_to_json(Database.random(params, protocol.db_rng(0)))
    doc["files"] = [doc["files"], doc["files"]]  # two databases stacked
    return ["encode", "--q", "3", "--n", "3", "--m", "2", "--k", "2", "--db"], doc


def _batched_shares(tmp_path):
    doc = _shares_doc(tmp_path)
    for node in doc["nodes"]:
        node["values"] = [node["values"], node["values"]]  # two shares stacked
    return ["reconstruct", "--nodes", "1,3", "--shares"], doc


class TestLeadingAxisDocuments:
    """Documents describe one database or one set of shares; a stacked
    batch of them is refused with exit 2 and no output."""

    @pytest.mark.parametrize(
        "build,message",
        [
            (_batched_database, "error: files shape (2, 2, 1, 2) != (2, 1, 2)\n"),
            (_batched_shares, "error: share from node 1 has length (2, 2), want 2\n"),
        ],
        ids=["encode_db", "reconstruct_shares"],
    )
    def test_refused(self, build, message, tmp_path, capsys):
        argv, doc = build(tmp_path)
        path = tmp_path / "batched.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert run_cli(*argv, str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


def run_module(*argv, timeout=None):
    # the child imports the same spir_mds as this process, installed or not
    src_dir = str(Path(spir_mds.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "spir_mds", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


def test_console_script_entry_point():
    proc = run_module("rates", "--n", "4", "--m", "2", "--k", "2")
    assert proc.returncode == 0
    assert "1/2" in proc.stdout


class TestHugeStripes:
    """A huge ``stripes`` is refused at once with exit 2, never a hang or a
    traceback.  2**70 fails ``StorageParams``; 2**50 passes it, but its
    universe is refused before any power is formed, and its first array
    (32 PiB) is beyond any address space, so allocation fails on every
    machine rather than overcommitting."""

    INSTANCE = ("--q", "3", "--n", "3", "--m", "2", "--k", "2")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("run", "--stripes", str(2**70)), "2**63 bytes"),
            (("audit", "--stripes", str(2**70)), "2**63 bytes"),
            (("encode", "--stripes", str(2**70)), "2**63 bytes"),
            (("audit", "--stripes", str(2**50)), "ceiling"),
            (("run", "--stripes", str(2**50)), "out of memory"),
            (("encode", "--stripes", str(2**50)), "out of memory"),
            (("audit", "--stripes", str(2**50), "--monte-carlo", "500"), "2**63 bytes"),
            (("audit", "--stripes", str(2**40), "--monte-carlo", "500"), "out of memory"),
        ],
        ids=["run-2^70", "audit-2^70", "encode-2^70", "audit-2^50", "run-2^50",
             "encode-2^50", "audit-mc-2^50", "audit-mc-2^40"],
    )
    def test_exits_2_without_traceback(self, argv, message):
        proc = run_module(argv[0], *self.INSTANCE, *argv[1:], timeout=30)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_monte_carlo_db_screen_refused_before_its_tables(self):
        # 600,000 answer digits x 200,000 other-file digits: 1.2e11 pairwise
        # tables for one sample, refused before the first is built
        proc = run_module(
            "audit", *self.INSTANCE, "--stripes", "100000", "--checks", "db-privacy",
            "--monte-carlo", "1", timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "pairwise tables" in proc.stderr
        assert "Traceback" not in proc.stderr


# Edge values drawn for every integer flag, besides the flag's own values.
HUGE = str(2**70)
EDGE = ("0", "-1", HUGE, "", "x", "1.5")


def _ints(*own, edge=EDGE):
    """Each own value six times as likely as each edge value, so that
    whole argvs are often valid."""
    return st.sampled_from(own * 6 + edge)


def _specs(*own):
    return st.sampled_from(own + ("0", "-1", HUGE, "", "x", "1:" + HUGE, "0:" + HUGE, "2,x"))


# q=4 is not prime, q=2 is below the Cauchy threshold once m >= 2, m=4 is never below n
INSTANCE = {
    "--q": _ints("2", "3", "5", "7", "4"),
    "--n": _ints("2", "3", "4", "5"),
    "--m": _ints("1", "2", "4"),
    "--k": _ints("2", "1", "3"),
}
INSTANCE_OPTIONAL = {
    "--stripes": _ints("1", "2"),
    "--generator": st.sampled_from(["cauchy", "search", "vandermonde"]),
}
SEED = _ints("1", "2")
# no huge ceiling: it would let an exact audit enumerate 7**18 points
CEILING = _ints("4096", "64", "1", edge=tuple(e for e in EDGE if e != HUGE))
RANDOMNESS = st.sampled_from(
    ["full", "zeroed", "partial=0", "partial=1", "partial=-1", "partial=99", f"partial={HUGE}",
     "partial=", "partial=x", "none"]
)
FLAG = st.just(None)  # a store_true flag, given without a value
# <name> stands for a document path the test fills in; <missing> names no file
DOCUMENT = st.sampled_from(["<shares>", "<db>", "<config>", "<missing>"])

# Per subcommand: flags always given, and flags each given half the time.
GRAMMAR = {
    "run": (INSTANCE, {
        **INSTANCE_OPTIONAL, "--config": DOCUMENT, "--theta": _ints("1", "2", "3"),
        "--seed-user": SEED, "--seed-node": SEED, "--seed-db": SEED, "--randomness": RANDOMNESS,
    }),
    "audit": ({**INSTANCE, "--ceiling": CEILING}, {
        **INSTANCE_OPTIONAL, "--config": DOCUMENT, "--randomness": RANDOMNESS, "--seed": SEED,
        "--checks": st.sampled_from(
            ["correctness", "user-privacy", "db-privacy", "correctness,db-privacy", ",", "", "bogus"]
        ),
        "--monte-carlo": _ints("30", "1"),
    }),
    "rates": (
        {"--n": _specs("4", "2:5", "3,4", "2:400"), "--m": _specs("2", "1:3", "5", "1:400"),
         "--k": _specs("2", "1:4", "1000000")},
        {"--csv": FLAG, "--convergence": FLAG},
    ),
    "encode": (INSTANCE, {**INSTANCE_OPTIONAL, "--seed-db": SEED, "--db": DOCUMENT}),
    "reconstruct": ({"--shares": DOCUMENT, "--nodes": _specs("1,2", "2,4", "1", "1,1", "3:4", "0,5")}, {}),
}


def _argv(command, flags):
    words = [command]
    for flag, value in flags.items():
        words += [flag] if value is None else [flag, value]
    return words


ARGV = st.one_of(
    st.fixed_dictionaries(required, optional=optional).map(lambda flags, c=command: _argv(c, flags))
    for command, (required, optional) in GRAMMAR.items()
)


@pytest.fixture(scope="module")
def cli_documents(tmp_path_factory):
    """Paths of a valid shares, database and run_config document, and of no file."""
    base = tmp_path_factory.mktemp("documents")
    docs = {f"<{name}>": str(base / f"{name}.json") for name in ("shares", "db", "config", "missing")}
    assert run_cli("encode", "--q", "5", "--n", "4", "--m", "2", "--k", "2", "--out", docs["<shares>"]) == 0
    assert run_cli("reconstruct", "--shares", docs["<shares>"], "--nodes", "1,2", "--out", docs["<db>"]) == 0
    Path(docs["<config>"]).write_text(jsonio.canonical_dumps({"kind": "run_config", **CONFIG_INSTANCE}))
    return docs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argv=ARGV)
@example(argv=["rates", "--n", "3", "--m", "5", "--k", "2"])
@example(argv=["rates", "--n", "", "--m", "1", "--k", "2"])
@example(argv=["rates", "--n", "3", "--m", "1", "--k", HUGE])
@example(argv=["rates", "--n", "2:400", "--m", "1:400", "--k", "1:4"])
@example(argv=["audit", "--q", "2", "--n", "2", "--m", "1", "--k", "2", "--ceiling", "4096", "--randomness", "zeroed"])
@example(argv=["audit", "--q", "5", "--n", "4", "--m", "2", "--k", "2", "--ceiling", "64",
               "--monte-carlo", HUGE, "--checks", "user-privacy"])
@example(argv=["audit", "--q", "3", "--n", "3", "--m", "2", "--k", "40", "--checks", "correctness",
               "--ceiling", str(2**300)])
def test_every_argv_gives_a_document_a_refusal_or_a_witness(cli_documents, argv):
    """Whatever argv the grammar draws, ``main`` ends in exactly one of:
    exit 0 with non-empty documents, exit 2 with one ``error:`` line and
    no output file, or exit 4 with a witness; never a traceback."""
    argv = [cli_documents.get(word, word) for word in argv]
    with tempfile.TemporaryDirectory() as out_dir:
        outs = [os.path.join(out_dir, "out")]
        argv += ["--out", outs[0]]
        if argv[0] == "run":
            outs.append(os.path.join(out_dir, "rate"))
            argv += ["--rate-out", outs[1]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own refusals
                code = exc.code
        err = stderr.getvalue()
        assert "Traceback" not in err and stdout.getvalue() == ""
        assert code in (0, 2, 4), (code, err)
        if code == 2:
            assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:], err
            assert os.listdir(out_dir) == []
        else:
            assert all(Path(out).read_text() for out in outs)
            assert code == 0 or "witness" in err, err
