import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    @pytest.mark.parametrize("count", ["99", "-1"])
    def test_partial_count_out_of_range_is_config_error(self, count, tmp_path, capsys):
        code = run_cli(
            "run", "--q", "5", "--n", "4", "--m", "2", "--k", "2",
            "--randomness", f"partial={count}", "--out", str(tmp_path / "t.json"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "partial randomness count" in err
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
        assert capsys.readouterr().err.startswith("error: partial mode needs a count")

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
        assert run_cli("rates", "--n", "2", "--m", "2,3", "--k", "2") == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1  # header only

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_bad_k_is_config_error(self, k, capsys):
        assert run_cli("rates", "--n", "4", "--m", "2", "--k", k) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "k >= 1" in err


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
