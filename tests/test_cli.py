import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nwe.cli
import nwe.serialize
import nwe.states
import nwe.verifier
from nwe import derive_certificate, gen_equal, gen_general, save_state_set, verify_all
from nwe.cli import _build_report, build_parser, main
from nwe.inference import check_certificate
from nwe.serialize import dumps_canonical, state_set_from_document, state_set_to_document
from nwe.states import check_pairwise_orthogonality

from helpers import big_basis_set, computational_basis_set, rotated, without_stopper

GOLDEN = Path(__file__).parent / "golden"


def write_doc(path, doc):
    path.write_text(dumps_canonical(doc), encoding="utf-8")


class TestGenerate:
    def test_equal_family_to_file(self, tmp_path, capsys):
        out = tmp_path / "set.json"
        code = main(["generate", "--equal", "--parties", "3", "--dim", "3", "--out", str(out)])
        assert code == 0
        assert "7 states" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["version"] == "nwe/1"
        assert doc["dims"] == [3, 3, 3]
        assert len(doc["states"]) == 7

    def test_general_family_to_stdout(self, capsys):
        code = main(["generate", "--dims", "3,3,4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "9 states" in captured.err
        doc = json.loads(captured.out)
        assert len(doc["states"]) == 9

    def test_readme_document_is_abridged_generate_output(self, capsys):
        # the README's canonical-JSON example, each `...` line standing for
        # one or more lines of the real output
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("`nwe generate --dims 3,3,4` writes", 1)[1].split("```\n", 2)[1]
        lines = block.splitlines()
        pattern = "".join(r"(?:[^\n]*\n)+?" if line.strip() == "..." else re.escape(line) + "\n" for line in lines)
        assert main(["generate", "--dims", "3,3,4"]) == 0
        assert re.fullmatch(pattern, capsys.readouterr().out)

    def test_byte_stable_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--dims", "3,4,5", "--out", str(a)]) == 0
        assert main(["generate", "--dims", "3,4,5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_dims_exit_2(self, capsys):
        code = main(["generate", "--dims", "3,2,4"])
        assert code == 2
        assert "nondecreasing" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["3.7,4,4", "3.0,4,4"])
    def test_non_integer_dims_exit_2(self, capsys, dims):
        assert main(["generate", "--dims", dims]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_equal_out_of_range_exit_2(self, capsys):
        code = main(["generate", "--equal", "--parties", "2", "--dim", "3"])
        assert code == 2
        assert "n >= 3" in capsys.readouterr().err

    def test_mode_must_be_chosen(self, capsys):
        assert main(["generate"]) == 2

    def test_family_above_the_size_bound_exit_2(self, capsys):
        code = main(["generate", "--equal", "--parties", "1000", "--dim", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: equal(n=1000,d=3) would have 2001 states")
        assert "6003000 in all" in captured.err


class TestVerify:
    def test_inline_dims_both_engines(self, capsys):
        code = main(["verify", "--dims", "3,3,3", "--engine", "both"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["certified_nonlocal"] is True
        assert report["orthogonality"]["ok"] is True
        entries = report["per_party"]
        assert {(e["party"], e["engine"]) for e in entries} == {
            (t, eng) for t in range(3) for eng in ("lemma", "oracle")
        }
        assert all(e["status"] == "Trivial" for e in entries)
        assert report["sizes"] == {"jiang": 10, "ours": 7, "wang": 9, "zhang": None}

    def test_basis_set_nontrivial_exit_1(self, tmp_path, capsys):
        doc = state_set_to_document(computational_basis_set((2, 2)))
        path = tmp_path / "basis22.json"
        write_doc(path, doc)
        code = main(["verify", "--input", str(path), "--engine", "oracle"])
        captured = capsys.readouterr()
        assert code == 1
        report = json.loads(captured.out)
        oracle = [e for e in report["per_party"] if e["engine"] == "oracle"]
        assert [e["status"] for e in oracle] == ["Nontrivial", "Nontrivial"]
        assert [e["nullspace_dim"] for e in oracle] == [2, 2]
        assert all("witness" in e for e in oracle)
        assert report["certified_nonlocal"] is False

    @pytest.mark.parametrize("engine", ["both", "lemma", "oracle"])
    def test_non_orthogonal_input_exit_3(self, tmp_path, capsys, engine):
        # the whole report is pinned: no sizes and no party entries
        doc = {
            "version": "nwe/1",
            "dims": [2, 2],
            "provenance": "overlap",
            "states": [
                {"locals": [[1, 0], [1, 0]]},
                {"locals": [[1, 1], [1, 1]]},
                {"locals": [[0, 1], [0, 1]]},
            ],
        }
        path = tmp_path / "broken.json"
        write_doc(path, doc)
        code = main(["verify", "--input", str(path), "--engine", engine])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: non-orthogonal state pairs: [(0, 1), (1, 2)]\n"
        assert captured.out == (
            "{\n"
            '  "certified_nonlocal": false,\n'
            '  "dims": [\n    2,\n    2\n  ],\n'
            '  "note": "input set is not pairwise orthogonal",\n'
            '  "orthogonality": {\n'
            '    "ok": false,\n'
            '    "violations": [\n      [\n        0,\n        1\n      ],\n      [\n        1,\n        2\n      ]\n    ]\n'
            "  },\n"
            '  "per_party": [],\n'
            '  "provenance": "overlap"\n'
            "}\n"
        )

    @pytest.mark.parametrize("count", [5, 200])
    def test_stderr_names_at_most_ten_violating_pairs(self, tmp_path, capsys, count):
        # equal states: every pair violates; the report lists all of them
        doc = {"version": "nwe/1", "dims": [3, 3, 3], "states": [{"locals": [[1, 0, 0]] * 3}] * count}
        path, out = tmp_path / "equal.json", tmp_path / "report.json"
        write_doc(path, doc)
        code = main(["verify", "--input", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        pairs = [[i, j] for i in range(count) for j in range(i + 1, count)]
        assert code == 3
        assert json.loads(out.read_text(encoding="utf-8"))["orthogonality"]["violations"] == pairs
        first = ", ".join(f"({i}, {j})" for i, j in pairs[:10])
        more = f" and {len(pairs) - 10} more (the report lists all {len(pairs)})" if len(pairs) > 10 else ""
        assert err == f"error: non-orthogonal state pairs: [{first}]{more}\n"
        if count == 200:
            assert len(err.encode()) < 300 and "19900" in err

    def test_malformed_json_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\n  \"version\": \"nwe/1\",\n", encoding="utf-8")
        code = main(["verify", "--input", str(path)])
        assert code == 3
        assert "line" in capsys.readouterr().err

    def test_schema_violation_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        write_doc(path, {"version": "nwe/0", "dims": [2, 2], "states": []})
        code = main(["verify", "--input", str(path)])
        assert code == 3
        assert "version" in capsys.readouterr().err

    def test_lemma_only_engine(self, capsys):
        code = main(["verify", "--dims", "3,4,5", "--engine", "lemma"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert {e["engine"] for e in report["per_party"]} == {"lemma"}
        assert any("UnitPropagation" in line for e in report["per_party"] for line in e["facts"])

    def test_lemma_only_incomplete_exit_1(self, tmp_path, capsys):
        doc = state_set_to_document(computational_basis_set((2, 2)))
        path = tmp_path / "basis22.json"
        write_doc(path, doc)
        code = main(["verify", "--input", str(path), "--engine", "lemma"])
        captured = capsys.readouterr()
        assert code == 1
        report = json.loads(captured.out)
        assert all(e["status"] == "Incomplete" for e in report["per_party"])
        assert all("diagonal_classes" in e for e in report["per_party"])

    def test_round_trip_matches_in_memory(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        assert main(["generate", "--dims", "3,3,4", "--out", str(path)]) == 0
        capsys.readouterr()
        code = main(["verify", "--input", str(path), "--engine", "oracle"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        in_memory = verify_all(gen_general((3, 3, 4)))
        from_file = [e for e in report["per_party"] if e["engine"] == "oracle"]
        assert [(e["party"], e["status"], e["nullspace_dim"]) for e in from_file] == [
            (v.party, v.status, v.nullspace_dim) for v in in_memory
        ]

    def test_report_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--dims", "3,3,3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["certified_nonlocal"] is True

    def test_inline_family_above_the_size_bound_exit_2(self, capsys):
        code = main(["verify", "--dims", ",".join(["64"] * 16)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "1009 states of 1024 coefficients each, 1033216 in all" in captured.err

    def test_requires_exactly_one_source(self, capsys):
        assert main(["verify"]) == 2
        assert main(["verify", "--dims", "3,3,3", "--input", "x.json"]) == 2


class TestCompare:
    @staticmethod
    def counts(out):
        values = {}
        for line in out.splitlines()[1:]:
            name, value = line.split()[:2]
            values[name] = value
        return values

    def test_four_equal_qutrits(self, capsys):
        assert main(["compare", "--dims", "3,3,3,3"]) == 0
        values = self.counts(capsys.readouterr().out)
        assert values["ours"] == "9"
        assert values["jiang"] == "13"

    def test_tripartite_table(self, capsys):
        assert main(["compare", "--dims", "3,3,3"]) == 0
        values = self.counts(capsys.readouterr().out)
        assert values == {"ours": "7", "jiang": "10", "wang": "9"}

    def test_bipartite_context(self, capsys):
        assert main(["compare", "--dims", "4,4"]) == 0
        out = capsys.readouterr().out
        assert "zhang" in out and "7" in out

    def test_json_mode(self, capsys):
        assert main(["compare", "--dims", "3,4,5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "dims": [3, 4, 5],
            "ours": 12,
            "jiang": 16,
            "wang": 13,
            "zhang": None,
        }


    @pytest.mark.parametrize("dims", ["1,1", "3,1,4", "0,3", "3,3,-2"])
    def test_dimension_below_two_exit_2(self, capsys, dims):
        assert main(["compare", "--dims", dims]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "dimension must be >= 2" in captured.err


class TestDimCap:
    def test_cap_is_enforced(self, capsys):
        code = main(["generate", "--dims", "3,3,65"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: party 2: dimension 65 exceeds cap 64\n"

    def test_cap_in_a_document_exit_3(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        write_doc(path, {"version": "nwe/1", "dims": [3, 65], "states": []})
        code = main(["verify", "--input", str(path)])
        assert code == 3
        assert capsys.readouterr().err == "error: invalid document: bad dims: party 1: dimension 65 exceeds cap 64\n"

    @pytest.mark.parametrize("raw", ["128", "abc"])
    def test_environment_is_ignored(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("NWE_DIM_CAP", raw)
        assert main(["verify", "--dims", "3,3,3"]) == 0
        assert capsys.readouterr().err == ""


class TestJsonBooleans:
    def test_boolean_coefficients_exit_3(self, tmp_path, capsys):
        doc = {
            "version": "nwe/1",
            "dims": [2, 2],
            "states": [{"locals": [[True, False], [1, 0]]}],
        }
        path = tmp_path / "bools.json"
        write_doc(path, doc)
        code = main(["verify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "states[0].locals[0]: expected an array of integers" in captured.err
        assert captured.out == ""

    def test_boolean_after_an_equal_integer_vector_exit_3(self, tmp_path, capsys):
        doc = {
            "version": "nwe/1",
            "dims": [2, 2],
            "states": [{"locals": [[1, 0], [1, 0]]}, {"locals": [[True, 0], [0, 1]]}],
        }
        path = tmp_path / "bools.json"
        write_doc(path, doc)
        code = main(["verify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "states[1].locals[0]: expected an array of integers" in captured.err
        assert captured.out == ""


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_consecutive_calls_start_fresh(self, tmp_path, capsys):
        out = tmp_path / "lemma.json"
        assert main(["verify", "--dims", "3,3,3", "--engine", "lemma", "--out", str(out)]) == 0
        assert {e["engine"] for e in json.loads(out.read_text())["per_party"]} == {"lemma"}
        assert capsys.readouterr().out == ""
        # neither the engine nor the report path carries over
        assert main(["verify", "--dims", "3,3,3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {e["engine"] for e in report["per_party"]} == {"lemma", "oracle"}
        assert main(["compare", "--dims", "3,3,3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["dims"] == [3, 3, 3]
        assert main(["compare", "--dims", "3,3,3"]) == 0
        assert capsys.readouterr().out.startswith("dims: 3,3,3\n")

    def test_usage_error_still_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--engine", "neither"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(["compare", "--dims", "3,3,3", "--json"]) == 0


class TestHostileInput:
    def run_verify(self, path, capsys):
        code = main(["verify", "--input", str(path)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        return code, captured.err

    def test_non_utf8_input_exit_3(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"version": "nwe/1", "provenance": "caf\xe9", "dims": [2, 2], "states": []}')
        code, err = self.run_verify(path, capsys)
        assert code == 3
        assert "not UTF-8" in err

    def test_deeply_nested_json_exit_3(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        code, err = self.run_verify(path, capsys)
        assert code == 3
        assert "nested too deeply" in err

    def test_integer_over_the_digit_limit_exit_3(self, tmp_path, capsys):
        # Python refuses to convert integer literals longer than 4300 digits
        path = tmp_path / "huge.json"
        path.write_text('{"version": "nwe/1", "dims": [' + "1" * 5000 + ', 2], "states": []}', encoding="utf-8")
        code, err = self.run_verify(path, capsys)
        assert code == 3
        assert err.startswith("error: invalid document: ") and "digits" in err

    def test_duplicate_labels_exit_3(self, tmp_path, capsys):
        doc = {
            "version": "nwe/1",
            "dims": [2, 2],
            "states": [
                {"locals": [[1, 0], [1, 0]], "label": "a"},
                {"locals": [[0, 1], [1, 0]], "label": "b"},
                {"locals": [[1, 0], [0, 1]], "label": "a"},
            ],
        }
        path = tmp_path / "dupes.json"
        write_doc(path, doc)
        code, err = self.run_verify(path, capsys)
        assert code == 3
        assert "duplicate state label 'a': states[0] and states[2]" in err

    @pytest.mark.parametrize(
        "provenance, label, message",
        [
            ("user", 7, "states[1].label: expected a string"),
            ("user", [1], "states[1].label: expected a string"),
            (5, "b", "provenance must be a string"),
        ],
        ids=["int-label", "list-label", "int-provenance"],
    )
    def test_label_and_provenance_faults_exit_3(self, tmp_path, capsys, provenance, label, message):
        doc = {
            "version": "nwe/1",
            "dims": [2, 2],
            "provenance": provenance,
            "states": [{"locals": [[1, 0], [1, 0]], "label": "a"}, {"locals": [[0, 1], [1, 0]], "label": label}],
        }
        path = tmp_path / "labels.json"
        write_doc(path, doc)
        code, err = self.run_verify(path, capsys)
        assert code == 3
        assert err == f"error: invalid document: {message}\n"

    def test_coefficient_fault_wins_over_provenance_fault(self, tmp_path, capsys):
        # the set checks its provenance and labels after the loader has read
        # every state, so a structural or coefficient fault is named first
        doc = {
            "version": "nwe/1",
            "dims": [2, 2],
            "provenance": 5,
            "states": [{"locals": [[1, 0], [1, 0]]}, {"locals": [[True, 0], [1, 0]]}],
        }
        path = tmp_path / "faults.json"
        write_doc(path, doc)
        code, err = self.run_verify(path, capsys)
        assert code == 3
        assert err == "error: invalid document: states[1].locals[0]: expected an array of integers\n"

    def test_oracle_invariant_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        # party 0's nullspace has dimension 2; with no witness drawn from it
        # the oracle raises InvariantError and there is no verdict to report
        monkeypatch.setattr(nwe.verifier, "_witness", lambda *args: None)
        path = tmp_path / "big.json"
        save_state_set(big_basis_set(2**31 + 11), path)
        code, err = self.run_verify(path, capsys)
        assert code == 3
        assert err.startswith("error: no verdict: party 0: nullspace of dimension 2 yields no witness")

    def test_missing_input_exit_3(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        code, err = self.run_verify(path, capsys)
        assert code == 3
        assert str(path) in err

    @pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero on this platform")
    def test_device_input_exit_3_before_reading(self, capsys, monkeypatch):
        # /dev/zero never ends: reading it would run until memory runs out
        def no_read(fh):
            raise AssertionError("the document was read")

        monkeypatch.setattr(nwe.serialize.json, "load", no_read)
        code, err = self.run_verify("/dev/zero", capsys)
        assert code == 3
        assert err == "error: invalid document: not a regular file\n"

    def test_directory_input_exit_3(self, tmp_path, capsys):
        code, err = self.run_verify(tmp_path, capsys)
        assert code == 3
        assert err == "error: invalid document: not a regular file\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_fifo_input_exit_3_without_waiting(self, tmp_path):
        # a FIFO with no writer would block a plain open() for good, so the
        # run is a child process with a timeout: a regression fails, not hangs
        path = tmp_path / "pipe"
        os.mkfifo(path)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "nwe.cli", "verify", "--input", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "error: invalid document: not a regular file\n"

    def test_too_many_states_exit_3(self, tmp_path, capsys, monkeypatch):
        # 6,000 equal states make 17,997,000 non-orthogonal pairs: without
        # the pair bound, building their table would run for minutes
        def no_table(sset):
            raise AssertionError("the pair table was built")

        monkeypatch.setattr(nwe.states, "_classify_pairs", no_table)
        doc = {"version": "nwe/1", "dims": [3, 3, 3], "states": [{"locals": [[1, 0, 0]] * 3}] * 6000}
        path = tmp_path / "crowd.json"
        write_doc(path, doc)
        code, err = self.run_verify(path, capsys)
        assert code == 3
        assert err == "error: invalid document: 6000 states make 17997000 state pairs, above the bound of 1000000\n"


class TestUnwritableReport:
    def test_out_in_missing_directory_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code = main(["verify", "--dims", "3,3,3", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"
        assert not out.exists()

    def test_generate_out_to_a_directory_exit_2(self, tmp_path, capsys):
        code = main(["generate", "--dims", "3,3,4", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: cannot write {tmp_path}: ")
        assert captured.err.count("\n") == 1

    def test_non_orthogonal_input_to_missing_directory_exit_3(self, tmp_path, capsys):
        path = tmp_path / "overlap.json"
        write_doc(
            path,
            {
                "version": "nwe/1",
                "dims": [2, 2],
                "provenance": "user",
                "states": [{"locals": [[1, 0], [1, 0]]}, {"locals": [[1, 1], [1, 1]]}],
            },
        )
        out = tmp_path / "missing" / "report.json"
        code = main(["verify", "--input", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: non-orthogonal state pairs: [(0, 1)]\n"
            f"error: cannot write {out}: No such file or directory\n"
        )
        assert not out.exists()


class TestGoldenReports:
    """The exact oracle report of two Nontrivial families, witness strings included."""

    @pytest.mark.parametrize(
        "name, sset",
        [("equal_3_4", gen_equal(3, 4)), ("general_3_3_4", gen_general((3, 3, 4)))],
    )
    def test_nontrivial_report_is_byte_identical(self, tmp_path, capsys, name, sset):
        path = tmp_path / "set.json"
        save_state_set(without_stopper(sset), path)
        code = main(["verify", "--input", str(path), "--engine", "oracle"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        golden = (GOLDEN / f"report_{name}_no_stopper.json").read_text(encoding="utf-8")
        assert captured.out == golden


# the classic sets of Bennett et al. 1999 (unnormalized; a ket's name lists
# the basis kets it sums or subtracts, cut to the party's dimension), each
# state as its parties' kets
CLASSIC_KETS = {
    "0": (1, 0, 0), "1": (0, 1, 0), "2": (0, 0, 1), "0+1": (1, 1, 0), "0-1": (1, -1, 0),
    "1+2": (0, 1, 1), "1-2": (0, 1, -1), "0+1+2": (1, 1, 1), "+": (1, 1), "-": (1, -1),
}
CLASSIC_SETS = {
    # the domino basis of 3x3: a complete orthogonal product basis
    "domino": [("1", "1"), ("0", "0+1"), ("0", "0-1"), ("2", "1+2"), ("2", "1-2"),
               ("1+2", "0"), ("1-2", "0"), ("0+1", "2"), ("0-1", "2")],
    # the Tiles UPB of 3x3: four tiles and the stopper
    "tiles": [("0", "0-1"), ("0-1", "2"), ("2", "1-2"), ("1-2", "0"), ("0+1+2", "0+1+2")],
    # the Shifts UPB of 2x2x2, with + and - for |0>+|1> and |0>-|1>
    "shifts": [("0", "1", "+"), ("1", "+", "0"), ("+", "0", "1"), ("-", "-", "-")],
}


class TestClassicSets:
    """The golden nwe/1 documents of three classic sets and their reports:
    the oracle proves every party of each Trivial, and the lemma engine
    completes on Tiles only."""

    @pytest.mark.parametrize("name", sorted(CLASSIC_SETS))
    def test_document_holds_the_set(self, name):
        text = (GOLDEN / f"set_{name}.json").read_text(encoding="utf-8")
        sset = state_set_from_document(json.loads(text))
        dims = sset.shape.dims
        kets = [tuple(CLASSIC_KETS[k][:d] for k, d in zip(ks, dims)) for ks in CLASSIC_SETS[name]]
        assert [tuple(lv.coeffs for lv in s.locals) for s in sset.states] == kets
        assert check_pairwise_orthogonality(sset) == []
        assert dumps_canonical(state_set_to_document(sset)) == text

    @pytest.mark.parametrize("engine", ["oracle", "lemma"])
    @pytest.mark.parametrize("name", sorted(CLASSIC_SETS))
    def test_report_is_byte_identical(self, capsys, name, engine):
        code = main(["verify", "--input", str(GOLDEN / f"set_{name}.json"), "--engine", engine])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (GOLDEN / f"report_{name}_{engine}.json").read_text(encoding="utf-8")
        report = json.loads(captured.out)
        statuses = {entry["status"] for entry in report["per_party"]}
        certified = engine == "oracle" or name == "tiles"
        assert statuses == ({"Trivial"} if certified else {"Incomplete"})
        assert report["certified_nonlocal"] is certified
        assert code == (0 if certified else 1)


class TestReplayedCertificateSkipsElimination:
    """Under --engine both, a party the replayed certificate proves Trivial is
    neither assembled nor eliminated."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = {"assembled": [], "eliminated": 0}
        assemble, eliminate = nwe.verifier._assemble, nwe.verifier._exact_rref

        def assemble_spy(sset, t):
            calls["assembled"].append(t)
            return assemble(sset, t)

        def eliminate_spy(*args):
            calls["eliminated"] += 1
            return eliminate(*args)

        monkeypatch.setattr(nwe.verifier, "_assemble", assemble_spy)
        monkeypatch.setattr(nwe.verifier, "_exact_rref", eliminate_spy)
        return calls

    def verify(self, tmp_path, capsys, sset, engine):
        path = tmp_path / "set.json"
        save_state_set(sset, path)
        code = main(["verify", "--input", str(path), "--engine", engine])
        return code, capsys.readouterr()

    def test_lemma_trivial_family_is_not_eliminated(self, tmp_path, capsys, spy):
        code, _ = self.verify(tmp_path, capsys, gen_general((3, 4, 5)), "both")
        assert code == 0
        assert spy == {"assembled": [], "eliminated": 0}

    def test_only_the_incomplete_party_is_eliminated(self, tmp_path, capsys, spy):
        # party 0 rotated: the lemma engine is Incomplete there only
        sset = rotated(gen_equal(3, 4), random.Random(4), [0])
        code, captured = self.verify(tmp_path, capsys, sset, "both")
        assert code == 0
        assert spy == {"assembled": [0], "eliminated": 2}
        report = json.loads(captured.out)
        assert [(e["engine"], e["status"]) for e in report["per_party"]] == [
            ("lemma", "Incomplete"),
            ("oracle", "Trivial"),
            ("lemma", "Trivial"),
            ("oracle", "Trivial"),
            ("lemma", "Trivial"),
            ("oracle", "Trivial"),
        ]

    def test_oracle_engine_eliminates_every_party(self, tmp_path, capsys, spy):
        code, _ = self.verify(tmp_path, capsys, gen_general((3, 4, 5)), "oracle")
        assert code == 0
        assert spy == {"assembled": [0, 1, 2], "eliminated": 6}

    @pytest.mark.parametrize(
        "sset",
        [gen_general((3, 4, 5)), rotated(gen_equal(3, 4), random.Random(4), [0]), without_stopper(gen_equal(3, 4))],
        ids=lambda s: s.provenance,
    )
    def test_report_is_byte_identical(self, tmp_path, capsys, monkeypatch, sset):
        replayed = self.verify(tmp_path, capsys, sset, "both")
        # the same run with every party eliminated, the certificate unused
        monkeypatch.setattr(nwe.cli, "verify_all", lambda sset, cert=None: verify_all(sset))
        assert self.verify(tmp_path, capsys, sset, "both") == replayed

    def forged_trivial_certificate(self, tmp_path, capsys, monkeypatch, engine):
        # the first fact is dropped, yet every party still claims Trivial
        def forged(sset):
            cert = derive_certificate(sset)
            return cert._replace(facts=cert.facts[1:])

        monkeypatch.setattr(nwe.cli, "derive_certificate", forged)
        code, captured = self.verify(tmp_path, capsys, gen_equal(3, 3), engine)
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: no verdict: party 0: ")
        assert captured.err.count("\n") == 1

    def test_forged_trivial_certificate_exit_3(self, tmp_path, capsys, monkeypatch):
        self.forged_trivial_certificate(tmp_path, capsys, monkeypatch, "both")

    def test_forged_trivial_certificate_exit_3_lemma_engine(self, tmp_path, capsys, monkeypatch):
        # the lemma engine alone replays its certificate too
        self.forged_trivial_certificate(tmp_path, capsys, monkeypatch, "lemma")

    @pytest.mark.parametrize("engine, replays", [("both", 1), ("lemma", 1), ("oracle", 0)])
    def test_a_derived_certificate_is_replayed_once(self, tmp_path, capsys, monkeypatch, engine, replays):
        calls = []

        def counted(sset, cert):
            calls.append(cert)
            check_certificate(sset, cert)

        monkeypatch.setattr(nwe.cli, "check_certificate", counted)
        monkeypatch.setattr(nwe.verifier, "check_certificate", counted)
        code, _ = self.verify(tmp_path, capsys, gen_equal(3, 3), engine)
        assert code == 0 and len(calls) == replays


class TestVerifyReadsOnlyTheIndex:
    """A set read from a document is verified from its vector index and its
    labels: the report never builds its ProductState view."""

    @pytest.mark.parametrize("engines", [["lemma", "oracle"], ["oracle"], ["lemma"]], ids=["both", "oracle", "lemma"])
    @pytest.mark.parametrize(
        "sset",
        [gen_general((3, 4, 5)), without_stopper(gen_equal(3, 4)), rotated(gen_equal(3, 4), random.Random(4), [0])],
        ids=lambda s: s.provenance,
    )
    def test_states_view_is_never_built(self, sset, engines):
        loaded = state_set_from_document(json.loads(dumps_canonical(state_set_to_document(sset))))
        assert check_pairwise_orthogonality(loaded) == []
        report = _build_report(loaded, engines)
        assert "states" not in loaded.__dict__
        assert report == _build_report(sset, engines)
