import hashlib
import os
import py_compile
import random
import re
import subprocess
import sys
import json
from pathlib import Path

import pytest

import nwe.cli
import nwe.verifier
from nwe import gen_equal
from nwe.serialize import dumps_canonical, state_set_to_document

from helpers import load_script, rotated, without_stopper

ROOT = Path(__file__).resolve().parents[1]
# fresh interpreters per start-up figure in these tests; the script's own
# count is pinned in test_start_up_stage_runs
TEST_IMPORT_RUNS = 3


def quick_ladder(monkeypatch):
    """The ladder script with TEST_IMPORT_RUNS interpreters per start-up figure."""
    ladder = load_script("ladder")
    monkeypatch.setattr(ladder, "IMPORT_RUNS", TEST_IMPORT_RUNS)
    return ladder


def test_start_up_stage_runs():
    # with fewer, two runs of one tree's `import nwe.cli` differed by 40%
    assert load_script("ladder").IMPORT_RUNS == 21


def test_cli_stage_runs_nwe_verify_on_the_written_document(capsys):
    # `cli_s` is one `nwe verify --engine oracle` on the rung's canonical
    # document, written once; the report goes to a file and the command's
    # output is discarded
    ladder = load_script("ladder")
    assert ladder.STAGES[-1] == "cli_s"
    sset = without_stopper(gen_equal(3, 4))
    doc = ladder.document(sset)
    api, calls = ladder.tree("nwe"), []

    def cli_main(argv):
        calls.append(argv)
        print("to stdout")
        print("to stderr", file=sys.stderr)
        return nwe.cli.main(argv)

    api.cli_main = cli_main
    with ladder.written(doc) as (path, out):
        assert Path(path).read_text(encoding="utf-8") == dumps_canonical(state_set_to_document(sset))
        states, seconds, statuses = ladder.run(lambda api: without_stopper(api.gen_equal(3, 4)), doc, (path, out), api)
        report = json.loads(Path(out).read_text(encoding="utf-8"))
    assert calls == [["verify", "--input", path, "--engine", "oracle", "--out", out]]
    assert capsys.readouterr() == ("", "")
    assert (states, statuses) == (len(sset), ["Nontrivial"] * 3)
    assert len(seconds) == len(ladder.STAGES) and all(x >= 0 for x in seconds)
    assert [e["status"] for e in report["per_party"]] == statuses
    assert not Path(path).parent.exists()
    # a run whose command fails is not timed
    api.cli_main = lambda argv: 3
    with ladder.written(doc) as files, pytest.raises(RuntimeError, match="exited with 3"):
        ladder.run(lambda api: api.gen_equal(3, 3), doc, files, api)


def test_argument_rules(tmp_path, capsys):
    ladder = load_script("ladder")
    with pytest.raises(SystemExit) as exc:
        ladder.main(["--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z]+", capsys.readouterr().out)) == {"--help", "--json", "--against"}
    for argv in (["--against", "HEAD", "--json", str(tmp_path / "out.json")], ["--baseline", "BENCH_9.json"]):
        with pytest.raises(SystemExit) as exc:
            ladder.main(argv)
        assert exc.value.code == 2
    assert "--against does not take --json" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_unwritable_json_path_fails_before_any_rung(tmp_path, capsys, monkeypatch):
    ladder = load_script("ladder")
    built = []
    monkeypatch.setattr(ladder, "RUNGS", (("equal(3,3)", lambda api: built.append(1) or api.gen_equal(3, 3)),))
    out = tmp_path / "missing" / "out.json"
    assert ladder.main(["--json", str(out)]) == 2
    assert built == []
    assert capsys.readouterr() == ("", f"error: cannot write {out}: No such file or directory\n")


def test_stamp_carries_the_source_digest(tmp_path, capsys, monkeypatch):
    ladder = quick_ladder(monkeypatch)
    monkeypatch.setattr(ladder, "RUNGS", (("equal(3,3)", lambda api: api.gen_equal(3, 3)),))
    out = tmp_path / "ladder.json"
    assert ladder.main(["--json", str(out)]) == 0
    # the file holds exactly the rung lines printed
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert json.loads(out.read_text())["rungs"] == printed
    assert [list(line) for line in printed] == [["instance", "states", *ladder.STAGES, "statuses"]]
    # the digest `perfbench/run.py` stamps its runs with: sha256 over each
    # src/nwe/*.py in name order, as name, NUL and bytes; first 16 hex digits
    digest = hashlib.sha256()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "nwe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    stamp = json.loads(out.read_text())["stamp"]
    assert stamp["source_sha256"] == digest.hexdigest()[:16]
    # the start-up stage: a fresh `import nwe` and `import nwe.cli`, and a
    # whole cold `nwe verify` process; the median and the minimum of each
    assert list(stamp["import_s"]) == list(stamp["import_min_s"]) == list(ladder.STARTUP)
    assert ladder.STARTUP == (*ladder.IMPORTS, "cold") and ladder.IMPORTS == ("nwe", "nwe.cli")
    for name in ladder.STARTUP:
        assert 0 < stamp["import_min_s"][name] <= stamp["import_s"][name]
    # a process pays for more than its imports
    assert stamp["import_min_s"]["cold"] > stamp["import_min_s"]["nwe.cli"]


def test_import_stage_compiles_from_source(tmp_path):
    # a stale bytecode file that matches its source's size and mtime is
    # what a plain import runs; the stage's children, the cold process
    # included, compile the source
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "cli.py").write_text("x = 2\n")
    init = package / "__init__.py"
    init.write_text("raise SystemExit(3)\n")
    py_compile.compile(str(init), invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)
    mtime = init.stat().st_mtime_ns
    init.write_text("import json;  x = 1\n")
    os.utime(init, ns=(mtime, mtime))
    stale = subprocess.run([sys.executable, "-c", "import pkg"], cwd=tmp_path, capture_output=True)
    assert stale.returncode == 3
    cached = sorted((package / "__pycache__").iterdir())
    ladder = load_script("ladder")
    assert ladder.stdlib_modules(package) == ["json"]
    assert ladder.import_seconds(tmp_path, "pkg", "nwe") > 0
    assert ladder.cold_seconds(tmp_path, "pkg") > 0
    # and writes no bytecode
    assert sorted((package / "__pycache__").iterdir()) == cached


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="--against extracts a revision with git archive")
def test_against_head_on_two_small_rungs(capsys, monkeypatch):
    ladder = quick_ladder(monkeypatch)
    built = []  # the package of each set the first rung's builder makes

    def equal_3_3(api):
        sset = api.gen_equal(3, 3)
        built.append(type(sset).__module__)
        return sset

    rungs = (("equal(3,3)", equal_3_3), ("equal(3,4)-no-stopper", lambda api: without_stopper(api.gen_equal(3, 4))))
    monkeypatch.setattr(ladder, "RUNGS", rungs)
    assert ladder.main(["--against", "HEAD"]) == 0
    # once for the rung's document, then in every run by each tree's own generators
    assert built.count("nwe.states") == 1 + ladder.AGAINST_RUNS
    assert built.count(f"{ladder.AGAINST_PACKAGE}.states") == ladder.AGAINST_RUNS
    imports, *lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    # the start-up stage comes first, over fresh interpreters of each tree
    assert imports["stage"] == "import_s"
    assert imports["runs"] == ladder.IMPORT_RUNS == TEST_IMPORT_RUNS
    assert list(imports["ratio"]) == list(imports["min_ratio"]) == list(imports["won"]) == list(ladder.STARTUP)
    assert all(ratio > 0 for ratio in imports["ratio"].values())
    assert all(ratio > 0 for ratio in imports["min_ratio"].values())
    assert all(0 <= won <= TEST_IMPORT_RUNS for won in imports["won"].values())
    assert [line["instance"] for line in lines] == ["equal(3,3)", "equal(3,4)-no-stopper"]
    for line in lines:
        assert line["runs"] == ladder.AGAINST_RUNS == 5
        assert list(line["ratio"]) == list(line["won"]) == list(ladder.STAGES)
        assert all(0 <= won <= 5 for won in line["won"].values())
        assert line["statuses"] == line["against_statuses"]
    assert [line["statuses"] for line in lines] == [["Trivial"] * 3, ["Nontrivial"] * 3]
    # the revision's package is imported under its own name and dropped again
    assert not [m for m in sys.modules if m.startswith(ladder.AGAINST_PACKAGE)]
    # statuses that differ between the trees make the comparison fail
    monkeypatch.setattr(nwe.verifier, "verify_all", lambda sset: [])
    assert ladder.main(["--against", "HEAD"]) == 1
    assert ladder.main(["--against", "no-such-revision"]) == 2


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="--against extracts a revision with git archive")
def test_rotated_rung_draws_its_matrices_once(capsys, monkeypatch):
    # the search for the matrices is the tests' helper, not the library, so
    # it runs once per rung, before the timed runs, and both trees of
    # --against rotate by the same matrices
    ladder = quick_ladder(monkeypatch)
    drawn, used = [], []
    draw, rotate = ladder.rotations, ladder.rotate
    monkeypatch.setattr(ladder, "rotations", lambda *args: drawn.append(args) or draw(*args))
    monkeypatch.setattr(ladder, "rotate", lambda sset, mats: used.append(mats) or rotate(sset, mats))
    monkeypatch.setattr(ladder, "RUNGS", (("equal(3,4)-rotated", lambda api: ladder.rotated_equal(api, 4)),))
    assert ladder.main([]) == 0
    assert ladder.main(["--against", "HEAD"]) == 0
    capsys.readouterr()
    assert len(drawn) == 1
    assert len(used) == 1 + ladder.RUNS + 1 + 2 * ladder.AGAINST_RUNS
    assert all(mats is used[0] for mats in used)
    # the rung is the set `rotated` makes with the rung's seed
    expected = rotated(gen_equal(3, 4), random.Random(ladder.ROTATION_SEED + 4), range(3))
    assert ladder.rotated_equal(ladder.tree("nwe"), 4) == expected
