import hashlib
import os
import py_compile
import random
import subprocess
import sys
import json
from pathlib import Path

import pytest

import nwe.verifier
from nwe import gen_equal

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


def test_baseline_ratio():
    ladder = load_script("ladder")
    line = {
        "instance": "x",
        "generate_s": 0.003,
        "load_s": 0.002,
        "pair_table_s": 0.003,
        "verify_all_s": 0.5,
        "certificate_s": 0.004,
        "check_s": 0.001,
    }
    earlier = {
        "generate_s": 0.001,
        "load_s": 0.001,
        "pair_table_s": 0.006,
        "verify_all_s": 0.25,
        "certificate_s": 0.008,
        "check_s": 0.002,
    }
    assert ladder.baseline_ratio(line, earlier) == {
        "generate_s": 3.0,
        "load_s": 2.0,
        "pair_table_s": 0.5,
        "verify_all_s": 2.0,
        "certificate_s": 0.5,
        "check_s": 0.5,
    }
    # a rung or a stage missing from the baseline, or timed at 0 there, has no ratio
    assert ladder.baseline_ratio(line, {}) == dict.fromkeys(ladder.STAGES)
    assert ladder.baseline_ratio(line, {**earlier, "pair_table_s": 0.0})["pair_table_s"] is None
    assert ladder.baseline_ratio(line, {"pair_table_s": 0.006, "verify_all_s": 0.25})["certificate_s"] is None
    # a baseline written before `generate_s` was timed has no ratio for it
    assert ladder.baseline_ratio(line, {k: v for k, v in earlier.items() if k != "generate_s"})["generate_s"] is None


def test_baseline_ratios_are_printed_and_not_written(tmp_path, capsys, monkeypatch):
    ladder = quick_ladder(monkeypatch)
    monkeypatch.setattr(ladder, "RUNGS", (("equal(3,3)", lambda api: api.gen_equal(3, 3)),))
    times = dict.fromkeys(ladder.STAGES, 1.0)
    earlier = {"stamp": {}, "rungs": [{"instance": "equal(3,3)", **times}]}
    (tmp_path / "before.json").write_text(json.dumps(earlier))
    out = tmp_path / "after.json"
    assert ladder.main(["--json", str(out), "--baseline", str(tmp_path / "before.json")]) == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads(out.read_text())["rungs"][0]
    # the baseline times are 1 s, so each ratio is the time itself
    assert printed["baseline_ratio"] == {stage: round(printed[stage], 2) for stage in ladder.STAGES}
    assert "baseline_ratio" not in written
    assert written == {k: v for k, v in printed.items() if k != "baseline_ratio"}


def test_stamp_carries_the_source_digest(tmp_path, monkeypatch):
    # the digest `perfbench/run.py` stamps its runs with: sha256 over each
    # src/nwe/*.py in name order, as name, NUL and bytes; first 16 hex digits
    ladder = quick_ladder(monkeypatch)
    monkeypatch.setattr(ladder, "RUNGS", (("equal(3,3)", lambda api: api.gen_equal(3, 3)),))
    out = tmp_path / "ladder.json"
    assert ladder.main(["--json", str(out)]) == 0
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
