import hashlib
import random
import sys
import json
from pathlib import Path

import pytest

import nwe.verifier
from nwe import gen_equal

from helpers import load_script, rotated, without_stopper

ROOT = Path(__file__).resolve().parents[1]


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
    ladder = load_script("ladder")
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
    ladder = load_script("ladder")
    monkeypatch.setattr(ladder, "RUNGS", (("equal(3,3)", lambda api: api.gen_equal(3, 3)),))
    out = tmp_path / "ladder.json"
    assert ladder.main(["--json", str(out)]) == 0
    digest = hashlib.sha256()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "nwe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert json.loads(out.read_text())["stamp"]["source_sha256"] == digest.hexdigest()[:16]


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="--against extracts a revision with git archive")
def test_against_head_on_two_small_rungs(capsys, monkeypatch):
    ladder = load_script("ladder")
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
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
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
    ladder = load_script("ladder")
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
