import ast
import re

from helpers import load_script


def test_certify_families_small_sweep(capsys):
    # every equal(n, d) for n, d in 3..4 and two general sets, each certified
    # by both engines and its certificate replayed
    certify_families = load_script("certify_families")
    assert certify_families.main(["--max-parties", "4", "--max-dim", "4", "--samples", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    assert [row[0] for row in rows[:4]] == ["equal(n=3,d=3)", "equal(n=3,d=4)", "equal(n=4,d=3)", "equal(n=4,d=4)"]
    assert [row[1] for row in rows[:4]] == ["7", "10", "9", "13"]
    assert len(rows) == 6 and all(row[0].startswith("general(") for row in rows[4:])
    assert lines[-1].endswith("all certified: True")


def test_size_comparison_equal_rows_are_the_paper_count(capsys):
    size_comparison = load_script("size_comparison")
    assert size_comparison.main(["--max-dim", "5"]) == 0
    equal_block = capsys.readouterr().out.split("\n\n")[0]
    rows = [re.fullmatch(r"(\(.*\))\s+(\S+)\s+(\S+)\s+(\S+)", line) for line in equal_block.splitlines()[2:]]
    assert len(rows) == 3 * 3
    for row in rows:
        dims = ast.literal_eval(row[1])
        n, d = len(dims), dims[0]
        assert dims == (d,) * n
        assert int(row[2]) == n * (d - 1) + 1
