import ast
import re

import pytest

from helpers import load_script


def test_certify_families_sweep(capsys):
    # every equal(n, d) for n in 3..6 and d in 3..7, then 20 seeded general
    # sets, each certified by both engines and its certificate replayed
    certify_families = load_script("certify_families")
    assert certify_families.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    equal = [f"equal(n={n},d={d})" for n in range(3, 7) for d in range(3, 8)]
    assert [row[0] for row in rows[:20]] == equal
    assert [int(row[1]) for row in rows[:20]] == [n * (d - 1) + 1 for n in range(3, 7) for d in range(3, 8)]
    assert len(rows) == 40 and all(row[0].startswith("general(") for row in rows[20:])
    assert all(row[2:4] == ["True", "True"] for row in rows)
    assert lines[-1].endswith("all certified: True")


def test_size_comparison_equal_rows_are_the_paper_count(capsys):
    size_comparison = load_script("size_comparison")
    assert size_comparison.main([]) == 0
    equal_block = capsys.readouterr().out.split("\n\n")[0]
    rows = [re.fullmatch(r"(\(.*\))\s+(\S+)\s+(\S+)\s+(\S+)", line) for line in equal_block.splitlines()[2:]]
    assert len(rows) == 3 * 6
    for row in rows:
        dims = ast.literal_eval(row[1])
        n, d = len(dims), dims[0]
        assert dims == (d,) * n
        assert int(row[2]) == n * (d - 1) + 1


@pytest.mark.parametrize(
    "script, removed",
    [
        ("certify_families", ["--max-parties", "4"]),
        ("certify_families", ["--max-dim", "4"]),
        ("certify_families", ["--samples", "2"]),
        ("certify_families", ["--seed", "1"]),
        ("size_comparison", ["--max-dim", "5"]),
    ],
)
def test_scripts_take_no_options(capsys, script, removed):
    # the sweep and the tables are constants of each script; --help still works
    module = load_script(script)
    with pytest.raises(SystemExit) as exc:
        module.main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        module.main(removed)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
