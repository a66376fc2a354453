"""The package's top-level names against the documented usage: the README's
`## Library` section and the `from nwe import ...` lines of `scripts/`."""

import ast
import contextlib
import io
import re
import types
from pathlib import Path

import pytest

import nwe

ROOT = Path(__file__).resolve().parents[1]


def library_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def public_names() -> set[str]:
    return {
        name
        for name, value in vars(nwe).items()
        if (not name.startswith("_") or name == "__version__") and not isinstance(value, types.ModuleType)
    }


def test_readme_library_block_runs():
    block = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert "rule=Lemma1" in out.getvalue()


def test_readme_names_the_public_api():
    paragraph = library_section().strip().split("\n\n", 1)[0]
    assert set(re.findall(r"`(\w+)`", paragraph)) == public_names()


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_script_imports_resolve(script):
    tree = ast.parse(script.read_text(encoding="utf-8"))
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "nwe" for a in node.names]
    assert names, f"{script.name} imports nothing from nwe"
    assert [name for name in names if not hasattr(nwe, name)] == []
