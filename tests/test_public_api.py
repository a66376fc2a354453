"""The package's top-level names against the documented usage: the README's
`## Library` and `## CLI` sections and the `from nwe import ...` lines of
`scripts/`; and the names that load their submodule on first use."""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import nwe
from nwe.cli import main

ROOT = Path(__file__).resolve().parents[1]


def library_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def public_names() -> set[str]:
    return set(nwe.__all__)


def test_star_import_binds_exactly_the_public_api():
    # a lazy name is in vars(nwe) only after its first use; after `import *`
    # every name of __all__ has been used, and nothing else public is there
    namespace = {}
    exec("from nwe import *", namespace)
    assert set(namespace) - {"__builtins__"} == public_names()
    bound = {
        name
        for name, value in vars(nwe).items()
        if (not name.startswith("_") or name == "__version__") and not isinstance(value, types.ModuleType)
    }
    assert bound == public_names()


def test_readme_library_block_runs():
    block = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert "rule=Lemma1" in out.getvalue()


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # every command line of the `## CLI` block, in order (a later line reads
    # an earlier one's file), with its comment dropped and `[--json]` run
    # both without and with the flag; the Library snippet runs above
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", text.split("\n## CLI\n", 1)[1], re.S).group(1)
    commands = []
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        assert words[0] == "nwe", line
        if "[--json]" in words:
            words.remove("[--json]")
            commands += [words[1:], words[1:] + ["--json"]]
        else:
            commands.append(words[1:])
    monkeypatch.chdir(tmp_path)
    assert [(argv, main(argv)) for argv in commands] == [(argv, 0) for argv in commands]
    assert len(commands) == 6 and (tmp_path / "set.json").is_file()


def test_readme_names_the_public_api():
    paragraph = library_section().strip().split("\n\n", 1)[0]
    assert set(re.findall(r"`(\w+)`", paragraph)) == public_names()


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_script_imports_resolve(script):
    tree = ast.parse(script.read_text(encoding="utf-8"))
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "nwe" for a in node.names]
    assert names, f"{script.name} imports nothing from nwe"
    assert [name for name in names if not hasattr(nwe, name)] == []


LAZY_CONTRACT = """
import json, sys
import nwe

nwe.gen_equal(3, 3); nwe.gen_general((3, 3, 4)); nwe.prior_sizes((3, 3, 4))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "nwe")
eager = [name for name in nwe.__all__ if name in vars(nwe)]
same, bound = [], []
for name in nwe.__all__:
    if name != "__version__":
        value = getattr(nwe, name)
        same.append(value is getattr(sys.modules[value.__module__], name))
        bound.append(vars(nwe)[name] is value)
try:
    nwe.nope
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "loaded": loaded, "eager": eager, "same": all(same), "bound": all(bound),
    "missing": missing, "dir": dir(nwe), "all": nwe.__all__,
}))
"""

BARE_IMPORT = """
import nwe
print(nwe.verifier.__name__, nwe.inference.__name__, nwe.serialize.__name__)
"""


def fresh_interpreter(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_only_the_generators():
    facts = json.loads(fresh_interpreter(LAZY_CONTRACT))
    # generating and comparing sizes compiles none of the engines
    assert facts["loaded"] == ["nwe", "nwe.constructions", "nwe.states"]
    assert set(facts["eager"]) == {
        "ConstructionError",
        "DimensionError",
        "InvariantError",
        "NonOrthogonalSetError",
        "StateSet",
        "gen_equal",
        "gen_general",
        "prior_sizes",
        "__version__",
    }
    # each name is its submodule's object, bound in the package once used
    assert facts["same"] and facts["bound"]
    assert facts["missing"] == "module 'nwe' has no attribute 'nope'"
    assert set(facts["all"]) <= set(facts["dir"])


def test_bare_import_still_exposes_the_engine_modules():
    assert fresh_interpreter(BARE_IMPORT).split() == ["nwe.verifier", "nwe.inference", "nwe.serialize"]


CLI_IMPORT = """
import json, sys
bare = set(sys.modules)
import nwe.cli
print(json.dumps(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules and m not in bare)))
"""


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every `nwe` process imports nwe.cli; its types are built without
    # dataclass code generation, so it compiles neither module
    assert json.loads(fresh_interpreter(CLI_IMPORT)) == []
