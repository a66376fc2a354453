"""Checks on the package's source text."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "nwe").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    # `python -O` strips assert statements, so an invariant must raise
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements on lines {lines}"


def test_certificate_replay_does_not_run_the_search():
    # `--engine both` skips the elimination of a party that check_certificate
    # replays to Trivial, so the replay must not reuse the search it checks:
    # no function it reaches in its module names propagate or
    # derive_certificate, and it rebuilds every constraint from the supports,
    # not from the index's ket coordinates
    path = next(p for p in SOURCES if p.name == "inference.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["check_certificate"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        if name in functions:
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.Name):
                    todo.append(node.id)
                elif isinstance(node, ast.Attribute):
                    todo.append(node.attr)
    assert not reached & {"propagate", "derive_certificate", "kets"}


def test_package_imports_only_the_generators():
    # `import nwe` must not compile the verification engines: the package's
    # module-level imports come from .states and .constructions only, and
    # every other name loads its submodule on first use
    path = next(p for p in SOURCES if p.name == "__init__.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    todo, imports = list(tree.body), []
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    sources = {(node.level, node.module) if isinstance(node, ast.ImportFrom) else (0, None) for node in imports}
    assert sources == {(1, "states"), (1, "constructions")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    # the dataclass decorator generates and compiles each class's methods
    # at import, and `dataclasses` loads `inspect`; every `nwe` process
    # would pay for both at start-up
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert not [m for m in modules if m.split(".")[0] == "dataclasses"], f"{path.name} imports dataclasses"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_environment_read(path):
    # the library has no run-time knobs: a setting is a constant in the
    # source, so the same input gives the same result in every environment
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in names]
    reads += [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "os" and names & {a.name for a in node.names}
    ]
    assert not reads, f"{path.name} reads the environment on lines {reads}"


@pytest.mark.parametrize(
    "path",
    SOURCES + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: p.name,
)
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10 for the package and,
    # through `pip install -e .[test]`, its tests, while the suite may run
    # under a newer interpreter: refuse syntax that 3.10 lacks
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
