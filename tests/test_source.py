"""Checks on the package's source text."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "nwe").glob("*.py"))


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
