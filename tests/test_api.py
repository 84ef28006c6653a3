"""The library holds no code that only tests call, and its top level resolves.

A module-level function or class of ``src/knotquiver``, and a method or
property of such a class, must be named by code outside its own
definition: elsewhere in the library (a re-export in ``__init__`` does not
count), in ``bench/*.py``, or in README.md.  Dunder methods are called by
Python itself and are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import knotquiver

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "knotquiver"
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _names(tree: ast.AST) -> Counter:
    """Identifiers that code under ``tree`` names: variables, attributes,
    imports, and dotted-name strings such as the benchmark's ``"LinkDiagram.validate"``."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+(\.\w+)*", node.value):
                found.update(node.value.split("."))
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_definition_has_a_caller_outside_tests():
    modules = {p.name: _parse(p) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    outside = Counter(re.findall(r"\w+", README))
    for path in sorted((ROOT / "bench").glob("*.py")):
        outside += _names(_parse(path))
    per_statement = {
        name: [_names(stmt) for stmt in tree.body] for name, tree in modules.items()
    }
    library = sum((c for counts in per_statement.values() for c in counts), Counter())
    unused = []

    def check(name: str, node: ast.AST, own: Counter) -> None:
        if library[node.name] - own[node.name] + outside[node.name] <= 0:
            unused.append(f"{name}:{node.lineno} {node.name}")

    for name, tree in modules.items():
        for stmt, own in zip(tree.body, per_statement[name]):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                check(name, stmt, own)
            if isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                        check(name, member, _names(member))
    assert unused == []


def test_all_resolves():
    assert len(knotquiver.__all__) == len(set(knotquiver.__all__))
    missing = [name for name in knotquiver.__all__ if not hasattr(knotquiver, name)]
    assert missing == []


def test_readme_imports_are_exported():
    (block,) = re.findall(r"from knotquiver import \((.*?)\)", README, re.S)
    names = {name.strip() for name in block.split(",") if name.strip()}
    assert names and names <= set(knotquiver.__all__)
