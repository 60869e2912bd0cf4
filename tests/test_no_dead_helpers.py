"""No dead helpers: every public top-level function and class of the package,
and every public method, is used by code in src/ or perfbench/ outside its
own definition. A use found only under tests/ does not keep a definition
alive; the few definitions kept for tests alone are listed in ALLOWED, each
with its reason.

A use is a name, an attribute, an imported name, or a word of a string
literal that is not a docstring (perfbench names its trace targets in
strings). Comments and docstrings do not count: prose that mentions a helper
does not keep it alive."""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rlvc"
SEARCHED = ("src", "perfbench")
WORD = re.compile(r"\w+")
# Public definitions that tests alone use: a file name for a whole module, or
# "module.name".
ALLOWED = {
    "engine.py": "its ops are the vocabulary of the test oracle (tests/oracle.py)",
    "reward.reward": "the single-row outcome reward that acceptance test 03 checks",
    "data.load_features": "the reader of the files `rlvc synthesize` writes",
}


def _public_definitions(tree: ast.Module):
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the string constants that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _uses(tree: ast.Module):
    """(line, name) of every name the module's code uses."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            for word in WORD.findall(node.name):
                yield node.lineno, word
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            for word in WORD.findall(node.value):
                yield node.lineno, word


def unused_definitions() -> list[str]:
    """`file:line name` of each public definition no code uses elsewhere."""
    trees = {
        path: ast.parse(path.read_text())
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    used_at = defaultdict(list)
    for path, tree in trees.items():
        for line, name in _uses(tree):
            used_at[name].append((path, line))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ALLOWED:
            continue
        for node in _public_definitions(trees[path]):
            if f"{path.stem}.{node.name}" in ALLOWED:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in own for p, line in used_at[node.name]):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    return unused


def test_no_public_definition_is_dead():
    assert unused_definitions() == []


def _imports_engine(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "rlvc.engine" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = ".".join((["rlvc"] if node.level else []) + ([node.module] if node.module else []))
        names = {alias.name for alias in node.names}
        return module == "rlvc.engine" or (module == "rlvc" and "engine" in names)
    return False


def test_only_nets_imports_the_engine():
    # The training losses are numpy passes; the engine stays behind the
    # networks' parameter Tensors and the softmax heads in nets.py.
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(_imports_engine(n) for n in ast.walk(ast.parse(path.read_text())))
    )
    assert importers == ["nets.py"]
