"""No dead helpers: every public top-level function and class of the package,
and every public method, is named somewhere in src/, tests/ or perfbench/
outside its own definition."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rlvc"
SEARCHED = ("src", "tests", "perfbench")


def _public_definitions(tree: ast.Module):
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item


def unused_definitions() -> list[str]:
    """`file:line name` of each public definition never named elsewhere."""
    sources = {
        path: path.read_text().splitlines()
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public_definitions(ast.parse("\n".join(sources[path]))):
            pattern = re.compile(rf"\b{re.escape(node.name)}\b")
            own = range(node.lineno - 1, node.end_lineno)
            named = any(
                pattern.search(line)
                for p, lines in sources.items()
                for i, line in enumerate(lines)
                if not (p == path and i in own)
            )
            if not named:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    return unused


def test_no_public_definition_is_dead():
    assert unused_definitions() == []
