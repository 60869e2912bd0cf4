"""No dead helpers: every public top-level function and class of the package,
and every public method, is used by code in src/ or perfbench/ outside its
own definition. A use found only under tests/ does not keep a definition
alive; the few definitions kept for tests alone are listed in ALLOWED, each
with its reason.

A use of a module-level definition names its module: `module.name` (with
`module` a package module; perfbench binds the modules it drives to their
own names), `vars(module)["name"]`, `getattr(module, "name")`, an import
`from .module import name` and each later use of that local name, or a
bare `name` inside its own module. Perfbench names its trace targets in
strings, so a ("module", "name") pair of string literals and a
"module.name" string count too. A method is used by any attribute of its
name (the receiver's class is not known statically), by vars(...)["method"]
or by a "Class.method" string; the methods of private classes are checked
too. Comments and docstrings do not count: prose that mentions a helper does
not keep it alive."""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rlvc"
SEARCHED = ("src", "perfbench")
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
# Public definitions that tests alone use, or that only code outside the
# searched tree calls: a file name for a whole module, "module.name", or
# "module.Class.method".
ALLOWED = {
    "engine.py": "its ops are the vocabulary of the test oracle (tests/oracle.py)",
    "data.load_features": "the reader of the files `rlvc synthesize` writes",
    "cli._Parser.error": "an argparse override: argparse calls it on a bad command line",
}


def _public_definitions(tree: ast.Module, module: str):
    """(use key, ALLOWED key, node) of each public definition: "module.name"
    for both at module level; ".method" and "module.Class.method" for a
    public method of any class."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f".{item.name}", f"{module}.{node.name}.{item.name}", item


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the string constants that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _package_source(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from, "" for the package itself,
    None for another package. Only the package's own modules import
    relatively."""
    if node.level:
        return node.module or ""
    if node.module == "rlvc":
        return ""
    if node.module and node.module.startswith("rlvc."):
        return node.module[len("rlvc.") :]
    return None


def _named(module: str, attr: str) -> list[str]:
    """Keys used by naming attr, which may be "Class.method", of module."""
    head, _, method = attr.partition(".")
    return [f"{module}.{head}"] + ([f".{method}"] if method else [])


def _text(node) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _uses(tree: ast.Module, own: str | None):
    """(line, key) of every use in a file; `own` is its package module name,
    None outside the package."""
    docstrings = _docstrings(tree)
    modules = {name: name for name in MODULES}  # local name -> package module
    imported = {}  # local name -> "module.name"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (source := _package_source(node)) is not None:
            for alias in node.names:
                local = alias.asname or alias.name
                if source:
                    imported[local] = f"{source}.{alias.name}"
                else:
                    modules[local] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("rlvc."):
                    modules[alias.asname] = alias.name[len("rlvc.") :]

    def attribute(target, attr: str) -> list[str]:
        if isinstance(target, ast.Name) and target.id in modules:
            return _named(modules[target.id], attr)
        return [f".{attr}"]

    for node in ast.walk(tree):
        keys = []
        if isinstance(node, ast.Name):
            if node.id in imported:
                keys = [imported[node.id]]
            elif own is not None:
                keys = [f"{own}.{node.id}"]
        elif isinstance(node, ast.Attribute):
            keys = attribute(node.value, node.attr)
        elif isinstance(node, ast.ImportFrom):
            keys = [imported[a.asname or a.name] for a in node.names if (a.asname or a.name) in imported]
        elif isinstance(node, ast.Subscript) and _text(node.slice) is not None:
            call = node.value
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "vars" and call.args:
                keys = attribute(call.args[0], _text(node.slice))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr":
            if len(node.args) >= 2 and _text(node.args[1]) is not None:
                keys = attribute(node.args[0], _text(node.args[1]))
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            module, attr = (_text(e) for e in node.elts)
            if module in MODULES and attr:
                keys = _named(module, attr)
        elif _text(node) is not None and id(node) not in docstrings:
            module, _, attr = node.value.partition(".")
            if module in MODULES and attr:
                keys = _named(module, attr)
        for key in keys:
            yield node.lineno, key


def unused_definitions() -> list[str]:
    """`file:line name` of each public definition no code uses elsewhere."""
    trees = {
        path: ast.parse(path.read_text())
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    used_at = defaultdict(list)
    for path, tree in trees.items():
        own = path.stem if path.parent == PACKAGE else None
        for line, key in _uses(tree, own):
            used_at[key].append((path, line))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ALLOWED:
            continue
        for key, allowed_key, node in _public_definitions(trees[path], path.stem):
            if allowed_key in ALLOWED:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in own for p, line in used_at[key]):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    return unused


def test_no_public_definition_is_dead():
    assert unused_definitions() == []


def _engine_imports(node) -> list[str]:
    """What an import statement takes from rlvc.engine: "engine" for the
    module itself, else the names it imports from it."""
    if isinstance(node, ast.Import):
        return ["engine" for alias in node.names if alias.name == "rlvc.engine"]
    if isinstance(node, ast.ImportFrom):
        module = ".".join((["rlvc"] if node.level else []) + ([node.module] if node.module else []))
        names = [alias.name for alias in node.names]
        if module == "rlvc.engine":
            return names
        if module == "rlvc":
            return [name for name in names if name == "engine"]
    return []


def test_only_nets_imports_the_engine():
    # The training losses and the softmax heads are numpy passes; the engine
    # stays in the package only as the holder of the networks' parameters.
    imports = {
        path.name: names
        for path in PACKAGE.glob("*.py")
        if (names := [n for node in ast.walk(ast.parse(path.read_text())) for n in _engine_imports(node)])
    }
    assert imports == {"nets.py": ["Tensor"]}
