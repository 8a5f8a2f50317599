"""The import layering of the package: which tenalg modules each module may import."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tenalg"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
LAYERS = {"scalars", "dense", "algebra", "rank", "signature", "expr"}

ALLOWED = {
    "scalars": set(),
    "dense": {"scalars"},
    "algebra": {"dense", "scalars"},
    "rank": {"dense", "scalars"},
    "signature": {"algebra", "dense", "scalars"},
    "expr": {"dense", "rank", "scalars"},
    # the package and the CLI may import every layer; only __main__ imports the CLI
    "__init__": LAYERS,
    "cli": LAYERS | {"__init__"},
    "__main__": {"cli"},
}


def _tenalg_imports(module: str) -> set:
    """The tenalg modules that ``module`` imports anywhere in its source;
    a name taken from the package itself counts as ``__init__``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "tenalg":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "tenalg":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import name: a module of the package or a name of __init__
                found.update(a.name if a.name in MODULES else "__init__" for a in node.names)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_a_module_imports_only_the_modules_it_is_allowed(module):
    assert module in ALLOWED, f"{module}.py is new: add its row to ALLOWED"
    assert _tenalg_imports(module) <= ALLOWED[module]


def _private_definitions(tree) -> set:
    """The module-level ``_name`` functions, classes and assigned constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _names_read(tree) -> set:
    """Every name the code reads: a loaded name or attribute, or an imported
    name.  Docstrings and comments are not code, so they do not count."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_private_module_level_name_is_read_somewhere_in_the_package():
    trees = {m: ast.parse((PACKAGE / f"{m}.py").read_text(encoding="utf-8")) for m in MODULES}
    read = set().union(*map(_names_read, trees.values()))
    unused = sorted(f"{m}.{name}" for m, tree in trees.items() for name in _private_definitions(tree) - read)
    assert not unused, f"defined but never read in src/tenalg: {unused}"
