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
