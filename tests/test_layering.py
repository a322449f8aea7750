"""The package's import graph has no cycle through ``experiments``: only the
CLI and the package root import the runners' module, so every layer below it
loads without it."""

import ast
from pathlib import Path

import wignerlab

PACKAGE = Path(wignerlab.__file__).resolve().parent
ABOVE_EXPERIMENTS = {"cli", "__init__"}


def _imported_modules(tree: ast.Module) -> set[str]:
    """The wignerlab modules a module imports, at module level or inside a
    function, by relative or absolute import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                names.update(a.name for a in node.names)
            elif node.level == 1:  # from .x import y
                names.add(node.module.split(".")[0])
            elif node.level == 0 and (node.module or "").startswith("wignerlab."):
                names.add(node.module.split(".")[1])
            elif node.level == 0 and node.module == "wignerlab":
                names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("wignerlab."))
    return names


def test_the_walk_sees_every_import_form():
    tree = ast.parse("from . import experiments\n"
                     "def f():\n"
                     "    from .experiments import _x\n"
                     "    import wignerlab.dbm\n"
                     "    from wignerlab.sampler import y\n"
                     "    from wignerlab import profile\n")
    assert _imported_modules(tree) == {"experiments", "dbm", "sampler", "profile"}


def test_only_the_cli_and_the_package_root_import_experiments():
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 if "experiments" in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))}
    assert importers <= ABOVE_EXPERIMENTS, sorted(importers - ABOVE_EXPERIMENTS)
