"""The package's import graph has no cycle through ``experiments``: only the
CLI and the package root import the runners' module, so every layer below it
loads without it. Only ``sampler`` and ``experiments`` start threads."""

import ast
from pathlib import Path

import wignerlab

PACKAGE = Path(wignerlab.__file__).resolve().parent
ABOVE_EXPERIMENTS = {"cli", "__init__"}
THREAD_STARTERS = {"sampler", "experiments"}
THREAD_MODULES = {"threading", "concurrent.futures"}


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


def _absolute_imports(tree: ast.Module) -> set[str]:
    """The dotted names of the modules a module imports by absolute import,
    at module level or inside a function, with their parent packages."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)  # from x import y
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
    return {".".join(name.split(".")[:k]) for name in names
            for k in range(1, name.count(".") + 2)}


def test_the_walk_sees_every_import_form():
    tree = ast.parse("from . import experiments\n"
                     "def f():\n"
                     "    from .experiments import _x\n"
                     "    import wignerlab.dbm\n"
                     "    from wignerlab.sampler import y\n"
                     "    from wignerlab import profile\n")
    assert _imported_modules(tree) == {"experiments", "dbm", "sampler", "profile"}
    for source in ("import threading", "from threading import Lock",
                   "import concurrent.futures", "from concurrent import futures",
                   "def f():\n    from concurrent.futures import wait\n"):
        assert _absolute_imports(ast.parse(source)) & THREAD_MODULES, source


def test_only_the_cli_and_the_package_root_import_experiments():
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 if "experiments" in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))}
    assert importers <= ABOVE_EXPERIMENTS, sorted(importers - ABOVE_EXPERIMENTS)


def test_only_sampler_and_experiments_import_threads():
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 if _absolute_imports(ast.parse(path.read_text(encoding="utf-8"))) & THREAD_MODULES}
    assert importers <= THREAD_STARTERS, sorted(importers - THREAD_STARTERS)
