"""``src/`` holds only code that runs: every module of ``repro`` has a caller.

An ``ast`` walk over import statements starts at the facades
(``repro.core.api``), the serving front doors (``repro.serve.service``,
``repro.serve.cluster``, ``repro.serve.worker``) and every ``repro`` module
that a script under ``benchmarks/`` or ``examples/`` imports, and follows the
imports of every module it reaches.  A package ``__init__`` re-export is not a
caller: ``from repro.x import name`` reaches the module that defines ``name``,
not everything ``repro/x/__init__.py`` imports.  Code only tests reach belongs
in ``tests/``.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ROOTS = ("repro.core.api", "repro.serve.service", "repro.serve.cluster", "repro.serve.worker")
SCRIPT_DIRS = ("benchmarks", "examples")


def source_modules():
    """``{dotted name: path}`` of every module and package ``__init__`` in ``repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = source_modules()


def is_package(name):
    return MODULES[name].name == "__init__.py"


def imports(path):
    """``(module, imported names)`` of every import statement in ``path``.

    A plain ``import x.y`` imports no names.  Relative imports are skipped:
    ``repro`` imports absolutely, and a script's relative imports stay in its
    own directory.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.module, tuple(alias.name for alias in node.names)))
    return found


def reached_by(module, names):
    """The modules an import of ``names`` from ``module`` reaches."""
    if module not in MODULES:
        return set()
    reached = {module}
    if not is_package(module):
        return reached
    exports = {}
    for source, exported in imports(MODULES[module]):
        for exported_name in exported:
            exports[exported_name] = source
    for name in names:
        if f"{module}.{name}" in MODULES:
            reached.add(f"{module}.{name}")
        elif name in exports:
            reached |= reached_by(exports[name], (name,))
    return reached


def reachable():
    frontier = set(ROOTS)
    for directory in SCRIPT_DIRS:
        for script in sorted((REPO / directory).rglob("*.py")):
            for module, names in imports(script):
                frontier |= reached_by(module, names)
    seen = set()
    while frontier:
        name = frontier.pop()
        seen.add(name)
        if is_package(name):
            continue
        for module, names in imports(MODULES[name]):
            frontier |= reached_by(module, names) - seen
    # importing a module runs its package's ``__init__``
    return seen | {name.rsplit(".", 1)[0] for name in seen}


def test_every_module_has_a_caller():
    orphans = sorted(set(MODULES) - reachable())
    assert not orphans, f"modules nothing runs: {orphans}"
