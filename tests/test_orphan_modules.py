"""``src/`` holds only code that runs: every module and public name of ``repro`` has a caller.

The roots are the facades (``repro.core.api``), the serving front doors
(``repro.serve.service``, ``repro.serve.cluster``, ``repro.serve.worker``) and
every script under ``benchmarks/``, ``examples/`` and ``scripts/``.  Nothing
under ``tests/`` counts as a caller: code only tests reach belongs in
``tests/``.

The module guard is an ``ast`` walk over import statements: it starts at the
roots and follows the imports of every module it reaches.  A package
``__init__`` re-export is not a caller: ``from repro.x import name`` reaches
the module that defines ``name``, not everything ``repro/x/__init__.py``
imports.

The name guard checks every public (no leading underscore) module-level
function and class of a reached module, and every public method or property
a class body defines.  A name is called when a reached module or a root
script mentions it outside its own definition -- as a bare name, an
attribute, an import, or a string holding just the identifier (which covers
``getattr(obj, "name")``).  Package ``__init__`` files do not count here
either.  The match is by name alone, so a mention of any ``solve`` calls every
``solve``.  ``ALLOWED_UNCALLED`` lists the few names kept without a caller,
each with its reason, and fails when an entry has gained a caller or no
longer exists.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ROOTS = ("repro.core.api", "repro.serve.service", "repro.serve.cluster", "repro.serve.worker")
SCRIPT_DIRS = ("benchmarks", "examples", "scripts")

#: public names ``src/`` keeps with no caller there, ``qualified name -> reason``
ALLOWED_UNCALLED = {
    "repro.core.api.solve_lp": "Theorem 1.4's facade, the paper's general LP entry point",
    "repro.serve.cluster.ClusterService.add_worker": "operator scale-out, docs/cluster.md",
    "repro.serve.cluster.ClusterService.remove_worker": "operator scale-in, docs/cluster.md",
    "repro.serve.cluster.ClusterService.replicas_of": "operator placement query, docs/cluster.md",
    "repro.serve.cluster.ClusterService.arm_worker_faults": (
        "fault seam: arms a fault plan inside the worker processes"
    ),
    "repro.serve.cluster.ClusterService.wedge_worker": (
        "fault seam: hangs a worker so the health monitor's kill path runs"
    ),
    "repro.serve.cluster.ClusterService.kill_worker": (
        "fault seam: hard-kills a worker so the crash-recovery path runs"
    ),
    "repro.serve.cluster.ClusterService.wait_recovered": (
        "recovery wait: blocks until every shard serves again, docs/cluster.md"
    ),
    "repro.serve.faults.FaultInjector.fire_counts": (
        "fault seam: how often each rule fired, read by the fault suites"
    ),
}


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
SCRIPTS = [path for directory in SCRIPT_DIRS for path in sorted((REPO / directory).rglob("*.py"))]


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
    for script in SCRIPTS:
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


def public_definitions(module):
    """``(qualified name, node)`` of the public functions, classes and methods of ``module``."""
    found = []

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found.append((f"{prefix}.{node.name}", node))
                if isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}.{node.name}")

    walk(ast.parse(MODULES[module].read_text(encoding="utf-8")).body, module)
    return found


def mentions(path):
    """``(identifier, line)`` of each name, attribute, import and identifier string in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            found.extend((part, node.lineno) for part in node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.append((node.value, node.lineno))
    return found


def uncalled_names():
    """Qualified names of the public definitions nothing mentions outside themselves."""
    modules = sorted(name for name in reachable() & set(MODULES) if not is_package(name))
    callers = [MODULES[name] for name in modules] + SCRIPTS
    lines_by_name = {}  # identifier -> [(path, line)]
    for path in callers:
        for identifier, line in mentions(path):
            lines_by_name.setdefault(identifier, []).append((path, line))
    uncalled = set()
    for module in modules:
        path = MODULES[module]
        for qualified, node in public_definitions(module):
            if not any(
                where != path or not node.lineno <= line <= node.end_lineno
                for where, line in lines_by_name.get(node.name, ())
            ):
                uncalled.add(qualified)
    return uncalled


def test_every_module_has_a_caller():
    orphans = sorted(set(MODULES) - reachable())
    assert not orphans, f"modules nothing runs: {orphans}"


def test_every_public_name_has_a_caller():
    uncalled = uncalled_names()
    orphans = sorted(uncalled - set(ALLOWED_UNCALLED))
    assert not orphans, f"public names nothing outside tests/ calls: {orphans}"
    defined = {
        qualified
        for module in MODULES
        if not is_package(module)
        for qualified, _ in public_definitions(module)
    }
    stale = {name: "no longer exists" for name in set(ALLOWED_UNCALLED) - defined}
    called = defined - uncalled
    stale.update({name: "has a caller now" for name in set(ALLOWED_UNCALLED) & called})
    assert not stale, f"stale ALLOWED_UNCALLED entries: {stale}"
