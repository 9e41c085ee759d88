"""Documentation gate run by the CI ``docs`` job.

Five checks, all fast and dependency-free beyond the package's own imports:

1. **Markdown link check** -- every relative link target in the repo's
   markdown files (root-level ``*.md`` and ``docs/*.md``) must resolve to an
   existing file or directory.  External schemes (``http(s)``, ``mailto``)
   and pure in-page anchors are skipped; a ``path#anchor`` link is checked
   for the path part only.
2. **Docstring gate** -- every public symbol of every ``repro`` package
   (module, function, class, and the methods/properties a class itself
   defines) must carry a non-empty docstring.  Public means
   "not underscore-prefixed"; inherited members are the parent's problem.

3. **Decision tables** -- two docs tables are checked against the code they
   describe, so neither can go stale again: the query kinds listed in
   ``docs/serving.md`` (section *Query kinds*) must equal
   ``repro.serve.planner.QUERY_KINDS``, each row's "Coalesces on" cell (its
   backticked names before any "—") must equal the payload names its kind
   coalesces on, in order, and the artifact kinds in the
   ``### Repair`` table of ``docs/architecture.md`` must equal the kinds a
   service actually caches -- the rows with a repair primitive matching the
   cached kinds whose class defines ``apply_delta``, the "never repaired"
   rows matching the rest.  A missing or an extra row fails.
4. **Docstring file references** -- every file a docstring names
   (``docs/substitutions.md``, ``tests/linalg/test_resistance.py``,
   ``BENCHMARK.json`` ...) must exist: a path with a directory part relative
   to the repo root, ``src/`` or the citing file; a bare name anywhere in the
   tree.  Walks ``src/``, ``scripts/``, ``examples/`` and ``setup.py`` (not
   ``benchmarks/suite``, whose usage strings name placeholder files).
5. **Dotted names** -- every backticked dotted ``repro.…`` name in
   ``docs/*.md``, ``README.md`` and the docstrings under ``src/`` -- also
   inside a ``:mod:`` / ``:class:`` role, ``~``-prefixed or ending in ``.*``
   -- must resolve to an importable module or an attribute of one, so a
   deleted module or symbol cannot survive in prose.  The same goes for a
   backticked ``Class.member`` (optionally ``Class.member()``) whose class is
   a public class of a ``repro`` package: the member must be an attribute of
   the class, a dataclass field, or an attribute its methods assign on
   ``self``, so a deleted attribute cannot survive either.

Exit code 0 when clean; prints every violation and exits 1 otherwise.

    PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the namespace whose packages' public API the docstring gate walks
GATED_NAMESPACE = "repro"

#: markdown link syntax [text](target); images ![alt](target) match too
LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: link targets that are not filesystem paths
EXTERNAL_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


#: generated retrieval artifacts whose content this repo does not maintain
SKIP_MARKDOWN = {"PAPERS.md", "SNIPPETS.md", "ISSUE.md"}


def markdown_files():
    for path in sorted(REPO_ROOT.glob("*.md")):
        if path.name not in SKIP_MARKDOWN:
            yield path
    yield from sorted((REPO_ROOT / "docs").glob("*.md"))


def check_markdown_links() -> list:
    problems = []
    for md_file in markdown_files():
        for line_number, line in enumerate(
            md_file.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for match in LINK_PATTERN.finditer(line):
                target = match.group(1)
                if target.startswith(EXTERNAL_SCHEMES) or target.startswith("#"):
                    continue
                path_part = target.split("#", 1)[0]
                if not path_part:
                    continue
                resolved = (md_file.parent / path_part).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{md_file.relative_to(REPO_ROOT)}:{line_number}: "
                        f"broken link -> {target}"
                    )
    return problems


def iter_package_modules(package_name: str):
    package = importlib.import_module(package_name)
    yield package_name, package
    for info in pkgutil.iter_modules(package.__path__, prefix=package_name + "."):
        yield info.name, importlib.import_module(info.name)


def has_docstring(obj) -> bool:
    doc = inspect.getdoc(obj)
    return bool(doc and doc.strip())


def public_module_symbols(module_name: str, module):
    """Public objects the module itself defines (imports are not its API)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    for name in names:
        obj = vars(module).get(name)
        if obj is None or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue
        yield name, obj


def check_class_members(module_name: str, cls, problems: list) -> None:
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue  # dunders/privates; __init__ is covered by the class doc
        target = None
        if inspect.isfunction(member):
            target = member
        elif isinstance(member, property):
            target = member.fget
        elif isinstance(member, (classmethod, staticmethod)):
            target = member.__func__
        if target is None:
            continue
        if not has_docstring(target):
            problems.append(
                f"{module_name}.{cls.__name__}.{name}: missing docstring"
            )


def gated_packages() -> list:
    """Every package of :data:`GATED_NAMESPACE`."""
    namespace = importlib.import_module(GATED_NAMESPACE)
    return [
        info.name
        for info in pkgutil.iter_modules(namespace.__path__, prefix=GATED_NAMESPACE + ".")
        if info.ispkg
    ]


def check_docstrings() -> list:
    problems = []
    for package_name in gated_packages():
        for module_name, module in iter_package_modules(package_name):
            if not has_docstring(module):
                problems.append(f"{module_name}: missing module docstring")
            for name, obj in public_module_symbols(module_name, module):
                if not has_docstring(obj):
                    problems.append(f"{module_name}.{name}: missing docstring")
                if inspect.isclass(obj):
                    check_class_members(module_name, obj, problems)
    return problems


def table_rows(md_name: str, heading: str) -> dict:
    """``{first-cell code span: rest of the row}`` of the table under ``heading``."""
    lines = (REPO_ROOT / "docs" / md_name).read_text(encoding="utf-8").splitlines()
    start = lines.index(heading) + 1
    rows = {}
    for line in lines[start:]:
        if line.startswith("#"):
            break
        match = re.match(r"\| `([a-z_]+)`[^|]*\|(.*)", line)
        if match:
            rows[match.group(1)] = match.group(2)
    return rows


def cached_artifact_kinds() -> dict:
    """``{cache kind: its class defines apply_delta}``, read off a live service.

    One tiny query of every kind in ``QUERY_KINDS`` (and every resistance
    routing rung) through a real :class:`LaplacianService`; what lands in the
    cache is, by construction, what the serving tier caches.
    """
    import numpy as np

    from repro.graphs import generators
    from repro.serve import LaplacianService
    from repro.serve.planner import QUERY_KINDS

    service = LaplacianService(t_override=2, auto_flush=False)
    graph = generators.grid_graph(5, 5)
    key = service.register(graph)
    b = np.zeros(graph.n)
    b[0], b[-1] = 1.0, -1.0
    service.solve(key, b)
    service.certify(key)
    service.effective_resistance(key, 0, 1)  # dense oracle + grounded
    service.planner.oracle_limit = 0  # above the gate: the sketched rung
    service.effective_resistances(key, [(0, v) for v in range(1, 20)], eta=0.5)
    network = generators.random_flow_network(6, seed=1)
    net_key = service.register(network)
    service.min_cost_flow(net_key, memoise_result=True)
    served = set(service.metrics_snapshot()["queries_by_kind"])
    if served != set(QUERY_KINDS):
        raise AssertionError(
            f"check_docs probes {sorted(served)} but QUERY_KINDS is "
            f"{sorted(QUERY_KINDS)}: teach cached_artifact_kinds the new kind"
        )
    return {
        entry.kind: hasattr(entry.value, "apply_delta")
        for entry in service.cache.entries()
    }


def check_decision_tables() -> list:
    from repro.serve.planner import QUERY_KINDS, query_kind

    problems = []

    def compare(where: str, documented: set, actual: set) -> None:
        for kind in sorted(actual - documented):
            problems.append(f"{where}: missing row for `{kind}`")
        for kind in sorted(documented - actual):
            problems.append(f"{where}: row for `{kind}` matches nothing in the code")

    kinds = table_rows("serving.md", "## Query kinds")
    compare("docs/serving.md query-kind table", set(kinds), set(QUERY_KINDS))
    for kind, rest in kinds.items():
        if kind not in QUERY_KINDS:
            continue
        cell = rest.rstrip().rstrip("|").rsplit("|", 1)[-1].split("—")[0]
        documented = tuple(re.findall(r"`(\w+)`", cell))
        coalesce = query_kind(kind).coalesce
        if documented != coalesce:
            problems.append(
                f"docs/serving.md query-kind table: `{kind}` coalesces on {coalesce}, "
                f"the row says {documented}"
            )
    rows = table_rows("architecture.md", "### Repair")
    never = {kind for kind, rest in rows.items() if "never repaired" in rest}
    cached = cached_artifact_kinds()
    repairable = {kind for kind, has_protocol in cached.items() if has_protocol}
    table = "docs/architecture.md repair table"
    compare(f"{table} (repairable rows)", set(rows) - never, repairable)
    compare(f"{table} (never-repaired rows)", never, set(cached) - repairable)
    return problems


#: a file name as docstrings write them: optional directories, a known suffix
FILE_REFERENCE = re.compile(
    r"(?<![\w/.-])((?:[\w.-]+/)*[\w.-]+\.(?:md|py|json|jsonl|yml|yaml|toml|ini|cfg|txt))(?!\w)"
)

#: where docstrings are held to it (see the module docstring)
REFERENCE_ROOTS = ("src", "scripts", "examples", "setup.py")


def python_sources():
    for root in REFERENCE_ROOTS:
        path = REPO_ROOT / root
        yield from [path] if path.is_file() else sorted(path.rglob("*.py"))


def docstrings(source: Path):
    """``(line, docstring)`` of the module and every class and function in ``source``."""
    tree = ast.parse(source.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield getattr(node, "lineno", 1), ast.get_docstring(node) or ""


def check_docstring_file_references() -> list:
    basenames = {
        path.name
        for path in REPO_ROOT.rglob("*")
        if path.is_file() and ".git" not in path.parts
    }
    problems = []
    for source in python_sources():
        for line, doc in docstrings(source):
            for reference in FILE_REFERENCE.findall(doc):
                if "/" in reference:
                    bases = (REPO_ROOT, REPO_ROOT / "src", source.parent)
                    found = any((base / reference).exists() for base in bases)
                else:
                    found = reference in basenames
                if not found:
                    problems.append(
                        f"{source.relative_to(REPO_ROOT)}:{line}: "
                        f"docstring names a file that does not exist -> {reference}"
                    )
    return problems


#: a backticked dotted name, optionally ``~``-prefixed or ending in ``.*``
DOTTED_NAME = re.compile(r"`~?(repro(?:\.\w+)+)(?:\.\*)?`")


def resolves(name: str) -> bool:
    """Whether ``name`` is an importable module or an attribute path inside one."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(obj, attribute):
                return False
            obj = getattr(obj, attribute)
        return True
    return False


#: a backticked ``Class.member`` or ``Class.member()``
MEMBER_NAME = re.compile(r"`~?([A-Z]\w*)\.(\w+)(?:\(\))?`")


def public_classes() -> dict:
    """``{class name: [classes]}`` of the public classes every ``repro`` package defines."""
    classes: dict = {}
    for package_name in gated_packages():
        for module_name, module in iter_package_modules(package_name):
            for name, obj in vars(module).items():
                if (
                    inspect.isclass(obj)
                    and not name.startswith("_")
                    and obj.__module__ == module_name
                ):
                    classes.setdefault(name, []).append(obj)
    return classes


def assigned_on_self(cls) -> set:
    """Attribute names the methods of ``cls`` (and its ``repro`` bases) assign on ``self``."""
    names = set()
    for klass in cls.__mro__:
        if not klass.__module__.startswith(GATED_NAMESPACE + "."):
            continue
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(klass)))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                names.add(node.attr)
    return names


def has_member(cls, member: str) -> bool:
    return (
        hasattr(cls, member)
        or member in getattr(cls, "__dataclass_fields__", {})
        or member in assigned_on_self(cls)
    )


def check_dotted_names() -> list:
    texts = [
        (f"{path.relative_to(REPO_ROOT)}:{number}", line)
        for path in [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
    ]
    texts += [
        (f"{source.relative_to(REPO_ROOT)}:{number}", doc)
        for source in sorted((REPO_ROOT / "src").rglob("*.py"))
        for number, doc in docstrings(source)
    ]
    problems = [
        f"{where}: names `{name}`, which does not resolve"
        for where, text in texts
        for name in DOTTED_NAME.findall(text)
        if not resolves(name)
    ]
    classes = public_classes()
    problems += [
        f"{where}: names `{name}.{member}`, which no `repro` class `{name}` has"
        for where, text in texts
        for name, member in MEMBER_NAME.findall(text)
        if name in classes and not any(has_member(cls, member) for cls in classes[name])
    ]
    return problems


def main() -> int:
    problems = (
        check_markdown_links()
        + check_docstrings()
        + check_decision_tables()
        + check_docstring_file_references()
        + check_dotted_names()
    )
    for problem in problems:
        print(problem)
    if problems:
        print(f"\nFAIL: {len(problems)} documentation problem(s)")
        return 1
    print(
        "PASS: markdown links resolve, public API fully docstringed, "
        "decision tables match the code, docstring file references and dotted "
        "names resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
