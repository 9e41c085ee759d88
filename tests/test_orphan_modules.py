"""``src/`` holds only code that runs: every module, public name and default of ``repro`` is used.

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
either.  The match is by name, except where the AST can tell the class of an
attribute's receiver: ``self.name`` / ``cls.name`` inside a class body (the
class, its bases and its subclasses), ``super().name`` (the bases),
``Class.name``, and ``x.name`` with ``x`` bound only by ``Class(...)`` in the
same scope or a parameter annotated ``x: Class`` (the class and its bases).
Such a mention calls only that class family's ``name``; a receiver whose
family defines no ``name`` (an instance attribute) falls back to the match by
name.  ``ALLOWED_UNCALLED`` lists the few names kept without a caller, each
with its reason, and fails when an entry has gained a caller or no longer
exists.

The default guard checks every defaulted parameter of those public functions
and methods and of each public class's ``__init__``: some call from a reached
module or a root script, outside the callee's own definition, must pass it by
position or by keyword.  Callees resolve as mentions do (``Class(...)`` calls
the first ``__init__`` of its class and bases, import aliases are followed).
A ``*args`` passes every position from its own on; a ``**mapping`` passes the
string keys of the dict literals its name is bound to in the same scope, and
nothing when there are none.  ``ALLOWED_DEFAULTS`` lists the defaults kept
without such a caller, ``qualified.name(param) -> reason``, and fails when an
entry has gained a caller or no longer exists.  Parameters with a leading
underscore are private and dataclass fields are not parameters here.
"""

import ast
import functools
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
    "repro.serve.service.LaplacianService.arm_faults": (
        "fault seam: arms a fault plan on the planner's seams, docs/resilience.md"
    ),
    "repro.serve.faults.FaultInjector.fire_counts": (
        "fault seam: how often each rule fired, read by the fault suites"
    ),
}

#: defaulted parameters ``src/`` keeps with no caller passing them, ``qualified(param) -> reason``
ALLOWED_DEFAULTS = {
    "repro.core.api.effective_resistances(seed)": (
        "the sketch's seed: every randomised facade takes one"
    ),
    "repro.core.api.solve_lp(eps)": (
        "Theorem 1.4's accuracy; solve_lp itself is in ALLOWED_UNCALLED"
    ),
    "repro.core.api.spanner(probabilities)": (
        "Section 3.1's edge probabilities: the facade's probabilistic half, which "
        "the sparsifier drives through ProbabilisticSpanner directly"
    ),
    "repro.flow.mincostflow.min_cost_max_flow(perturb)": (
        "isolation pin: perturb=False shows what the perturbation buys "
        "(tests/flow/test_mincostflow.py)"
    ),
    "repro.graphs.generators.random_flow_network(average_degree)": (
        "density of the seeded flow families; the slow family runs n = 800 at degree 18"
    ),
    "repro.linalg.resistance.SketchedResistanceOracle.__init__(k_override)": (
        "test seam: a sketch sized below its bound, so apply_delta's widening refusal runs"
    ),
    "repro.serve.cluster.ClusterService.__init__(health)": (
        "health-monitor cadence, docs/cluster.md; the cluster suites probe every 0.1 s"
    ),
    "repro.serve.cluster.ClusterService.mutate(weight)": (
        "the weight an add carries (a remove passes none) on the operator's write path"
    ),
    "repro.serve.resilience.CircuitBreaker.__init__(clock)": (
        "test seam: an injected clock steps the breaker's TTL"
    ),
    "repro.serve.resilience.DrainRateTracker.observe(now)": (
        "test seam: explicit timestamps instead of the monotonic clock"
    ),
    "repro.serve.resilience.DrainRateTracker.rate(now)": (
        "test seam: explicit timestamps instead of the monotonic clock"
    ),
    "repro.serve.resilience.call_with_retries(sleep)": (
        "test seam: the retry backoff without sleeping"
    ),
    "repro.serve.service.QueryFrontDoor.effective_resistance(eta)": (
        "the accuracy of a scalar resistance query, as effective_resistances' eta "
        "(docs/accuracy.md)"
    ),
    "repro.solvers.chebyshev.preconditioned_chebyshev(max_iterations)": (
        "test seam: a degree below the minimal budget, so the attainment test "
        "measures 1/T_k itself"
    ),
    "repro.solvers.laplacian.BCCLaplacianSolver.__init__(exact_preconditioner)": (
        "ablation seam: precondition with L_G itself (kappa = 1) to isolate Chebyshev"
    ),
    "repro.spanners.probabilistic.probabilistic_spanner(marking_bits)": (
        "test seam: fixed marking bits replay the reference executor step for step"
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


@functools.lru_cache(maxsize=None)
def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def is_package(name):
    return MODULES[name].name == "__init__.py"


def imports(path):
    """``(module, imported names)`` of every import statement in ``path``.

    A plain ``import x.y`` imports no names.  Relative imports are skipped:
    ``repro`` imports absolutely, and a script's relative imports stay in its
    own directory.
    """
    found = []
    for node in ast.walk(parse(path)):
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


@functools.lru_cache(maxsize=None)
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
    return frozenset(seen | {name.rsplit(".", 1)[0] for name in seen})


def reached_modules():
    return sorted(name for name in reachable() & set(MODULES) if not is_package(name))


def callers():
    """The files whose mentions and calls count: reached modules and root scripts."""
    return [MODULES[name] for name in reached_modules()] + SCRIPTS


def public_definitions(module):
    """``(qualified name, node, owning class name or None)`` of the public
    functions, classes and methods of ``module``."""
    found = []

    def walk(body, prefix, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found.append((f"{prefix}.{node.name}", node, owner))
                if isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}.{node.name}", node.name)

    walk(parse(MODULES[module]).body, module, None)
    return found


class Hierarchy:
    """The classes of the caller files: bases, subclasses and the methods each defines."""

    def __init__(self, paths):
        self.methods = {}  # class name -> {method name: FunctionDef}
        self.bases = {}  # class name -> [base class names among these classes]
        for path in paths:
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.ClassDef):
                    self.methods[node.name] = {
                        item.name: item
                        for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    }
                    self.bases[node.name] = [
                        base.id for base in node.bases if isinstance(base, ast.Name)
                    ]
        for name, bases in self.bases.items():
            self.bases[name] = [base for base in bases if base in self.methods]

    def ancestors(self, name):
        """``name`` and its bases, nearest first."""
        order = [name]
        for base in self.bases[name]:
            order += [ancestor for ancestor in self.ancestors(base) if ancestor not in order]
        return order

    def family(self, name):
        """``name``, its bases and its subclasses."""
        return set(self.ancestors(name)) | {
            other for other in self.methods if name in self.ancestors(other)
        }

    def constructor(self, name):
        """The ``__init__`` node a call ``name(...)`` runs, or ``None``."""
        for ancestor in self.ancestors(name):
            if "__init__" in self.methods[ancestor]:
                return self.methods[ancestor]["__init__"]
        return None


@functools.lru_cache(maxsize=None)
def hierarchy():
    return Hierarchy(callers())


def aliases(tree):
    """``{local name: imported name}`` of every ``from x import name as local`` in ``tree``."""
    return {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }


def scope_nodes(body):
    """Every node of ``body`` outside nested function, class and lambda bodies."""
    stack = list(reversed(body))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(reversed(list(ast.iter_child_nodes(node))))


class Scope:
    """What the AST can tell about receivers inside one function, class or module body."""

    def __init__(self, body, outer=None, owner=None, self_name=None, params=()):
        self.owner = owner  # the class whose method this is (or encloses it), else None
        self.self_name = self_name  # that method's ``self`` / ``cls`` parameter, else None
        self.values = {name: [None] for name in params}  # name -> [assigned values]
        for node in scope_nodes(body):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            self.bind(name.id, node.value if target is name else None)
            elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
                if isinstance(node.target, ast.Name):
                    self.bind(node.target.id, node.value)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                self.bind(node.target.id, None)
            elif isinstance(node, ast.withitem) and isinstance(node.optional_vars, ast.Name):
                self.bind(node.optional_vars.id, node.context_expr)
            elif isinstance(node, (ast.For, ast.comprehension)):
                for name in ast.walk(node.target):
                    if isinstance(name, ast.Name):
                        self.bind(name.id, None)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                self.bind(node.name, None)
        self.outer = outer

    def bind(self, name, value):
        self.values.setdefault(name, []).append(value)

    def assigned(self, name):
        """The values ``name`` is bound to in its innermost scope."""
        scope = self
        while scope is not None and name not in scope.values:
            scope = scope.outer
        return scope.values[name] if scope is not None else None


def walk_scopes(tree):
    """``(node, Scope)`` of every node of ``tree``, with the innermost scope holding it."""

    def visit(node, scope):
        if isinstance(node, ast.ClassDef):
            yield node, scope
            for part in node.bases + node.keywords + node.decorator_list:
                yield from visit(part, scope)
            inner = Scope(node.body, scope, owner=node.name)
            for statement in node.body:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from visit_method(statement, inner)
                else:
                    yield from visit(statement, inner)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from visit_function(node, scope, scope.owner, scope.self_name)
        else:
            yield node, scope
            for child in ast.iter_child_nodes(node):
                yield from visit(child, scope)

    def visit_method(node, class_scope):
        decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
        params = node.args.posonlyargs + node.args.args
        self_name = params[0].arg if params and "staticmethod" not in decorators else None
        yield from visit_function(node, class_scope, class_scope.owner, self_name)

    def visit_function(node, scope, owner, self_name):
        yield node, scope
        arguments = node.args
        for part in arguments.defaults + [d for d in arguments.kw_defaults if d]:
            yield from visit(part, scope)
        for part in getattr(node, "decorator_list", ()):
            yield from visit(part, scope)
        params = [
            arg.arg
            for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            + [arguments.vararg, arguments.kwarg]
            if arg is not None
        ]
        if self_name in params[1:]:
            self_name = None  # a nested function rebinding the name
        body = node.body if isinstance(node.body, list) else [node.body]
        inner = Scope(body, scope, owner if self_name else None, self_name, params)
        for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs:
            if isinstance(arg.annotation, ast.Name):
                # ``x: Class`` binds ``x`` as ``x = Class(...)`` would
                inner.values[arg.arg] = [ast.Call(func=arg.annotation, args=[], keywords=[])]
        for statement in body:
            yield from visit(statement, inner)

    yield from visit(tree, Scope(tree.body))


def constructed(values, renamed):
    """The class every value in ``values`` is a ``Class(...)`` call of, else ``None``."""
    kinds = set()
    for value in values or [None]:
        if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)):
            return None
        kinds.add(renamed.get(value.func.id, value.func.id))
    kind = kinds.pop() if len(kinds) == 1 else None
    return kind if kind in hierarchy().methods else None


def receiver_family(receiver, scope, renamed):
    """The classes whose members ``receiver.x`` may name, or ``None`` if the AST cannot tell."""
    classes = hierarchy()
    if isinstance(receiver, ast.Name):
        if receiver.id == scope.self_name:
            return classes.family(scope.owner)
        values = scope.assigned(receiver.id)
        if values is None:
            name = renamed.get(receiver.id, receiver.id)
            return set(classes.ancestors(name)) if name in classes.methods else None
        kind = constructed(values, renamed)
        return set(classes.ancestors(kind)) if kind else None
    if (
        isinstance(receiver, ast.Call)
        and isinstance(receiver.func, ast.Name)
        and receiver.func.id == "super"
        and scope.owner is not None
    ):
        return set(classes.ancestors(scope.owner)[1:])
    return None


def qualify(attribute, scope, renamed):
    """The classes ``attribute`` names a member of, or ``None`` for a match by name."""
    family = receiver_family(attribute.value, scope, renamed)
    if family is None:
        return None
    defining = {name for name in family if attribute.attr in hierarchy().methods[name]}
    return frozenset(defining) or None


def mentions(path):
    """``(identifier, line, classes)`` of each name, attribute, import and
    identifier string in ``path``; ``classes`` restricts an attribute to the
    members of those classes, ``None`` matches by name."""
    tree = parse(path)
    renamed = aliases(tree)
    found = []
    for node, scope in walk_scopes(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno, None))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno, qualify(node, scope, renamed)))
        elif isinstance(node, ast.alias):
            found.extend((part, node.lineno, None) for part in node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.append((node.value, node.lineno, None))
    return found


def uncalled_names():
    """Qualified names of the public definitions nothing mentions outside themselves."""
    lines_by_name = {}  # identifier -> [(path, line, classes)]
    for path in callers():
        for identifier, line, classes in mentions(path):
            lines_by_name.setdefault(identifier, []).append((path, line, classes))
    uncalled = set()
    for module in reached_modules():
        path = MODULES[module]
        for qualified, node, owner in public_definitions(module):
            if not any(
                (where != path or not node.lineno <= line <= node.end_lineno)
                and (classes is None or owner in classes)
                for where, line, classes in lines_by_name.get(node.name, ())
            ):
                uncalled.add(qualified)
    return uncalled


def defaulted(node, method):
    """``(positional parameter names, defaulted parameter names)`` of a function node."""
    positional = [arg.arg for arg in node.args.posonlyargs + node.args.args]
    decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
    if method and "staticmethod" not in decorators:
        positional = positional[1:]
    names = positional[len(positional) - len(node.args.defaults):] if node.args.defaults else []
    names += [
        arg.arg
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
        if default is not None
    ]
    return positional, [name for name in names if not name.startswith("_")]


def checked_defaults():
    """``{(qualified callable, param)}`` of every defaulted parameter the guard checks,
    and ``{callable node: (qualified callable, positional names, path)}``."""
    classes = hierarchy()
    params, callables = set(), {}
    for module in reached_modules():
        for qualified, node, owner in public_definitions(module):
            if isinstance(node, ast.ClassDef):
                init = classes.methods[node.name].get("__init__")
                if init is None:
                    continue
                node, owner, qualified = init, node.name, f"{qualified}.__init__"
            positional, names = defaulted(node, owner is not None)
            callables[node] = (qualified, positional, MODULES[module])
            params |= {(qualified, name) for name in names}
    return params, callables


def call_targets(call, scope, renamed):
    """The function nodes ``call`` may run."""
    classes = hierarchy()
    func = call.func
    if isinstance(func, ast.Name):
        name = renamed.get(func.id, func.id)
        if func.id == scope.self_name:
            name = scope.owner  # ``cls(...)``
        if name in classes.methods:
            constructor = classes.constructor(name)
            return [constructor] if constructor else []
        return by_name().get(name, [])
    if isinstance(func, ast.Attribute):
        family = qualify(func, scope, renamed)
        if family is not None:
            return [classes.methods[owner][func.attr] for owner in family]
        if func.attr.startswith("__"):
            return []  # ``super().__init__`` of a class from outside ``repro``
        return by_name().get(func.attr, [])
    return []


@functools.lru_cache(maxsize=None)
def by_name():
    """``{name: [function nodes]}`` of every function and method of the reached modules."""
    found = {}
    for module in reached_modules():
        for node in ast.walk(parse(MODULES[module])):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.setdefault(node.name, []).append(node)
    return found


def passed(call, positional, scope):
    """The parameter names ``call`` passes, given the callee's positional parameters."""
    names = set()
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            names |= set(positional[index:])
            break
        if index < len(positional):
            names.add(positional[index])
    for keyword in call.keywords:
        if keyword.arg is not None:
            names.add(keyword.arg)
            continue
        mapping = [keyword.value]
        if isinstance(keyword.value, ast.Name):
            mapping = [value for value in scope.assigned(keyword.value.id) or () if value]
        for value in mapping:
            for node in ast.walk(value):
                if isinstance(node, ast.Dict):
                    names |= {
                        key.value
                        for key in node.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    }
    return names


def unpassed_defaults():
    """``qualified(param)`` of every checked default no call outside its definition passes."""
    params, callables = checked_defaults()
    seen = set()
    for path in callers():
        tree = parse(path)
        renamed = aliases(tree)
        for node, scope in walk_scopes(tree):
            if not isinstance(node, ast.Call):
                continue
            for target in call_targets(node, scope, renamed):
                if target not in callables:
                    continue
                qualified, positional, where = callables[target]
                if where == path and target.lineno <= node.lineno <= target.end_lineno:
                    continue  # a recursive call is no caller
                seen |= {(qualified, name) for name in passed(node, positional, scope)}
    return {f"{qualified}({name})" for qualified, name in params - seen}


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
        for qualified, _, _ in public_definitions(module)
    }
    stale = {name: "no longer exists" for name in set(ALLOWED_UNCALLED) - defined}
    called = defined - uncalled
    stale.update({name: "has a caller now" for name in set(ALLOWED_UNCALLED) & called})
    assert not stale, f"stale ALLOWED_UNCALLED entries: {stale}"


def test_every_default_has_a_caller():
    unpassed = unpassed_defaults()
    orphans = sorted(unpassed - set(ALLOWED_DEFAULTS))
    assert not orphans, f"defaulted parameters nothing outside tests/ passes: {orphans}"
    params, _ = checked_defaults()
    defined = {f"{qualified}({name})" for qualified, name in params}
    stale = {name: "no longer exists" for name in set(ALLOWED_DEFAULTS) - defined}
    called = defined - unpassed
    stale.update({name: "has a caller now" for name in set(ALLOWED_DEFAULTS) & called})
    assert not stale, f"stale ALLOWED_DEFAULTS entries: {stale}"
    assert all(reason.strip() for reason in ALLOWED_DEFAULTS.values())
