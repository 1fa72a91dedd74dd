"""Every module's ``__all__`` names what the module really defines,
no public signature takes back a setting that is now a constant, no
module imports a name it never reads, and the run modes' doors stay
generic over the algorithm registry.

A name deleted from a module but left in its ``__all__`` fails no
other test, yet breaks ``from module import *``.  The repository has no
linter, so the unused-import check is an AST scan here.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name != "repro.__main__"
)


@pytest.mark.parametrize("name", ["repro", *MODULES])
def test_all_entries_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    repeated = sorted({entry for entry in exported if exported.count(entry) > 1})
    assert not repeated, f"{name}.__all__ repeats {repeated}"


#: parameters of settings the paper fixes (one device, one serial host,
#: one graph per serving process, one memory-pressure threshold, the
#: four unordered candidates, the conflict-free reduction layout) or
#: that only restate another door: each is a constant or a
#: ``with observing(obs):`` block, never a keyword (a ``cache`` of
#: sessions only ever holds one)
FIXED_SETTINGS = {
    "cost_params",
    "cpu",
    "observe",
    "cache",
    "pressure_threshold",
    "candidates",
    "variants",
    "sequential_addressing",
}


def _public_callables():
    """(qualified name, callable) for every public function, class and
    method defined under :mod:`repro`."""
    for name in ["repro", *MODULES]:
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                continue
            if inspect.isfunction(obj):
                yield f"{name}.{attr}", obj
            elif inspect.isclass(obj):
                yield f"{name}.{attr}", obj
                for method_name, method in vars(obj).items():
                    if method_name.startswith("_"):
                        continue
                    method = getattr(method, "__func__", method)
                    if inspect.isfunction(method):
                        yield f"{name}.{attr}.{method_name}", method


def test_no_public_callable_takes_a_fixed_setting():
    offenders = []
    for qualname, obj in _public_callables():
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        hits = sorted(FIXED_SETTINGS & set(parameters))
        if hits:
            offenders.append(f"{qualname}({', '.join(hits)})")
    assert not offenders, f"fixed settings still taken as parameters: {offenders}"


def test_guard_config_keeps_the_run_settings_only():
    from repro.reliability import GuardConfig

    assert [f.name for f in dataclasses.fields(GuardConfig)] == [
        "max_retries",
        "deadline_s",
        "max_iterations",
        "checkpoint_every",
        "mem_budget",
    ]


def test_runtime_config_keeps_the_varied_knobs_only():
    from repro.core import RuntimeConfig

    assert [f.name for f in dataclasses.fields(RuntimeConfig)] == [
        "t1",
        "t2",
        "t3_fraction",
        "sampling_interval",
        "monitor_workset_degree",
        "switch_mode",
        "use_warp_mapping",
        "queue_gen",
        "force_workset",
    ]


def test_one_session_per_graph():
    """A serving process holds one :class:`GraphSession` over its one
    graph: nothing caches or re-keys sessions (and no public callable
    takes a ``cache``, see :data:`FIXED_SETTINGS`), and the session
    keeps no derived artifact that no query reads."""
    import repro.serve
    from repro.graph.generators import chain_graph
    from repro.serve import GraphSession

    assert not hasattr(repro.serve, "SessionCache")
    session = GraphSession(chain_graph(4))
    assert sorted(vars(session)) == ["config", "device", "digest", "graph"]


#: trees whose modules the unused-import check parses; ``perfbench/``
#: is a benchmark harness with its own conventions and stays out
LINTED_TREES = ("src", "tests", "tools", "benchmarks", "examples")
REPO_ROOT = Path(__file__).resolve().parent.parent


def _annotation_names(tree: ast.AST) -> set:
    """Names read inside string annotations such as ``List["X"]``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    try:
                        expr = ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        continue
                    names.update(
                        n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
                    )
    return names


def _unused_imports(path: Path) -> list:
    """``file:line: name`` for each top-level import *path* never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [
                (alias.asname or alias.name.partition(".")[0], node.lineno)
                for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    read |= _annotation_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read.update(
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            )
    rel = path.relative_to(REPO_ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported if name not in read]


def test_no_unused_imports():
    """Every top-level import is read somewhere in its module.  A
    package ``__init__.py`` imports to re-export, so it is exempt."""
    unused = [
        hit
        for tree in LINTED_TREES
        for path in sorted((REPO_ROOT / tree).rglob("*.py"))
        if path.name != "__init__.py"
        for hit in _unused_imports(path)
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


#: the layers whose doors reach algorithms through the registry only
GENERIC_LAYERS = ("core", "engine", "reliability", "serve")


def _imported_modules(tree: ast.AST):
    """(line, dotted name) of every module or module member *tree*
    imports, top-level or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def test_doors_import_no_algorithm_module():
    """A door reads a spec and its capability flags, never a spec class:
    no module under repro.core, repro.engine, repro.reliability,
    repro.serve or repro.cli imports from a module that registers an
    algorithm (the registry imports those on demand)."""
    from repro.engine.registry import _BUILTIN_MODULES

    registering = set(_BUILTIN_MODULES.values())
    package = REPO_ROOT / "src" / "repro"
    paths = [package / "cli.py"] + [
        path
        for layer in GENERIC_LAYERS
        for path in sorted((package / layer).rglob("*.py"))
    ]
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
        for path in paths
        for line, name in _imported_modules(ast.parse(path.read_text()))
        if name in registering
    ]
    assert not offenders, "doors import algorithm modules:\n" + "\n".join(offenders)


def test_one_computation_shape_builder():
    """Every computation launch's shape comes from
    ``repro.kernels.multisource.launch_shape``: nothing else constructs
    a ``ComputationShape``."""
    builders = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "ComputationShape" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                builders.append(str(path.relative_to(REPO_ROOT)))
    assert builders == ["src/repro/kernels/multisource.py"], builders
