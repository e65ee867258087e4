"""No helpers that nothing calls: every private function, class or
module-level constant of the package (a name with one leading underscore,
dunders excepted) is referenced somewhere in the package besides its own
definition, and every public name of ``albert`` somewhere outside the
tests.  No public callable takes a tolerance: they are the constants of
``albert.config``."""

import ast
import importlib
import inspect
from pathlib import Path

import albert

PACKAGE = Path(albert.__file__).parent
ROOT = PACKAGE.parents[1]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _constants(tree: ast.Module):
    """Module-level assignment targets, tuple targets unpacked, with their line."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.lineno, name.id


def _references(tree: ast.Module) -> set[str]:
    """Names read and attributes taken in a module; a top-level function or
    class does not count as a reference to itself."""
    referenced = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        names.discard(getattr(stmt, "name", None))
        referenced |= names
    return referenced


def test_every_private_definition_is_referenced():
    defined, referenced = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for lineno, name in _constants(tree):
            if _is_private(name):
                defined.add((f"{path.name}:{lineno}", name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defined.add((f"{path.name}:{node.lineno}", node.name))
        referenced |= _references(tree)
    assert defined, "no private definitions found; is the package path right?"
    assert any(name == "_UNIT" for _, name in defined), "module constants not collected"
    unused = sorted(f"{where} {name}" for where, name in defined if name not in referenced)
    assert not unused, f"private helpers that nothing in the package references: {unused}"


def test_every_import_is_used():
    # Each name a module imports is read in that module.  ``__init__.py`` is
    # left out: its imports load submodules into the package namespace.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, f"imports that their module never uses: {unused}"


def test_every_public_name_is_used_outside_the_tests():
    # A reference in the package (not the name's own definition), the
    # benchmark harness, a demo or a tool; the benchmark files are only read.
    referenced = set()
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "benchmarks").glob("*.py"),
                        *(ROOT / "demos").glob("*.py"), *(ROOT / "tools").glob("*.py")]):
        referenced |= _references(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    public = [name for name in albert.__all__ if name != "__version__"]
    assert "decompose" in public and "decompose" in referenced
    unused = sorted(name for name in public if name not in referenced)
    assert not unused, f"public names that only the tests use: {unused}"


def _public_callables():
    """(qualified name, callable) for every public function, public method and
    constructor defined in a module of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"albert.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr in dir(obj):
                    if attr in ("__init__", "__new__") or not attr.startswith("_"):
                        member = getattr(obj, attr)
                        if inspect.isfunction(member) or inspect.ismethod(member):
                            yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_callable_takes_a_tolerance():
    callables = dict(_public_callables())
    assert "albert.octonion.Octonion.isclose" in callables
    assert "albert.octonion.Octonion.__init__" in callables
    taking = [f"{where}({p})" for where, fn in callables.items()
              for p in inspect.signature(fn).parameters
              if p in ("atol", "rtol", "mtol") or p.endswith("_rtol")]
    assert not taking, f"public callables with a tolerance parameter: {taking}"
