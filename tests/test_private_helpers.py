"""No helpers that nothing calls: every private function or class of the
package (a name with one leading underscore, dunders excepted) is referenced
somewhere in the package besides its own definition."""

import ast
from pathlib import Path

import albert

PACKAGE = Path(albert.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_private_definition_is_referenced():
    defined, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defined.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined, "no private definitions found; is the package path right?"
    unused = [f"{where} {name}" for where, name in defined if name not in referenced]
    assert not unused, f"private helpers that nothing in the package references: {unused}"
