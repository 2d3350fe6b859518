"""Every public name earns a caller outside the tests.

A name that ``marginleak/__init__.py`` exports must be referenced as code (a
name or an attribute in the syntax tree, not a comment or a string) outside
its own definition: in the package, in ``perfbench/``, or in a ``python``
code block of README.md.  A name only tests use belongs in ``tests/``.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "marginleak"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def references(tree: ast.Module) -> set[str]:
    """Names and attributes used in ``tree``; inside a top-level def or
    class, its own name does not count."""
    found = set()
    for top in tree.body:
        used = {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            used.discard(top.name)
        found |= used
    return found


def caller_trees():
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        if path.name != "__init__.py":
            yield ast.parse(path.read_text())
    for block in re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL):
        yield ast.parse(block)


def test_every_export_has_a_caller_outside_the_tests():
    unused = exported_names() - set().union(*map(references, caller_trees()))
    assert not unused, f"exported, but only tests use: {sorted(unused)}"
