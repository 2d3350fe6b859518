"""The package reads no environment variables.

Every setting of a run is a function argument, a CLI flag or a config key,
so the same command gives the same files whatever the shell exports.  The
reads are found in the syntax tree (an ``os.environ``, ``os.environb`` or
``os.getenv`` attribute, or one of those names imported from ``os``), as
``test_exports.py`` finds references.
"""
import ast

from test_exports import PACKAGE

ENV_READERS = {"environ", "environb", "getenv"}


def environment_reads(tree: ast.Module) -> list[int]:
    """Line numbers of the environment reads in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READERS:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
            alias.name in ENV_READERS for alias in node.names
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_package_reads_no_environment():
    reads = {f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line in environment_reads(ast.parse(path.read_text()))}
    assert not reads, f"environment read at {sorted(reads)}"


def test_finds_each_form():
    found = environment_reads(ast.parse(
        "import os\n"
        "a = os.environ.get('X')\n"
        "b = os.environb[b'X']\n"
        "c = os.getenv('X')\n"
        "from os import getenv\n"
        "d = os.path.join('x')\n"
    ))
    assert found == [2, 3, 4, 5]
