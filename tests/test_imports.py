"""Every module-level import in the package sources is used.

No linter ships with the project, so this parses each module with ``ast``:
a name bound by a top-level ``import`` must be read somewhere else in that
module, in code or in a quoted annotation.  ``__init__.py`` is left out
because its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parent.parent / "src" / "rptgeo").glob("*.py")
                 if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict:
    """Top-level imported name -> line of its import."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "Tensor" or "list[Scalar]"
            try:
                used |= _read_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _read_names(tree)
    unused = ["%s (line %d)" % (name, line)
              for name, line in sorted(_imported_names(tree).items()) if name not in used]
    assert not unused, "%s imports unused names: %s" % (path.name, ", ".join(unused))
