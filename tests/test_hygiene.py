"""Source hygiene that no installed linter checks: every module-level import
in the package is used by its module or re-exported through ``__all__``."""

import ast
import pathlib

import pytest

import specpreserve

SOURCES = sorted(pathlib.Path(specpreserve.__file__).parent.glob("*.py"))


def _bound_names(node):
    """Names an import statement binds in its module."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = _exported(tree)
    unused = [name for node in tree.body
              if isinstance(node, (ast.Import, ast.ImportFrom))
              for name in _bound_names(node)
              if name not in used and name not in exported]
    assert not unused, f"{path.name} imports but never uses {unused}"
