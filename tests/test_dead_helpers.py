"""Every private helper of the package is used somewhere, every import of
a module is used by that module, and the package imports only the standard
library and itself."""

import ast
import sys
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradedmodal"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module):
    """Private module-level functions and classes, the methods (other than
    dunders) of private classes and the private methods of public classes,
    as (qualified name, node, whether only attribute reads count) triples:
    a method is read as an attribute."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _is_private(node.name):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (
                    isinstance(member, ast.FunctionDef)
                    and not member.name.startswith("__")
                    and (_is_private(node.name) or _is_private(member.name))
                ):
                    yield f"{node.name}.{member.name}", member, True


def _reads(node: ast.AST) -> Counter:
    """How often each name is read under ``node``: ``name`` counts reads as
    a bare name, ``.name`` reads as an attribute."""
    return Counter(
        current.id if isinstance(current, ast.Name) else "." + current.attr
        for current in ast.walk(node)
        if isinstance(current, (ast.Name, ast.Attribute))
    )


def _package_trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_no_dead_private_helpers():
    trees = _package_trees()
    reads = sum(map(_reads, trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for name, definition, attributes_only in _private_definitions(tree):
            # Reads inside the definition itself, recursion say, do not count.
            inside = _reads(definition)
            keys = ["." + definition.name] + ([] if attributes_only else [definition.name])
            if all(reads[key] == inside[key] for key in keys):
                dead.append(f"{module}:{name}")
    assert dead == []


def test_no_unused_imports():
    # __init__.py imports in order to re-export.
    unused = []
    for module, tree in _package_trees().items():
        if module == "__init__.py":
            continue
        used = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used and "." + bound not in used:
                        unused.append(f"{module}:{bound}")
    assert unused == []


def test_package_imports_only_the_standard_library():
    foreign = []
    for module, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                continue  # a relative import stays inside the package
            if isinstance(node, ast.ImportFrom):
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "gradedmodal":
                    foreign.append(f"{module}:{name}")
    assert foreign == []
