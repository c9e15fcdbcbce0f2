"""Every private module-level function of the package is used somewhere."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradedmodal"


def _private_functions(tree: ast.Module):
    for node in tree.body:
        if (
            isinstance(node, ast.FunctionDef)
            and node.name.startswith("_")
            and not node.name.startswith("__")
        ):
            yield node


def _referenced_names(node: ast.AST, skip: ast.AST = None) -> set[str]:
    """Names read as a bare name or an attribute under ``node``, outside ``skip``."""
    names = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current is skip:
            continue
        if isinstance(current, ast.Name):
            names.add(current.id)
        elif isinstance(current, ast.Attribute):
            names.add(current.attr)
        stack.extend(ast.iter_child_nodes(current))
    return names


def test_no_dead_private_helpers():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    dead = []
    for module, tree in trees.items():
        for helper in _private_functions(tree):
            used = set()
            for other, other_tree in trees.items():
                used |= _referenced_names(other_tree, skip=helper if other == module else None)
            if helper.name not in used:
                dead.append(f"{module}:{helper.name}")
    assert dead == []
