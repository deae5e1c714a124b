"""Every module-level private name in ``src`` is used somewhere in ``src``
besides its own definition, so a helper whose last caller went away fails here."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hardylab"


def _private_definitions(tree: ast.Module):
    """(name, defining node) for every module-level private function, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(node: ast.AST) -> list:
    """Name loads and attribute names below ``node``, as (name, ast node) pairs."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.append((sub.id, sub))
        elif isinstance(sub, ast.Attribute):
            out.append((sub.attr, sub))
    return out


def test_every_private_module_name_is_used():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert trees
    reads = [pair for tree in trees.values() for pair in _reads(tree)]
    unused = []
    for fname, tree in trees.items():
        for name, node in _private_definitions(tree):
            inside = {id(sub) for sub in ast.walk(node)}
            if not any(n == name and id(sub) not in inside for n, sub in reads):
                unused.append(f"{fname}:{node.lineno} {name}")
    assert not unused, f"private module-level names nothing in src uses: {unused}"
